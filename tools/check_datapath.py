#!/usr/bin/env python3
"""Data-path regression gate.

Compares a freshly produced BENCH_datapath.json against the reference
committed in the repository and fails when:
  * bytes-per-bridge-step of the delta path on the Fig-6 jungle scenario
    regressed beyond the tolerance,
  * the delta exchange no longer saves >= 2x bytes over the synchronous
    baseline, or
  * the pipelined path is no longer faster than the synchronous one on the
    deep-WAN topology, or
  * the pipelined path's virtual seconds per bridge step on the deep-WAN
    topology regressed beyond the tolerance (a virtual, deterministic
    figure: the round trips a step waits on).

The synchronous baseline is the retired serial full-fetch data path. Its
rows (`*_sync`) are frozen in the reference file: the bench no longer runs
them, so both ratios divide the reference's baseline by the new figure.

Usage: check_datapath.py NEW_JSON REF_JSON
"""

import json
import sys

TOLERANCE = 1.05  # simulated bytes and seconds are deterministic; 5% headroom


def rows_by_name(doc):
    return {row["name"]: row for row in doc["benchmarks"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as handle:
        new = json.load(handle)
    with open(sys.argv[2]) as handle:
        ref = json.load(handle)
    new_rows, ref_rows = rows_by_name(new), rows_by_name(ref)
    failures = []

    name = "fig6_jungle_delta"
    new_bytes = new_rows[name]["wan_ipl_bytes_per_step"]
    ref_bytes = ref_rows[name]["wan_ipl_bytes_per_step"]
    print(f"{name}: {new_bytes:.0f} B/step (ref {ref_bytes:.0f})")
    if new_bytes > ref_bytes * TOLERANCE:
        failures.append(
            f"bytes-per-bridge-step regressed: {new_bytes:.0f} > "
            f"{ref_bytes:.0f} * {TOLERANCE}")

    ratio = (ref_rows["fig6_jungle_sync"]["wan_ipl_bytes_per_step"] /
             new_rows["fig6_jungle_delta"]["wan_ipl_bytes_per_step"])
    print(f"fig6 bytes ratio sync/delta: {ratio:.2f}x")
    if ratio < 2.0:
        failures.append(f"delta exchange saves only {ratio:.2f}x (< 2x)")

    speedup = (ref_rows["deepwan_sync"]["seconds_per_iteration"] /
               new_rows["deepwan_pipelined"]["seconds_per_iteration"])
    print(f"deep-WAN speedup sync/pipelined: {speedup:.2f}x")
    if speedup <= 1.0:
        failures.append(
            f"pipelined path not faster on deep WAN ({speedup:.2f}x)")

    name = "deepwan_pipelined"
    new_seconds = new_rows[name]["seconds_per_iteration"]
    ref_seconds = ref_rows[name]["seconds_per_iteration"]
    print(f"{name}: {new_seconds:.5f} virtual s/step (ref {ref_seconds:.5f})")
    if new_seconds > ref_seconds * TOLERANCE:
        failures.append(
            f"deep-WAN seconds-per-bridge-step regressed: {new_seconds:.5f} > "
            f"{ref_seconds:.5f} * {TOLERANCE}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print("data path OK")


if __name__ == "__main__":
    main()
