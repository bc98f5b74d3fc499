#!/usr/bin/env python3
"""SIMD kernel regression gate.

Compares a freshly produced BENCH_kernels.json against the reference
committed in the repository and fails when:
  * any vector path drifts from its scalar reference beyond the physics
    tolerance (lane reassociation explains ~1e-15; anything above 1e-12
    means the vector arithmetic no longer mirrors the scalar loop),
  * the hermite j-block vector path stops beating its scalar tiled
    reference by a real margin, or
  * the sph/bhtree vector paths regress below parity (their SIMD share of
    the whole evolve is small, so they gate on non-regression, not on a
    large speedup).

It also prints which Hermite row path ran, in the new run and in the
reference: "avx-pairs" (two i rows per AVX register) or "single".

Wall-clock speedups are noisy on shared CI runners, so the speedup floors
carry generous headroom below the committed reference values; the deviation
gate is exact arithmetic and carries none.

Usage: check_kernels.py NEW_JSON REF_JSON
"""

import json
import sys

MAX_REL_DEV = 1e-12       # lane reassociation only; observed ~1e-15
SPEEDUP_FLOORS = {
    "hermite_jblock": 1.2,  # the SoA j-tile loop is the SIMD showcase
    "sph_density": 0.85,    # gather pass is a small share of evolve
    "bhtree_leaf": 0.85,    # near-leaf lanes amortized over tree walk
}


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
    print(f"hermite rows: {new.get('hermite_rows', 'unreported')} "
          f"(ref {ref.get('hermite_rows', 'unreported')})")

    for name, floor in SPEEDUP_FLOORS.items():
        if name not in new_rows:
            failures.append(f"missing benchmark row: {name}")
            continue
        row = new_rows[name]
        ref_speedup = ref_rows.get(name, {}).get("simd_speedup", float("nan"))
        speedup = row["simd_speedup"]
        dev = row["max_rel_dev"]
        print(f"{name}: {speedup:.2f}x vs scalar (ref {ref_speedup:.2f}x, "
              f"floor {floor}), dev={dev:.3g}")
        if speedup < floor:
            failures.append(
                f"{name} vector path too slow: {speedup:.2f}x < {floor}x")
        if dev > MAX_REL_DEV:
            failures.append(
                f"{name} deviates from scalar reference: {dev:.3g} > "
                f"{MAX_REL_DEV}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print("simd kernels OK")


if __name__ == "__main__":
    main()
