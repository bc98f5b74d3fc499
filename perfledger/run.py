#!/usr/bin/env python3
"""Perf ledger: the jungle's end-to-end and per-layer benchmark, on two clocks.

Builds the harness (perfledger/CMakeLists.txt) from the sources next to this
directory, then runs it with the kernel thread pool pinned to two lanes:

    python3 perfledger/run.py --workload fig6_jungle --seed 1 --seconds 12 --trace 0
    python3 perfledger/run.py --workload all --seed 1 --seconds 48 --trace 1

A seed names a few inputs per workload (initial-condition streams of the
same experiment); a run cold-starts each of them, round after round, for
the given seconds. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer split from traced runs. `--workload all` runs every workload in
one process and prints each metric as <workload>/<metric>. Every metric is
printed with its clock (wall, virtual, count, memory) and unit; the last
stdout line is the JSON result {"correct", "attempted", "failed",
"metrics"}. An operation is one bridge step. A cold start's steps fail when
it throws or when its final model energies differ from the first cold start
of the same input; all of a run's steps fail when an input's energies miss
the committed reference (reference.json) for that workload and seed.

    python3 perfledger/run.py --check-determinism [--workload NAME] [--seed N]

runs each workload's exact fingerprint (virtual-clock metrics, WAN bytes,
every count-type layer metric and the final energies) twice at two lanes
and once at one lane, and fails unless all three are bit-identical. The
one exception is the final energies at one lane: they are parallel sums,
so they must agree to the reference tolerance.

    python3 perfledger/run.py --write-reference FIRST LAST

adds seeds FIRST..LAST to reference.json.

    python3 perfledger/run.py --hook-cost --workload NAME --seed N --seconds S

times cold starts with and without the timestamp hook.

The build goes to $CARGO_TARGET_DIR, or .bench_build when unset.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["fig6_jungle", "deepwan_autoplace", "sharded_ring", "rpc_ring"]
LANES = "2"
# Relative tolerance on final energies against the committed reference.
TOLERANCE = 1e-9


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "ledger",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ledger")


def ledger(binary, args, lanes=LANES):
    """Run the harness; echo its report, return its JSON last line."""
    # Every simulated process is a thread; capping glibc's per-thread malloc
    # arenas keeps peak RSS a measure of the program's data instead of how
    # many arenas happened to open (it spread by 18% on fig6_jungle, 2% with
    # the cap, at unchanged wall time).
    env = dict(os.environ, JUNGLE_THREADS=lanes, MALLOC_ARENA_MAX="2")
    proc = subprocess.run([binary] + args, env=env, check=False,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"ledger {' '.join(args)} exited {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as handle:
        return json.load(handle)


def close(got, want):
    """Energies agree to the reference tolerance, input by input."""
    return len(got) == len(want) and all(
        len(a) == len(b) and all(math.isclose(x, y, rel_tol=TOLERANCE)
                                 for x, y in zip(a, b))
        for a, b in zip(got, want))


def energies_ok(workload, seed, energies, reference):
    """Final energies of every input that ran, against the committed
    reference. Seeds without one are held to finite energies of bound
    (negative-potential) models; the harness already required every repeat
    of an input to match its first cold start bit for bit."""
    ran = [(j, e) for j, e in enumerate(energies) if e]
    if not ran:
        return False
    expected = reference.get(workload, {}).get(str(seed))
    if expected is not None:
        return len(expected) == len(energies) and all(
            close([e], [expected[j]]) for j, e in ran)
    print(f"{workload}: no committed reference for seed {seed}; "
          "checked self-consistency only", file=sys.stderr)
    return all(math.isfinite(x) for _, e in ran for x in e) and all(
        p < 0.0 for _, e in ran for p in e[1::3])


def measure(binary, args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    out = ledger(binary, ["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    if out["lanes"] != int(LANES):
        raise RuntimeError(f"ledger ran {out['lanes']} lanes, not {LANES}")
    reference = load_reference()
    attempted, failed = out["attempted"], out["failed"]
    for workload in workloads:
        energies = out["energies"].get(workload, [])
        if not energies_ok(workload, args.seed, energies, reference):
            print(f"{workload}: final energies miss the reference",
                  file=sys.stderr)
            failed = attempted
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": out["metrics"]}
    print(json.dumps(result))
    return 0


def fingerprint(binary, workload, seed, lanes):
    out = ledger(binary, ["--workload", workload, "--seed", str(seed),
                          "--exact"], lanes=lanes)
    if out["failed"] or not out["metrics"]:
        raise RuntimeError(f"{workload}: exact run failed")
    return out["metrics"], out["energies"][workload]


def check_determinism(binary, args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    labels = ["lanes=2 #1", "lanes=2 #2", "lanes=1"]
    failures = 0
    for workload in workloads:
        runs = [fingerprint(binary, workload, args.seed, lanes)
                for lanes in (LANES, LANES, "1")]
        metrics, energies = runs[0]
        differ = 0
        for label, (other, other_energies) in zip(labels[1:], runs[1:]):
            for name, value in metrics.items():
                if other.get(name) != value:
                    differ += 1
                    print(f"{workload}: {name} differs ({label}): "
                          f"{other.get(name)} vs {value}")
            # The energy diagnostics are parallel reductions whose summation
            # order follows the lane count: across lane counts they agree to
            # rounding, not bit for bit.
            same = (close(other_energies, energies) if label == "lanes=1"
                    else other_energies == energies)
            if not same:
                differ += 1
                print(f"{workload}: final energies differ ({label})")
        failures += differ
        print(f"{workload}: {len(metrics)} exact metrics and final energies "
              f"{'identical' if differ == 0 else 'DIFFER'} across "
              f"{', '.join(labels)}")
    return 0 if failures == 0 else 1


def write_reference(binary, first, last):
    fresh = {workload: {str(seed): fingerprint(binary, workload, seed, LANES)[1]
                        for seed in range(first, last + 1)}
             for workload in WORKLOADS}
    reference = load_reference()
    for workload, seeds in fresh.items():
        reference.setdefault(workload, {}).update(seeds)
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--hook-cost", action="store_true")
    parser.add_argument("--write-reference", type=int, nargs=2,
                        metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    try:
        binary = build()
        if args.check_determinism:
            return check_determinism(binary, args)
        if args.write_reference:
            return write_reference(binary, *args.write_reference)
        if args.hook_cost:
            ledger(binary, ["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--hook-cost"])
            return 0
        return measure(binary, args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as error:
        print(f"perfledger: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
