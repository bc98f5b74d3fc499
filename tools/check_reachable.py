#!/usr/bin/env python3
"""Link-time reachability audit of libjungle.

Every strong function the library defines should be reached by some binary
the repository builds. This script builds the tree with one section per
function and per datum, then links every binary again against the whole
library with section garbage collection on, and reads which sections the
linker removed. A function whose section no binary keeps is reached by
nothing: dead code. The script exits 1 when there is any.

  * Build: -O0 -fno-inline -ffunction-sections -fdata-sections, in its own
    build directory (default build-reach). Without -fdata-sections, shared
    switch tables in .rodata keep otherwise dead functions alive.
  * Link: each binary with -Wl,--whole-archive libjungle.a, --gc-sections
    and --print-gc-sections, so what one binary keeps does not depend on
    which archive members another pulled in.
  * Count: the strong global functions of libjungle (nm type T). Inline
    and template code (weak, type W) is not covered. Constructor and
    destructor aliases share a section and count once.

Binaries fall in three groups. Production: every examples/*.cpp,
tools/*.cpp and the perf ledger (perfledger/ledger.cpp, compiled here
against the same library). Tests: tests/test_*.cpp. Benches:
bench/bench_*.cpp. Functions reached by tests or benches but by no
production binary are printed for information; they are not an error.

Usage: check_reachable.py [--build-dir DIR] [--jobs N]
"""

import argparse
import collections
import os
import re
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LIBRARY = "libjungle.a"
WHOLE = f"-Wl,--whole-archive {LIBRARY} -Wl,--no-whole-archive"
GC = ["-Wl,--gc-sections", "-Wl,--print-gc-sections"]

# objdump -t: VALUE FLAGS(7 chars) SECTION<tab>SIZE [.hidden] NAME
SYMBOL = re.compile(r"^[0-9a-f]+ (.{7}) (\S+)\t[0-9a-f]+\s+(?:\.hidden\s+)?(\S+)$")
MEMBER = re.compile(r"^(\S+):\s+file format")
REMOVED = re.compile(r"removing unused section '([^']+)' in file '([^']+)'")


def run(cmd, cwd=None, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, text=True, **kw)


def stems(directory, prefix=""):
    path = os.path.join(ROOT, directory)
    return sorted(name[:-4] for name in os.listdir(path)
                  if name.endswith(".cpp") and name.startswith(prefix))


def build(build_dir, jobs):
    run(["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Debug",
         f"-DCMAKE_CXX_FLAGS_DEBUG={FLAGS}"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", str(jobs)],
        stdout=subprocess.DEVNULL)


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    raise SystemExit(f"check_reachable: {key} not in the CMake cache")


def link_commands(build_dir):
    """name -> argv of each CMake executable's link line, with the whole
    library pulled in and section GC on."""
    commands = {}
    files = os.path.join(build_dir, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        link = os.path.join(files, entry, "link.txt")
        if not entry.endswith(".dir") or entry == "jungle.dir":
            continue
        if not os.path.exists(link):
            continue
        with open(link) as text:
            line = text.readline().strip()
        if f" {LIBRARY} " not in f" {line} ":
            continue
        line = f" {line} ".replace(f" {LIBRARY} ", f" {WHOLE} ").strip()
        commands[entry[:-4]] = shlex.split(line) + GC
    # The ledger lives in its own CMake project; compile it here against
    # the same library so all ten production binaries share one archive.
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    obj = os.path.join(build_dir, "ledger.audit.o")
    run([cxx, "-std=c++20", *FLAGS.split(), "-I", os.path.join(ROOT, "src"),
         f'-DJUNGLE_SOURCE_DIR="{ROOT}"', "-c",
         os.path.join(ROOT, "perfledger", "ledger.cpp"), "-o", obj])
    commands["ledger"] = [cxx, obj, "-o", "ledger", *shlex.split(WHOLE),
                          "-pthread", *GC]
    return commands


def library_functions(build_dir):
    """(member, section) -> mangled names of libjungle's strong functions."""
    out = run(["objdump", "-t", LIBRARY], cwd=build_dir,
              capture_output=True).stdout
    members = run(["ar", "t", LIBRARY], cwd=build_dir,
                  capture_output=True).stdout.split()
    dupes = [m for m, n in collections.Counter(members).items() if n > 1]
    if dupes:
        raise SystemExit(f"check_reachable: archive members share a name, "
                         f"the linker's report would be ambiguous: {dupes}")
    functions = collections.defaultdict(list)
    member = None
    for line in out.splitlines():
        if (m := MEMBER.match(line)):
            member = m.group(1)
            continue
        m = SYMBOL.match(line)
        if not m or member is None:
            continue
        flags, section, name = m.groups()
        strong_global = flags[0] == "g" and flags[1] != "w"
        if strong_global and flags[6] == "F" and section.startswith(".text"):
            functions[(member, section)].append(name)
    return functions


def removed_sections(build_dir, argv, out_dir):
    """Sections of libjungle the linker dropped from this binary."""
    argv = list(argv)
    argv[argv.index("-o") + 1] = os.path.join(out_dir, "a.out")
    proc = subprocess.run(argv, cwd=build_dir, text=True,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"check_reachable: link failed:\n{proc.stderr}")
    removed = set()
    for m in REMOVED.finditer(proc.stderr):
        section, where = m.groups()
        if where.startswith(LIBRARY + "("):
            removed.add((where[len(LIBRARY) + 1:-1], section))
    return removed


def demangle(names):
    out = run(["c++filt"], input="\n".join(names), capture_output=True).stdout
    return dict(zip(names, out.splitlines()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-reach"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    build(build_dir, args.jobs)
    functions = library_functions(build_dir)
    commands = link_commands(build_dir)
    groups = {name: "production"
              for name in stems("examples") + stems("tools") + ["ledger"]}
    groups.update({name: "test" for name in stems("tests", "test_")})
    groups.update({name: "bench" for name in stems("bench", "bench_")})
    missing = set(groups) - set(commands)
    if missing:
        raise SystemExit(f"check_reachable: no link line for {sorted(missing)}")

    reached_by = collections.defaultdict(set)  # function -> groups
    with tempfile.TemporaryDirectory() as out_dir:
        for name, group in sorted(groups.items()):
            removed = removed_sections(build_dir, commands[name], out_dir)
            for key in functions:
                if key not in removed:
                    reached_by[key].add(group)

    plain = demangle(sorted({n for names in functions.values() for n in names}))

    def label(key):
        return f"{key[0]}: {min(plain[n] for n in functions[key])}"

    unreached = sorted(label(k) for k in functions if not reached_by[k])
    test_only = sorted(label(k) for k in functions
                       if reached_by[k] and "production" not in reached_by[k])
    count = collections.Counter(groups.values())
    print(f"libjungle: {len(functions)} strong functions; "
          f"{count['production']} production binaries, {count['test']} "
          f"tests, {count['bench']} benches")
    print(f"reached only by tests or benches: {len(test_only)}")
    for line in test_only:
        print(f"  {line}")
    print(f"reached by nothing: {len(unreached)}")
    for line in unreached:
        print(f"  {line}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
