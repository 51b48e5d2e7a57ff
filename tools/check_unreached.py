#!/usr/bin/env python3
"""Lists the pfar:: functions of the product libraries that no product
binary reaches, and fails unless each one is on the allowlist.

    python3 tools/check_unreached.py [--build-dir DIR] [--jobs N]
                                     [--allowlist FILE] [--list]

The product binaries are every program under bench/, tools/ and examples/
plus perfbench (its own CMake project). Both trees are configured with

    CMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections -fno-inline
    CMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

so each function sits in its own section, the linker drops every section
no kept code references, and a function that is only inlined in its own
file still gets a body of its own. A function counts as reached when its
symbol survives in at least one product binary. Symbols are compared by
their mangled names with GCC's `.cold`/`.isra.N`/... clone suffixes cut
off; only names in namespace pfar (not std:: instantiations over pfar
types) are considered.

The allowlist (tools/unreached_allowlist.txt) holds one qualified name
per line, written as `c++filt -p` prints it (no parameter list) without
ABI tags such as `[abi:cxx11]`, then ` -- ` and the reason it stays in a
product library although no product binary calls it. An entry matches every overload of that name. The run
fails when an unreached function has no entry, when an entry has no
reason, and when an entry matches no unreached function (a stale entry
would otherwise hide a later regression). --list prints every unreached
function and exits 0.

Needs cmake, make, a C++ compiler, nm and c++filt on PATH. The builds go
to DIR (default build-unreached) and DIR/perfbench.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT_DIRS = ("bench", "tools", "examples")
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections -fno-inline",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
# A function in namespace pfar, a member of a pfar class, or a lambda or
# local class inside one: _ZN / _ZZN, optional cv- and ref-qualifiers, then
# the first nested-name component `4pfar`.
PFAR_FUNCTION = re.compile(r"^_ZZ?N[rVKRO]*4pfar")
TEXT_TYPES = set("TtWw")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          text=True, **kw).stdout


def build(build_dir, jobs):
    perf_dir = build_dir / "perfbench"
    run(["cmake", "-S", str(ROOT), "-B", str(build_dir),
         "-G", "Unix Makefiles", *FLAGS])
    for d in PRODUCT_DIRS:
        subprocess.run(["make", "-C", str(build_dir / d), f"-j{jobs}"],
                       check=True, stdout=subprocess.DEVNULL)
    run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(perf_dir),
         "-G", "Unix Makefiles", *FLAGS])
    subprocess.run(["make", "-C", str(perf_dir), f"-j{jobs}",
                    "pfar_perfbench"], check=True, stdout=subprocess.DEVNULL)
    binaries = [perf_dir / "pfar_perfbench"]
    for d in PRODUCT_DIRS:
        for p in sorted((build_dir / d).iterdir()):
            if p.is_file() and os.access(p, os.X_OK):
                binaries.append(p)
    libs = sorted(build_dir.glob("src/*/libpfar_*.a"))
    if not libs:
        raise SystemExit(f"{build_dir}: no product libraries were built")
    return libs, binaries


def pfar_text_symbols(paths):
    """Mangled names (clone suffixes cut) of the pfar:: functions defined
    in `paths`."""
    names = set()
    out = run(["nm", "--defined-only", *map(str, paths)])
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 3 or fields[1] not in TEXT_TYPES:
            continue
        name = fields[2].split(".", 1)[0]
        if PFAR_FUNCTION.match(name):
            names.add(name)
    return names


def demangle(names, no_params):
    cmd = ["c++filt"] + (["-p"] if no_params else [])
    out = run(cmd, input="\n".join(names) + "\n").splitlines()
    if no_params:
        out = [ABI_TAG.sub("", name) for name in out]
    return out


def read_allowlist(path):
    entries, errors = {}, []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" -- ")
        if not sep or not reason.strip():
            errors.append(f"{path.name}:{n}: no reason given: {line}")
            continue
        entries[name.strip()] = n
    return entries, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", default=str(ROOT / "build-unreached"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--allowlist",
                    default=str(ROOT / "tools" / "unreached_allowlist.txt"))
    ap.add_argument("--list", action="store_true",
                    help="print every unreached function and exit 0")
    args = ap.parse_args()

    libs, binaries = build(Path(args.build_dir).resolve(), args.jobs)
    unreached = sorted(pfar_text_symbols(libs) -
                       pfar_text_symbols(binaries))
    full = demangle(unreached, no_params=False)
    short = demangle(unreached, no_params=True)
    print(f"{len(unreached)} pfar:: functions in {len(libs)} product "
          f"libraries reached by none of {len(binaries)} product binaries")
    if args.list:
        for name in sorted(set(full)):
            print(f"  {name}")
        return 0

    entries, errors = read_allowlist(Path(args.allowlist))
    used = set()
    for sig, name in sorted(set(zip(full, short))):
        if name in entries:
            used.add(name)
        else:
            errors.append(f"unreached and not allowlisted: {sig}")
    for name, n in sorted(entries.items(), key=lambda e: e[1]):
        if name not in used:
            errors.append(f"{Path(args.allowlist).name}:{n}: stale entry, "
                          f"{name} is reached or gone")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
