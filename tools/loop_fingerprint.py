#!/usr/bin/env python3
"""Fingerprints the functions of one object file's .text section.

    python3 tools/loop_fingerprint.py OBJECT [--binary BIN] [--check-aligned]

For every function the object defines in `.text` (its own code: not the
COMDAT copies of inline library functions, which the linker may take from
another object, nor the cold fragments GCC moves to `.text.unlikely`) it
prints the size, a hash of the address-normalized disassembly and the start
address mod 64. With --binary the addresses and the disassembly are those
of the linked program (the object's .text is located through its one global
function); without it, those of the object.

Used on src/simnet's cycle_loop.cpp object (docs/simulation_engine.md,
"Source layout"): two builds whose tables are identical run the same loop
code at the same 64-byte offsets. --check-aligned exits 1 unless the
section and every function start at a multiple of 64.

Needs binutils (objdump, nm, readelf) and c++filt on PATH.
"""

import argparse
import hashlib
import re
import subprocess
import sys

ALIGN = 64


def run(cmd):
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def text_functions(obj):
    """(offset, size, binding, mangled name) of every .text function."""
    funcs = []
    for line in run(["objdump", "-t", obj]).splitlines():
        # 0000000000000100 l     F .text\t0000000000000648 _ZZN...
        m = re.match(r"^([0-9a-f]+) (.{7}) \.text\t([0-9a-f]+) (\S+)$", line)
        if m and "F" in m.group(2):
            funcs.append((int(m.group(1), 16), int(m.group(3), 16),
                          m.group(2)[0], m.group(4)))
    return sorted(funcs)


def text_alignment(obj):
    for line in run(["readelf", "-SW", obj]).splitlines():
        fields = line.split()
        if ".text" in fields:
            return int(fields[-1])
    raise SystemExit(f"{obj}: no .text section")


def section_base(funcs, binary):
    """The address the linker gave the object's .text in `binary`."""
    anchor = next((f for f in funcs if f[2] == "g"), None)
    if anchor is None:
        raise SystemExit("no global function to locate the section by")
    for line in run(["nm", "--defined-only", binary]).splitlines():
        addr, _, name = line.split(maxsplit=2)
        if name == anchor[3]:
            return int(addr, 16) - anchor[0]
    raise SystemExit(f"{binary}: {anchor[3]} not found")


# Absolute addresses and RIP displacements move with the rest of the
# program; the symbolic <name+offset> annotations objdump adds do not.
_ADDR = re.compile(r"^\s*[0-9a-f]+:\s*")
_TARGET = re.compile(r"\b[0-9a-f]+ (<[^>]*>)")
_RIP = re.compile(r"-?0x[0-9a-f]+\(%rip\)")
_COMMENT = re.compile(r"\s*#.*$")


def normalized_disassembly(path, start, size, relocs):
    cmd = ["objdump", "-d", "-w", "--no-show-raw-insn",
           f"--start-address={start}", f"--stop-address={start + size}", path]
    if relocs:
        cmd.insert(2, "-r")
    lines = []
    body = False
    for line in run(cmd).splitlines():
        if re.match(r"^[0-9a-f]+ <.*>:$", line):
            body = True
            continue
        if not body or not line.strip():
            continue
        line = _ADDR.sub("", line)
        line = _COMMENT.sub("", line)
        line = _TARGET.sub(r"\1", line)
        line = _RIP.sub("(%rip)", line)
        lines.append(line.strip())
    return "\n".join(lines)


def demangle(names):
    out = run(["c++filt"] + names) if names else ""
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("object")
    ap.add_argument("--binary", help="linked program holding the object")
    ap.add_argument("--check-aligned", action="store_true",
                    help="exit 1 unless every function starts at a "
                         "multiple of 64")
    args = ap.parse_args()

    funcs = text_functions(args.object)
    if not funcs:
        raise SystemExit(f"{args.object}: no functions in .text")
    base = section_base(funcs, args.binary) if args.binary else 0
    where = args.binary or args.object
    names = demangle([f[3] for f in funcs])
    misaligned = []
    print(f"{'size':>7}  {'disasm sha1':12}  {'mod64':>5}  function")
    for (offset, size, _, _), name in zip(funcs, names):
        addr = base + offset
        text = normalized_disassembly(where, addr, size,
                                      relocs=args.binary is None)
        digest = hashlib.sha1(text.encode()).hexdigest()[:12]
        # Lambdas share their long enclosing signature: keep the tail.
        short = name if len(name) <= 90 else "..." + name[-87:]
        print(f"{size:7d}  {digest}  {addr % ALIGN:5d}  {short}")
        if addr % ALIGN:
            misaligned.append(name)
    if args.check_aligned:
        align = text_alignment(args.object)
        if align % ALIGN:
            print(f"FAIL: .text is aligned to {align}, not {ALIGN}",
                  file=sys.stderr)
            return 1
        if misaligned:
            print(f"FAIL: {len(misaligned)} functions off a {ALIGN}-byte "
                  "boundary", file=sys.stderr)
            return 1
        print(f"ok: {len(funcs)} functions at multiples of {ALIGN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
