#!/usr/bin/env python3
"""Self-tests for tools/loop_fingerprint.py's line normalization.

A fingerprint must not move with what the build path changes and must move
with the code:

  * relocated operands -> the objdump annotation of the unrelocated
                          placeholder (`<.LC30+0x1f>`, whose offset follows
                          the length of the string literals, `__FILE__`
                          among them) is dropped; the relocation is kept
  * branch targets     -> `<function+offset>` survives, the address does not
  * RIP displacements  -> dropped
  * a changed opcode   -> a different hash

Invoked by ctest as `python3 loop_fingerprint_test.py <tool-path>`; run
directly it defaults to the tool next to this file's repo layout.
"""

import importlib.util
import os
import sys
import unittest

TOOL = None


def load_tool():
    sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
    spec = importlib.util.spec_from_file_location("loop_fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALL = ("     132:\tcall   137 <.LC30+0x{off}>\t133: R_X86_64_PLT32\t"
        "_ZSt20__throw_length_errorPKc-0x4")
LEA = ("     6a2:\tlea    0x0(%rip),%rdi        # 6a9 <.LC4+0x{off}>\t"
       "6a5: R_X86_64_PC32\t.LC0-0x4")
JMP = "     6a0:\tjmp    638 <_ZN4sync+0x638>"


class LoopFingerprintTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tool = load_tool()

    def test_relocated_annotation_offsets_do_not_hash(self):
        short = [CALL.format(off="1f"), LEA.format(off="3"), JMP]
        long = [CALL.format(off="47"), LEA.format(off="2b"), JMP]
        self.assertEqual(self.tool.digest(short), self.tool.digest(long))

    def test_relocation_target_is_kept(self):
        self.assertEqual(
            self.tool.normalize_line(CALL.format(off="1f")),
            "call R_X86_64_PLT32 _ZSt20__throw_length_errorPKc-0x4")
        self.assertEqual(self.tool.normalize_line(LEA.format(off="3")),
                         "lea    (%rip),%rdi R_X86_64_PC32 .LC0-0x4")
        other = LEA.format(off="3").replace(".LC0-", ".LC1-")
        self.assertNotEqual(self.tool.digest([LEA.format(off="3")]),
                            self.tool.digest([other]))

    def test_branch_target_keeps_its_annotation(self):
        self.assertEqual(self.tool.normalize_line(JMP),
                         "jmp    <_ZN4sync+0x638>")
        moved = JMP.replace("+0x638", "+0x640")
        self.assertNotEqual(self.tool.digest([JMP]),
                            self.tool.digest([moved]))

    def test_rip_displacement_and_comment_do_not_hash(self):
        a = "     400:\tmov    0x1234(%rip),%eax        # 5000 <x>"
        b = "     480:\tmov    0x10(%rip),%eax        # 6000 <y>"
        self.assertEqual(self.tool.digest([a]), self.tool.digest([b]))

    def test_changed_opcode_hashes_differently(self):
        lines = [CALL.format(off="1f"), LEA.format(off="3"), JMP]
        changed = [lines[0], lines[1].replace("lea ", "mov "), lines[2]]
        self.assertNotEqual(self.tool.digest(lines),
                            self.tool.digest(changed))


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        TOOL = sys.argv.pop(1)
    else:
        TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "tools", "loop_fingerprint.py")
    if not os.path.exists(TOOL):
        print(f"tool not found: {TOOL}", file=sys.stderr)
        sys.exit(2)
    unittest.main()
