"""Programs the benchmark runs.

The loop program's expected result comes from :mod:`model`, which shares no
code with the simulator, so a simulator that executes the loop wrongly fails
the output check even when it is fast.
"""

import hashlib

import numpy as np

from tmrv32 import encode as E

from model import SLOTS, WINDOW, loop_model

SRAM_BYTES = 0x8000
BUF = 0x4000  # data buffer the loop walks
CHECKSUM_ADDR = BUF + WINDOW

ALU_OPS = ("add", "sub", "xor")
MULDIV_OPS = ("divu", "remu", "div", "rem", "mulhu")
BRANCH_OPS = ("blt", "bltu", "bge", "bgeu")
_ENC = {
    "add": E.add, "sub": E.sub, "xor": E.xor,
    "divu": E.divu, "remu": E.remu, "div": E.div, "rem": E.rem, "mulhu": E.mulhu,
    "blt": E.blt, "bltu": E.bltu, "bge": E.bge, "bgeu": E.bgeu,
}


class LoopProgram:
    """A seeded load/store, ALU, MUL/DIV and branch loop over a buffer in SRAM.

    Each iteration loads ``SLOTS`` words, transforms them with seeded ALU and
    MUL/DIV operations, folds them into a checksum through a data-dependent
    branch, stores them back, and does one byte store and one halfword load.
    The checksum lands at ``CHECKSUM_ADDR`` before ``ebreak``.
    """

    def __init__(self, rng, iterations):
        self.iterations = iterations
        self.a = int(rng.integers(1 << 32))
        self.b = int(rng.integers(1 << 32)) | 1
        self.divisor = int(rng.integers(1, 1 << 16))
        self.check0 = int(rng.integers(1 << 32))
        self.alu = [ALU_OPS[i] for i in rng.integers(len(ALU_OPS), size=SLOTS)]
        self.muldiv = [MULDIV_OPS[i] for i in rng.integers(len(MULDIV_OPS), size=SLOTS)]
        self.branch = [BRANCH_OPS[i] for i in rng.integers(len(BRANCH_OPS), size=SLOTS)]
        self.data = [int(w) for w in rng.integers(0, 1 << 32, size=WINDOW // 4, dtype=np.uint64)]

    def image(self):
        p = E.Program()
        p.emit(E.li32(28, BUF), E.li32(6, self.a), E.li32(7, self.b))
        p.emit(E.li32(13, self.divisor), E.li32(20, self.check0))
        p.emit(E.li32(5, self.iterations), E.addi(22, 0, 0))
        p.label("loop")
        p.emit(E.add(29, 28, 22))
        for k in range(SLOTS):
            p.emit(E.lw(10, 29, 4 * k))
            p.emit(_ENC[self.alu[k]](10, 10, 6))
            p.emit(E.mul(11, 10, 7))
            p.emit(_ENC[self.muldiv[k]](12, 11, 13))
            p.branch(_ENC[self.branch[k]], 12, 20, f"skip{k}")
            p.emit(E.xor(20, 20, 12))
            p.label(f"skip{k}")
            p.emit(E.add(20, 20, 11))
            p.emit(E.sw(10, 29, 4 * k))
        p.emit(E.sb(20, 29, 1), E.lhu(14, 29, 2), E.add(20, 20, 14))
        p.emit(E.addi(22, 22, 4 * SLOTS), E.andi(22, 22, WINDOW - 1))
        p.emit(E.addi(5, 5, -1))
        p.branch(E.bne, 5, 0, "loop")
        p.emit(E.sw(20, 28, WINDOW), E.ebreak())
        code = p.assemble()
        if len(code) > BUF:
            raise ValueError("loop program overlaps its data buffer")
        words = b"".join(w.to_bytes(4, "little") for w in self.data)
        return code + bytes(BUF - len(code)) + words

    def expected(self):
        """(checksum, sha256 of the voted 32 kB SRAM image after the run)."""
        mem, check = loop_model(self)
        image = bytearray(SRAM_BYTES)
        code = self.image()[:BUF]
        image[: len(code)] = code
        image[BUF:CHECKSUM_ADDR] = b"".join(w.to_bytes(4, "little") for w in mem)
        image[CHECKSUM_ADDR : CHECKSUM_ADDR + 4] = check.to_bytes(4, "little")
        return check, hashlib.sha256(bytes(image)).hexdigest()


def acceptance_program():
    """The 229-cycle exerciser of the acceptance sweeps (criteria 1, 2 and 4).

    Ten iterations of ALU/MUL/DIV/load/store work, then GPIO and UART activity.
    It never reads the SEU counters, so golden and faulted runs agree on them.
    """
    p = E.Program()
    p.emit(E.lui(28, BUF >> 12))
    p.emit(E.addi(1, 0, 1), E.addi(2, 0, 2), E.addi(3, 0, -5))
    p.emit(E.lui(4, 0x12345), E.addi(4, 4, 0x678))
    p.emit(E.addi(5, 0, 10), E.addi(6, 0, 0))
    p.label("loop")
    p.emit(E.add(6, 6, 1), E.mul(7, 6, 2), E.sub(8, 7, 3), E.xor(9, 8, 4))
    p.emit(E.slli(10, 9, 3), E.srli(11, 10, 2))
    p.emit(E.sw(7, 28, 0), E.lw(12, 28, 0), E.sb(9, 28, 5), E.lbu(13, 28, 5))
    p.emit(E.div(14, 7, 2), E.rem(15, 7, 3), E.addi(5, 5, -1))
    p.branch(E.bne, 5, 0, "loop")
    p.emit(E.sra(16, 9, 2), E.slt(17, 3, 1), E.sltu(18, 1, 3), E.mulh(19, 4, 4))
    p.emit(E.divu(20, 9, 2), E.remu(21, 9, 2), E.and_(22, 9, 4), E.or_(23, 9, 4))
    p.emit(E.andi(24, 9, 0x55), E.sh(10, 28, 8), E.lhu(25, 28, 8), E.lh(26, 28, 8))
    p.emit(E.lui(29, 0x10000), E.addi(17, 0, 0x7F))
    p.emit(E.sw(17, 29, 0), E.sw(17, 29, 4), E.lw(27, 29, 8))
    p.emit(E.lui(30, 0x10001), E.addi(31, 0, 0x48), E.sw(31, 30, 0))
    p.emit(E.addi(31, 0, 0x49), E.sw(31, 30, 0), E.ebreak())
    return p.assemble()
