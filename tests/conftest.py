"""Shared helpers: canned programs, random program generation, differential runners."""

import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from reference_rv32 import RefCpu  # noqa: E402
from region_check import CheckedBlocks  # noqa: E402

from tmrv32 import encode as E  # noqa: E402
from tmrv32 import pipeline  # noqa: E402
from tmrv32.kernel import Kernel, SystemConfig  # noqa: E402

SCRATCH_BASE = 0x4000  # data area used by generated and canned programs


def pytest_addoption(parser):
    parser.addoption(
        "--check-regions", action="store_true",
        help="check every region call against the per-cycle loop (see region_check.py)",
    )


def pytest_configure(config):
    if config.getoption("--check-regions"):
        pipeline._blocks = CheckedBlocks(log=False)


@pytest.fixture(autouse=True)
def _fresh_hotness_counts(monkeypatch):
    """Every test counts entries toward translation from zero: the counts are shared by
    every kernel of the process, so without this a test that starts from an empty
    ``pipeline._blocks`` would make its regions where earlier tests left off."""
    monkeypatch.setattr(pipeline, "_entries", {})


def make_kernel(image, **overrides):
    if hasattr(image, "assemble"):
        image = image.assemble()
    return Kernel(SystemConfig(image=image, **overrides))


def run_kernel(image):
    """Run the pipelined simulator to its halt; returns (regs, mem, halt reason)."""
    kernel = Kernel(SystemConfig(image=image))
    result = kernel.run()
    return kernel.arch.reg_values(), kernel.sram.voted_bytes(), result.halt


def run_reference(image, max_steps=100_000):
    """Run the independent oracle interpreter on the same image."""
    cpu = RefCpu()
    cpu.load(0, image)
    reason = cpu.run(max_steps)
    return list(cpu.x), bytes(cpu.mem), reason


# ---------------------------------------------------------------------------
# canned programs
# ---------------------------------------------------------------------------


def mini_elf(segments, entry):
    """Hand-built ELF32 (little-endian, RISC-V) with the given (paddr, data, memsz) segments."""
    ehsize, phentsize = 52, 32
    phoff = ehsize
    header = b"\x7fELF" + bytes([1, 1, 1, 0]) + bytes(8)
    header += struct.pack(
        "<HHIIIIIHHHHHH",
        2, 243, 1, entry, phoff, 0, 0, ehsize, phentsize, len(segments), 0, 0, 0,
    )
    data_off = phoff + phentsize * len(segments)
    phdrs = b""
    payload = b""
    for paddr, data, memsz in segments:
        phdrs += struct.pack(
            "<IIIIIIII", 1, data_off + len(payload), paddr, paddr, len(data), memsz, 5, 4
        )
        payload += data
    return header + phdrs + payload


def alu_block_program(n=10):
    """n back-to-back ALU instructions, then ebreak; no loads, no branches."""
    prog = E.Program()
    prog.emit(E.addi(1, 0, 1))
    for i in range(n - 1):
        prog.emit(E.add(2 + (i % 8), 1, 1 + (i % 8)))
    prog.emit(E.ebreak())
    return prog


def acceptance_program():
    """The 50-instruction exerciser used by the injection-sweep acceptance runs.

    Ten loop iterations of ALU/MUL/DIV/load/store work, then GPIO and UART
    activity. Deliberately avoids reading the SEU counters (their values differ
    between golden and fault runs by design) and the cycle CSR.
    """
    p = E.Program()
    p.emit(E.lui(28, SCRATCH_BASE >> 12))  # x28 -> scratch base
    p.emit(E.addi(1, 0, 1))
    p.emit(E.addi(2, 0, 2))
    p.emit(E.addi(3, 0, -5))
    p.emit(E.lui(4, 0x12345))
    p.emit(E.addi(4, 4, 0x678))
    p.emit(E.addi(5, 0, 10))  # loop counter
    p.emit(E.addi(6, 0, 0))
    p.label("loop")
    p.emit(E.add(6, 6, 1))
    p.emit(E.mul(7, 6, 2))
    p.emit(E.sub(8, 7, 3))
    p.emit(E.xor(9, 8, 4))
    p.emit(E.slli(10, 9, 3))
    p.emit(E.srli(11, 10, 2))
    p.emit(E.sw(7, 28, 0))
    p.emit(E.lw(12, 28, 0))
    p.emit(E.sb(9, 28, 5))
    p.emit(E.lbu(13, 28, 5))
    p.emit(E.div(14, 7, 2))
    p.emit(E.rem(15, 7, 3))
    p.emit(E.addi(5, 5, -1))
    p.branch(E.bne, 5, 0, "loop")
    p.emit(E.sra(16, 9, 2))
    p.emit(E.slt(17, 3, 1))
    p.emit(E.sltu(18, 1, 3))
    p.emit(E.mulh(19, 4, 4))
    p.emit(E.divu(20, 9, 2))
    p.emit(E.remu(21, 9, 2))
    p.emit(E.and_(22, 9, 4))
    p.emit(E.or_(23, 9, 4))
    p.emit(E.andi(24, 9, 0x55))
    p.emit(E.sh(10, 28, 8))
    p.emit(E.lhu(25, 28, 8))
    p.emit(E.lh(26, 28, 8))
    # GPIO: drive a pattern
    p.emit(E.lui(29, 0x10000))
    p.emit(E.addi(17, 0, 0x7F))
    p.emit(E.sw(17, 29, 0))  # direction
    p.emit(E.sw(17, 29, 4))  # output value
    p.emit(E.lw(27, 29, 8))  # read pins back
    # UART: transmit two bytes
    p.emit(E.lui(30, 0x10001))
    p.emit(E.addi(31, 0, 0x48))
    p.emit(E.sw(31, 30, 0))
    p.emit(E.addi(31, 0, 0x49))
    p.emit(E.sw(31, 30, 0))
    p.emit(E.ebreak())
    return p


def uart_hello_program(text=b"OK"):
    p = E.Program()
    p.emit(E.lui(10, 0x10001))
    for byte in text:
        p.emit(E.addi(11, 0, byte))
        p.emit(E.sw(11, 10, 0))
    p.emit(E.ebreak())
    return p


# ---------------------------------------------------------------------------
# random program generation for differential testing
# ---------------------------------------------------------------------------

_EDGE_VALUES = (0, 1, 2, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFF, 0x8000, 5, 100)

_RR_OPS = (
    E.add, E.sub, E.xor, E.or_, E.and_, E.sll, E.srl, E.sra, E.slt, E.sltu,
    E.mul, E.mulh, E.mulhu, E.mulhsu, E.div, E.divu, E.rem, E.remu,
)
_IMM_OPS = (E.addi, E.xori, E.ori, E.andi, E.slti, E.sltiu)
_SHIFT_OPS = (E.slli, E.srli, E.srai)
_BRANCH_OPS = (E.beq, E.bne, E.blt, E.bge, E.bltu, E.bgeu)
_LOADS = ((E.lb, 1), (E.lh, 2), (E.lw, 4), (E.lbu, 1), (E.lhu, 2))
_STORES = ((E.sb, 1), (E.sh, 2), (E.sw, 4))


def gen_random_program(rng, n=28, compressed=True, control_flow=True):
    """A random bounded RV32IMC program ending in ebreak.

    Straight-line with optional forward-only branches and jumps (always
    terminating); loads and stores stay inside an aligned scratch window; operand
    setup biases toward arithmetic edge values. Returns assembled bytes.
    """
    regs = list(range(1, 16))  # x28 is reserved as the scratch-window pointer
    items = []  # ("i32", word) | ("i16", half) | ("br", op, rs1, rs2, skip) | ("jal", rd, skip)

    def rnd_reg():
        return int(regs[rng.integers(len(regs))])

    items.append(("i32", E.lui(28, SCRATCH_BASE >> 12)))
    body = 0
    while body < n:
        kind = rng.random()
        if kind < 0.14:
            for word in E.li32(rnd_reg(), int(_EDGE_VALUES[rng.integers(len(_EDGE_VALUES))])
                               if rng.random() < 0.7 else int(rng.integers(1 << 32))):
                items.append(("i32", word))
        elif kind < 0.40:
            op = _RR_OPS[rng.integers(len(_RR_OPS))]
            items.append(("i32", op(rnd_reg(), rnd_reg(), rnd_reg())))
        elif kind < 0.55:
            op = _IMM_OPS[rng.integers(len(_IMM_OPS))]
            items.append(("i32", op(rnd_reg(), rnd_reg(), int(rng.integers(-2048, 2048)))))
        elif kind < 0.62:
            op = _SHIFT_OPS[rng.integers(len(_SHIFT_OPS))]
            items.append(("i32", op(rnd_reg(), rnd_reg(), int(rng.integers(32)))))
        elif kind < 0.68:
            items.append(("i32", E.lui(rnd_reg(), int(rng.integers(1 << 20)))))
        elif kind < 0.71:
            items.append(("i32", E.auipc(rnd_reg(), int(rng.integers(16)))))
        elif kind < 0.82:
            op, width = _STORES[rng.integers(3)] if rng.random() < 0.5 else _LOADS[rng.integers(5)]
            offset = int(rng.integers(0, 256)) * width
            if (op, width) in _STORES:
                items.append(("i32", op(rnd_reg(), 28, offset)))
            else:
                items.append(("i32", op(rnd_reg(), 28, offset)))
        elif kind < 0.90 and compressed:
            pick = rng.integers(4)
            if pick == 0:
                items.append(("i16", E.c_li(rnd_reg(), int(rng.integers(-32, 32)))))
            elif pick == 1:
                r = rnd_reg()
                items.append(("i16", E.c_addi(r, int(rng.integers(-32, 32)) or 1)))
            elif pick == 2:
                items.append(("i16", E.c_mv(rnd_reg(), rnd_reg())))
            else:
                items.append(("i16", E.c_add(rnd_reg(), rnd_reg())))
        elif control_flow:
            skip = int(rng.integers(1, 5))
            if rng.random() < 0.7:
                op = _BRANCH_OPS[rng.integers(len(_BRANCH_OPS))]
                items.append(("br", op, rnd_reg(), rnd_reg(), skip))
            else:
                items.append(("jal", rnd_reg() if rng.random() < 0.5 else 0, skip))
        else:
            items.append(("i32", E.nop()))
        body += 1
    items.append(("i32", E.ebreak()))
    # ensure branch skips stay inside the program
    max_index = len(items) - 1
    sizes = []
    for it in items:
        sizes.append(2 if it[0] == "i16" else 4)
    addrs = []
    addr = 0
    for s in sizes:
        addrs.append(addr)
        addr += s
    out = bytearray()
    for i, it in enumerate(items):
        if it[0] == "i32":
            out += it[1].to_bytes(4, "little")
        elif it[0] == "i16":
            out += it[1].to_bytes(2, "little")
        else:
            target = min(i + it[-1] + 1, max_index)
            offset = addrs[target] - addrs[i]
            if it[0] == "br":
                out += it[1](it[2], it[3], offset).to_bytes(4, "little")
            else:
                out += E.jal(it[1], offset).to_bytes(4, "little")
    return bytes(out)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
