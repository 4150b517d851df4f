"""Decoder vectors, execution semantics, and differential checks vs. the oracle.

The 32-bit and compressed decode tables below were assembled with an external
assembler (clang --target=riscv32) and frozen: (encoding, (names..., fields...)).
"""

import numpy as np
import pytest

from conftest import gen_random_program, run_kernel, run_reference

from tmrv32 import encode as E
from tmrv32.errors import IllegalInstruction
from tmrv32.isa import ArchState, decode, execute
from tmrv32.kernel import Kernel, SystemConfig

# (encoding, (mnemonic, rd, rs1, rs2, imm)); None = field not meaningful
DECODE32_VECTORS = [
    (0x00100093, ("addi", 1, 0, None, 1)),
    (0x80030293, ("addi", 5, 6, None, -2048)),
    (0xFFFFF3B7, ("lui", 7, None, None, -4096)),
    (0x123451B7, ("lui", 3, None, None, 305418240)),
    (0x01000497, ("auipc", 9, None, None, 16777216)),
    (0x001000EF, ("jal", 1, None, None, 2048)),
    (0xFFDFF06F, ("jal", 0, None, None, -4)),
    (0xFFD280E7, ("jalr", 1, 5, None, -3)),
    (0x00208863, ("beq", None, 1, 2, 16)),
    (0xFE4198E3, ("bne", None, 3, 4, -16)),
    (0x7E62CFE3, ("blt", None, 5, 6, 4094)),
    (0x8083D063, ("bge", None, 7, 8, -4096)),
    (0x00A4E463, ("bltu", None, 9, 10, 8)),
    (0x04C5F063, ("bgeu", None, 11, 12, 64)),
    (0x00510083, ("lb", 1, 2, None, 5)),
    (0xFFA21183, ("lh", 3, 4, None, -6)),
    (0x7FF32283, ("lw", 5, 6, None, 2047)),
    (0x00044383, ("lbu", 7, 8, None, 0)),
    (0x06455483, ("lhu", 9, 10, None, 100)),
    (0x002083A3, ("sb", None, 1, 2, 7)),
    (0x80419023, ("sh", None, 3, 4, -2048)),
    (0x4062A023, ("sw", None, 5, 6, 1024)),
    (0xFFB12093, ("slti", 1, 2, None, -5)),
    (0x7FF23193, ("sltiu", 3, 4, None, 2047)),
    (0x05534293, ("xori", 5, 6, None, 85)),
    (0xFFF46393, ("ori", 7, 8, None, -1)),
    (0x0FF57493, ("andi", 9, 10, None, 255)),
    (0x01F11093, ("slli", 1, 2, None, 31)),
    (0x00125193, ("srli", 3, 4, None, 1)),
    (0x41135293, ("srai", 5, 6, None, 17)),
    (0x003100B3, ("add", 1, 2, 3, None)),
    (0x40628233, ("sub", 4, 5, 6, None)),
    (0x009413B3, ("sll", 7, 8, 9, None)),
    (0x00C5A533, ("slt", 10, 11, 12, None)),
    (0x00F736B3, ("sltu", 13, 14, 15, None)),
    (0x0128C833, ("xor", 16, 17, 18, None)),
    (0x015A59B3, ("srl", 19, 20, 21, None)),
    (0x418BDB33, ("sra", 22, 23, 24, None)),
    (0x01BD6CB3, ("or", 25, 26, 27, None)),
    (0x01EEFE33, ("and", 28, 29, 30, None)),
    (0x022081B3, ("mul", 3, 1, 2, None)),
    (0x02629233, ("mulh", 4, 5, 6, None)),
    (0x029423B3, ("mulhsu", 7, 8, 9, None)),
    (0x02C5B533, ("mulhu", 10, 11, 12, None)),
    (0x02F746B3, ("div", 13, 14, 15, None)),
    (0x0328D833, ("divu", 16, 17, 18, None)),
    (0x035A69B3, ("rem", 19, 20, 21, None)),
    (0x038BFB33, ("remu", 22, 23, 24, None)),
    (0x00000073, ("ecall", None, None, None, None)),
    (0x00100073, ("ebreak", None, None, None, None)),
    (0x0FF0000F, ("fence", None, None, None, None)),
]

# (encoding, (compressed name, expanded mnemonic, rd, rs1, rs2, imm))
DECODE16_VECTORS = [
    (0x4501, ("c.li", "addi", 10, 0, None, 0)),
    (0x54BD, ("c.li", "addi", 9, 0, None, -17)),
    (0x0425, ("c.addi", "addi", 8, 8, None, 9)),
    (0x7139, ("c.addi16sp", "addi", 2, 2, None, -64)),
    (0x0064, ("c.addi4spn", "addi", 9, 2, None, 12)),
    (0x62FD, ("c.lui", "lui", 5, None, None, 126976)),
    (0x4988, ("c.lw", "lw", 10, 11, None, 16)),
    (0xDEF0, ("c.sw", "sw", None, 13, 12, 124)),
    (0x43B2, ("c.lwsp", "lw", 7, 2, None, 12)),
    (0xDDBE, ("c.swsp", "sw", None, 2, 15, 248)),
    (0x829A, ("c.mv", "add", 5, 0, 6, None)),
    (0x93A2, ("c.add", "add", 7, 7, 8, None)),
    (0x8C89, ("c.sub", "sub", 9, 9, 10, None)),
    (0x8DB1, ("c.xor", "xor", 11, 11, 12, None)),
    (0x8ED9, ("c.or", "or", 13, 13, 14, None)),
    (0x8FE1, ("c.and", "and", 15, 15, 8, None)),
    (0x98ED, ("c.andi", "andi", 9, 9, None, -5)),
    (0x02A6, ("c.slli", "slli", 5, 5, None, 9)),
    (0x810D, ("c.srli", "srli", 10, 10, None, 3)),
    (0x85F9, ("c.srai", "srai", 11, 11, None, 30)),
    (0xA095, ("c.j", "jal", 0, None, None, 100)),
    (0x3001, ("c.jal", "jal", 1, None, None, -2048)),
    (0x8602, ("c.jr", "jalr", 0, 12, None, 0)),
    (0x9682, ("c.jalr", "jalr", 1, 13, None, 0)),
    (0xCF7D, ("c.beqz", "beq", None, 14, 0, 254)),
    (0xF381, ("c.bnez", "bne", None, 15, 0, -256)),
    (0x0001, ("c.nop", "addi", 0, 0, None, 0)),
    (0x9002, ("c.ebreak", "ebreak", None, None, None, None)),
]


@pytest.mark.parametrize("raw,expect", DECODE32_VECTORS, ids=lambda v: hex(v) if isinstance(v, int) else v[0])
def test_decode32_vectors(raw, expect):
    mnemonic, rd, rs1, rs2, imm = expect
    ins = decode(raw)
    assert ins.mnemonic == mnemonic
    assert ins.length == 4
    assert ins.cname is None
    if rd is not None:
        assert ins.rd == rd
    if rs1 is not None:
        assert ins.rs1 == rs1
    if rs2 is not None:
        assert ins.rs2 == rs2
    if imm is not None:
        assert ins.imm == imm


@pytest.mark.parametrize("raw,expect", DECODE16_VECTORS, ids=lambda v: hex(v) if isinstance(v, int) else v[0])
def test_decode16_vectors(raw, expect):
    cname, mnemonic, rd, rs1, rs2, imm = expect
    ins = decode(raw)
    assert ins.cname == cname
    assert ins.mnemonic == mnemonic
    assert ins.length == 2
    if rd is not None:
        assert ins.rd == rd
    if rs1 is not None:
        assert ins.rs1 == rs1
    if rs2 is not None:
        assert ins.rs2 == rs2
    if imm is not None:
        assert ins.imm == imm


def test_decode_csr_counters():
    ins = decode(0xC00022F3)  # csrrs x5, cycle, x0
    assert (ins.mnemonic, ins.rd, ins.rs1, ins.csr) == ("csrrs", 5, 0, 0xC00)
    ins = decode(0xC0202373)  # csrrs x6, instret, x0
    assert (ins.mnemonic, ins.rd, ins.rs1, ins.csr) == ("csrrs", 6, 0, 0xC02)


@pytest.mark.parametrize(
    "raw",
    [
        0x00000000,  # all-zero is defined illegal
        0xFFFFFFFF,
        0x0000007F,  # unused opcode space
        0x02000033 | (1 << 25) * 0,  # placeholder guard, see below
    ],
)
def test_decode_illegal(raw):
    if raw == 0x02000033:  # valid mul; skip guard value
        return
    with pytest.raises(IllegalInstruction):
        decode(raw)


def test_decode_illegal_shift_funct7():
    # slli with funct7 != 0 must not decode on RV32
    with pytest.raises(IllegalInstruction):
        decode(0x40011093)


def test_length_rule():
    assert decode(0x00100093).length == 4  # low bits 0b11
    assert decode(0x4501).length == 2
    for raw, _ in DECODE16_VECTORS:
        assert raw & 3 != 3


# ---------------------------------------------------------------------------
# execution semantics
# ---------------------------------------------------------------------------


def exec_one(encoding, regs=None, pc=0):
    """Execute one encoding; returns (arch, next pc, whether control transferred)."""
    arch = ArchState()
    for i, v in (regs or {}).items():
        if i:  # x0 discards writes
            arch.regs[i].write(v)
    ins = decode(encoding)
    rd_write, target, _mem, _halt = execute(arch, ins, pc)
    if rd_write and rd_write[0]:
        arch.regs[rd_write[0]].write(rd_write[1])
    if target is None:
        return arch, (pc + ins.length) & 0xFFFFFFFF, False
    return arch, target, True


def test_addi_from_zero():
    arch, next_pc, _ = exec_one(E.addi(1, 0, 1))
    assert arch.read_reg(1) == 1
    assert next_pc == 4


def test_mul_low_word():
    arch, _, _ = exec_one(E.mul(3, 1, 2), regs={1: 7, 2: 6})
    assert arch.read_reg(3) == 42


# RISC-V M edge semantics: (op, rs1, rs2, expected)
M_EDGE_CASES = [
    ("div", 7, 0, 0xFFFFFFFF),  # divide by zero: all-ones quotient, no trap
    ("div", 0x80000000, 0xFFFFFFFF, 0x80000000),  # MIN / -1 overflow
    ("div", 0xFFFFFFF9, 2, 0xFFFFFFFD),  # -7 / 2 truncates toward zero -> -3
    ("divu", 7, 0, 0xFFFFFFFF),
    ("divu", 0x80000000, 2, 0x40000000),
    ("rem", 7, 0, 7),
    ("rem", 0x80000000, 0xFFFFFFFF, 0),
    ("rem", 0xFFFFFFF9, 2, 0xFFFFFFFF),  # -7 rem 2 -> -1
    ("remu", 7, 0, 7),
    ("remu", 0x80000005, 0x10, 5),
    ("mulh", 0x80000000, 0x80000000, 0x40000000),
    ("mulhu", 0x80000000, 0x80000000, 0x40000000),
    ("mulhu", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE),
    ("mulhsu", 0x80000000, 0x80000000, 0xC0000000),
    ("mul", 0xFFFFFFFF, 0xFFFFFFFF, 1),
]


@pytest.mark.parametrize("op,a,b,expected", M_EDGE_CASES)
def test_m_extension_edge_semantics(op, a, b, expected):
    enc = getattr(E, op)(5, 1, 2)
    arch, _, _ = exec_one(enc, regs={1: a, 2: b})
    assert arch.read_reg(5) == expected


def test_reg0_write_discarded():
    arch, _, _ = exec_one(E.addi(0, 0, 55))
    assert arch.read_reg(0) == 0


def test_branch_taken_and_not():
    _, next_pc, transferred = exec_one(E.beq(1, 2, 32), regs={1: 5, 2: 5}, pc=100)
    assert next_pc == 132 and transferred
    _, next_pc, transferred = exec_one(E.beq(1, 2, 32), regs={1: 5, 2: 6}, pc=100)
    assert next_pc == 104 and not transferred


def test_jalr_clears_low_bit():
    arch, next_pc, _ = exec_one(E.jalr(1, 5, 3), regs={5: 0x1000}, pc=8)
    assert next_pc == 0x1002  # 0x1003 with bit 0 cleared
    assert arch.read_reg(1) == 12


def test_functional_loop_of_addis():
    prog = E.Program()
    prog.emit(E.addi(1, 0, 0))
    for _ in range(10):
        prog.emit(E.addi(1, 1, 1))
    prog.emit(E.ebreak())
    regs, _, reason = run_kernel(prog.assemble())
    assert reason == "ebreak"
    assert regs[1] == 10


def test_store_load_roundtrip_through_sram():
    prog = E.Program()
    prog.emit(E.li32(1, 0xDEADBEEF))
    prog.emit(E.lui(2, 4))  # 0x4000
    prog.emit(E.sw(1, 2, 0x10))
    prog.emit(E.lw(3, 2, 0x10))
    prog.emit(E.ebreak())
    regs, mem, _ = run_kernel(prog.assemble())
    assert regs[3] == 0xDEADBEEF
    assert mem[0x4010:0x4014] == b"\xef\xbe\xad\xde"


def test_factorial_program():
    # 10! via a MUL loop
    prog = E.Program()
    prog.emit(E.addi(1, 0, 1))  # acc
    prog.emit(E.addi(2, 0, 10))  # n
    prog.label("loop")
    prog.emit(E.mul(1, 1, 2))
    prog.emit(E.addi(2, 2, -1))
    prog.branch(E.bne, 2, 0, "loop")
    prog.emit(E.ebreak())
    regs, _, _ = run_kernel(prog.assemble())
    assert regs[1] == 3628800


def test_rdcycle_and_rdinstret_read():
    prog = E.Program()
    prog.emit(E.nop())
    prog.emit(E.nop())
    prog.emit(E.csrrs(5, 0xC02))  # instret
    prog.emit(E.ebreak())
    regs, _, _ = run_kernel(prog.assemble())
    assert regs[5] == 2  # two instructions retired before the read


def test_csr_write_to_counter_is_illegal():
    prog = E.Program()
    prog.emit(0xC0009073)  # csrrw x0, cycle, x1
    prog.emit(E.ebreak())
    kernel = Kernel(SystemConfig(image=prog.assemble()))
    with pytest.raises(IllegalInstruction) as info:
        kernel.run()
    assert (info.value.raw, info.value.pc) == (0xC0009073, 0)


@pytest.mark.parametrize(
    "raw",
    [
        0xC0009073,  # csrrw x0, cycle, x1: counters are read-only
        0xC002D073,  # csrrwi x0, cycle, 5
        E.csrrs(5, 0xC00, rs1=1),  # a set with a nonzero source writes
        E.csrrs(5, 0x300),  # mstatus: only the counter CSRs exist
    ],
)
def test_illegal_csr_access_raises_with_its_pc(raw):
    with pytest.raises(IllegalInstruction) as info:
        execute(ArchState(), decode(raw), 0x40)
    assert (info.value.raw, info.value.pc) == (raw, 0x40)


# ---------------------------------------------------------------------------
# differential checks against the independent reference interpreter
# ---------------------------------------------------------------------------


def assert_matches_reference(image):
    regs_a, mem_a, reason_a = run_kernel(image)
    regs_b, mem_b, reason_b = run_reference(image)
    assert reason_a == reason_b
    assert regs_a == regs_b
    assert mem_a == mem_b


def test_differential_small_batch():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        image = gen_random_program(rng, n=24)
        assert_matches_reference(image)


def _fill_cebreak(size=0x4000):
    return bytearray(b"\x02\x90" * (size // 2))  # c.ebreak everywhere


COMPRESSED_SEMANTIC_CASES = [enc for enc, _ in DECODE16_VECTORS if enc not in (0x9002,)]


@pytest.mark.parametrize("enc", COMPRESSED_SEMANTIC_CASES, ids=lambda e: hex(e))
def test_compressed_semantics_match_reference(enc):
    """Each compressed form, embedded at 0x800 with seeded registers, behaves
    identically under the pipelined simulator and the independent oracle."""
    for seed in (0, 1):
        image = _fill_cebreak()
        setup = E.Program()
        values = {
            1: 0x1111, 2: 0x3000, 5: 0x55AA if seed else 0,
            6: 0xFFFF0000, 7: 0x7FFFFFFF, 8: 3, 9: 0x1234, 10: 0 if seed else 9,
            11: 0x2F00, 12: 0x80A, 13: 0x2F40, 14: 0 if seed else 1, 15: 0xF0F0,
        }
        for r, v in values.items():
            setup.emit(E.li32(r, v))
        setup.emit(E.jal(0, 0x1000 - setup.here))
        blob = setup.assemble()
        image[: len(blob)] = blob
        image[0x1000:0x1002] = enc.to_bytes(2, "little")
        # fallthrough marker so branch direction is observable
        image[0x1002:0x1006] = E.addi(3, 3, 1).to_bytes(4, "little")
        assert_matches_reference(bytes(image))
