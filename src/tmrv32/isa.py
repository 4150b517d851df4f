"""RV32IMC decoding and architectural execution semantics.

Supported surface: RV32I user-level computation, the M extension, the C extension
(decoded by expansion to 32-bit semantic equivalents), plus read-only cycle/instret
counter CSRs. No interrupts, no privilege modes, no trap vectors: an undecodable
encoding raises :class:`~tmrv32.errors.IllegalInstruction` and the simulation halts
with a diagnostic. ECALL and EBREAK halt the simulation cleanly (EBREAK is the
conventional "program finished" signal for bare-metal test images).

:func:`decode` binds every instruction to a handler, ``ins.run(arch, pc)``, for its
operation and operands. The pipeline calls it (:func:`execute` is kept for callers
outside it), and it returns the effects as a tuple ``(rd_write, target, mem, halt)``:

* ``rd_write``: ``(rd, value)`` destined for the register file, or None;
* ``target``: the next pc of a control transfer (a taken branch or any jump), or
  None to fall through;
* ``mem``: ``(addr, width, data)`` for a store, ``(addr, width, None)`` for a load
  (``ins.load`` gives its result from the word that holds the access), or None;
* ``halt``: ``"ebreak"`` or ``"ecall"``, or None.

The pipeline (:mod:`tmrv32.pipeline`) commits them: the register write goes
through its writeback latch.

The semantics of the register-register, immediate, branch and load operations are
written once, as Python expressions in ``_ALU_RR``, ``_ALU_IMM``, ``_BRANCH_TAKEN``
and ``_LOAD``. The handlers and ``ins.load`` call them, compiled once per operation,
and the translator (:mod:`tmrv32.regions`) inlines them into its regions.
"""

import functools
from dataclasses import dataclass, field
from itertools import repeat

from .errors import IllegalInstruction
from .tmr import Domain, TmrCell

M32 = 0xFFFFFFFF
_REG_NAMES = tuple(f"core.x{i}" for i in range(32))  # the register cells' element ids

# CSR numbers for the read-only counters exposed to software.
CSR_CYCLE = 0xC00
CSR_INSTRET = 0xC02
CSR_CYCLEH = 0xC80
CSR_INSTRETH = 0xC82
_COUNTER_CSRS = {CSR_CYCLE, CSR_INSTRET, CSR_CYCLEH, CSR_INSTRETH}


def sext(value, bits):
    """Sign-extend the low ``bits`` of ``value`` to a Python int."""
    m = 1 << (bits - 1)
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & m else value


def s32(x):
    x &= M32
    return x - 0x100000000 if x & 0x80000000 else x


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    ``mnemonic`` is the 32-bit semantic operation; compressed encodings are expanded,
    with the original compressed name kept in ``cname`` and ``length`` = 2. ``run``
    is the handler :func:`execute` calls, bound to this instruction's operands, and
    a load's ``load(word, addr)`` its result from the word that holds the access.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    raw: int = 0
    length: int = 4
    cname: str | None = None
    run: object = field(init=False, repr=False, compare=False)
    load: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "run", _bind(self))
        object.__setattr__(self, "load", self.mnemonic in _LOAD and _function(self.mnemonic))

    def __str__(self):
        name = self.cname or self.mnemonic
        return f"{name} rd={self.rd} rs1={self.rs1} rs2={self.rs2} imm={self.imm}"


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

_LOAD_F3 = {0: "lb", 1: "lh", 2: "lw", 4: "lbu", 5: "lhu"}
_STORE_F3 = {0: "sb", 1: "sh", 2: "sw"}
_BRANCH_F3 = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"}
_OPIMM_F3 = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi"}
_OP_F3 = {0: "add", 1: "sll", 2: "slt", 3: "sltu", 4: "xor", 5: "srl", 6: "or", 7: "and"}
_OP_ALT_F3 = {0: "sub", 5: "sra"}
_MUL_F3 = {0: "mul", 1: "mulh", 2: "mulhsu", 3: "mulhu", 4: "div", 5: "divu", 6: "rem", 7: "remu"}
_CSR_F3 = {1: "csrrw", 2: "csrrs", 3: "csrrc", 5: "csrrwi", 6: "csrrsi", 7: "csrrci"}


def _decode32(raw):
    opcode = raw & 0x7F
    rd = (raw >> 7) & 0x1F
    rs1 = (raw >> 15) & 0x1F
    rs2 = (raw >> 20) & 0x1F
    f3 = (raw >> 12) & 7
    f7 = raw >> 25

    if opcode == 0x37:  # lui
        return Instruction("lui", rd=rd, imm=s32(raw & 0xFFFFF000), raw=raw)
    if opcode == 0x17:  # auipc
        return Instruction("auipc", rd=rd, imm=s32(raw & 0xFFFFF000), raw=raw)
    if opcode == 0x6F:  # jal
        imm = sext(
            ((raw >> 31) << 20)
            | (((raw >> 12) & 0xFF) << 12)
            | (((raw >> 20) & 1) << 11)
            | (((raw >> 21) & 0x3FF) << 1),
            21,
        )
        return Instruction("jal", rd=rd, imm=imm, raw=raw)
    if opcode == 0x67 and f3 == 0:  # jalr
        return Instruction("jalr", rd=rd, rs1=rs1, imm=sext(raw >> 20, 12), raw=raw)
    if opcode == 0x63:  # branches
        if f3 not in _BRANCH_F3:
            raise IllegalInstruction(raw)
        imm = sext(
            ((raw >> 31) << 12)
            | (((raw >> 7) & 1) << 11)
            | (((raw >> 25) & 0x3F) << 5)
            | (((raw >> 8) & 0xF) << 1),
            13,
        )
        return Instruction(_BRANCH_F3[f3], rs1=rs1, rs2=rs2, imm=imm, raw=raw)
    if opcode == 0x03:  # loads
        if f3 not in _LOAD_F3:
            raise IllegalInstruction(raw)
        return Instruction(_LOAD_F3[f3], rd=rd, rs1=rs1, imm=sext(raw >> 20, 12), raw=raw)
    if opcode == 0x23:  # stores
        if f3 not in _STORE_F3:
            raise IllegalInstruction(raw)
        imm = sext(((raw >> 25) << 5) | ((raw >> 7) & 0x1F), 12)
        return Instruction(_STORE_F3[f3], rs1=rs1, rs2=rs2, imm=imm, raw=raw)
    if opcode == 0x13:  # op-imm
        if f3 == 1:
            if f7 != 0:
                raise IllegalInstruction(raw)
            return Instruction("slli", rd=rd, rs1=rs1, imm=rs2, raw=raw)
        if f3 == 5:
            if f7 == 0x00:
                return Instruction("srli", rd=rd, rs1=rs1, imm=rs2, raw=raw)
            if f7 == 0x20:
                return Instruction("srai", rd=rd, rs1=rs1, imm=rs2, raw=raw)
            raise IllegalInstruction(raw)
        return Instruction(_OPIMM_F3[f3], rd=rd, rs1=rs1, imm=sext(raw >> 20, 12), raw=raw)
    if opcode == 0x33:  # op
        if f7 == 0x00 and f3 in _OP_F3:
            return Instruction(_OP_F3[f3], rd=rd, rs1=rs1, rs2=rs2, raw=raw)
        if f7 == 0x20 and f3 in _OP_ALT_F3:
            return Instruction(_OP_ALT_F3[f3], rd=rd, rs1=rs1, rs2=rs2, raw=raw)
        if f7 == 0x01:
            return Instruction(_MUL_F3[f3], rd=rd, rs1=rs1, rs2=rs2, raw=raw)
        raise IllegalInstruction(raw)
    if opcode == 0x0F:  # fence / fence.i, no-ops in this memory model
        if f3 == 0:
            return Instruction("fence", raw=raw)
        if f3 == 1:
            return Instruction("fence.i", raw=raw)
        raise IllegalInstruction(raw)
    if opcode == 0x73:  # system
        if f3 == 0:
            if raw == 0x00000073:
                return Instruction("ecall", raw=raw)
            if raw == 0x00100073:
                return Instruction("ebreak", raw=raw)
            raise IllegalInstruction(raw)
        if f3 in _CSR_F3:
            return Instruction(_CSR_F3[f3], rd=rd, rs1=rs1, csr=raw >> 20, raw=raw)
        raise IllegalInstruction(raw)
    raise IllegalInstruction(raw)


def _creg(x):
    return 8 + (x & 7)


def _decode16(raw):
    """Expand one RV32C encoding to its 32-bit semantic equivalent."""
    op = raw & 3
    f3 = (raw >> 13) & 7

    def ins(cname, mnemonic, **kw):
        return Instruction(mnemonic, raw=raw, length=2, cname=cname, **kw)

    if op == 0:
        if f3 == 0:  # c.addi4spn
            imm = (
                (((raw >> 11) & 3) << 4)
                | (((raw >> 7) & 0xF) << 6)
                | (((raw >> 6) & 1) << 2)
                | (((raw >> 5) & 1) << 3)
            )
            if imm == 0:
                raise IllegalInstruction(raw)  # includes the all-zero encoding
            return ins("c.addi4spn", "addi", rd=_creg(raw >> 2), rs1=2, imm=imm)
        if f3 == 2:  # c.lw
            imm = (((raw >> 10) & 7) << 3) | (((raw >> 6) & 1) << 2) | (((raw >> 5) & 1) << 6)
            return ins("c.lw", "lw", rd=_creg(raw >> 2), rs1=_creg(raw >> 7), imm=imm)
        if f3 == 6:  # c.sw
            imm = (((raw >> 10) & 7) << 3) | (((raw >> 6) & 1) << 2) | (((raw >> 5) & 1) << 6)
            return ins("c.sw", "sw", rs1=_creg(raw >> 7), rs2=_creg(raw >> 2), imm=imm)
        raise IllegalInstruction(raw)

    if op == 1:
        if f3 == 0:  # c.addi / c.nop
            rd = (raw >> 7) & 0x1F
            imm = sext((((raw >> 12) & 1) << 5) | ((raw >> 2) & 0x1F), 6)
            return ins("c.nop" if rd == 0 else "c.addi", "addi", rd=rd, rs1=rd, imm=imm)
        if f3 in (1, 5):  # c.jal / c.j
            imm = sext(
                (((raw >> 12) & 1) << 11)
                | (((raw >> 11) & 1) << 4)
                | (((raw >> 9) & 3) << 8)
                | (((raw >> 8) & 1) << 10)
                | (((raw >> 7) & 1) << 6)
                | (((raw >> 6) & 1) << 7)
                | (((raw >> 3) & 7) << 1)
                | (((raw >> 2) & 1) << 5),
                12,
            )
            if f3 == 1:
                return ins("c.jal", "jal", rd=1, imm=imm)
            return ins("c.j", "jal", rd=0, imm=imm)
        if f3 == 2:  # c.li
            rd = (raw >> 7) & 0x1F
            imm = sext((((raw >> 12) & 1) << 5) | ((raw >> 2) & 0x1F), 6)
            return ins("c.li", "addi", rd=rd, rs1=0, imm=imm)
        if f3 == 3:
            rd = (raw >> 7) & 0x1F
            if rd == 2:  # c.addi16sp
                imm = sext(
                    (((raw >> 12) & 1) << 9)
                    | (((raw >> 6) & 1) << 4)
                    | (((raw >> 5) & 1) << 6)
                    | (((raw >> 3) & 3) << 7)
                    | (((raw >> 2) & 1) << 5),
                    10,
                )
                if imm == 0:
                    raise IllegalInstruction(raw)
                return ins("c.addi16sp", "addi", rd=2, rs1=2, imm=imm)
            imm = sext((((raw >> 12) & 1) << 17) | (((raw >> 2) & 0x1F) << 12), 18)
            if imm == 0:
                raise IllegalInstruction(raw)
            return ins("c.lui", "lui", rd=rd, imm=imm)
        if f3 == 4:  # misc-alu
            rd = _creg(raw >> 7)
            sub = (raw >> 10) & 3
            if sub == 0 or sub == 1:
                if (raw >> 12) & 1:
                    raise IllegalInstruction(raw)  # shamt[5] reserved on RV32
                shamt = (raw >> 2) & 0x1F
                name = ("c.srli", "srli") if sub == 0 else ("c.srai", "srai")
                return ins(name[0], name[1], rd=rd, rs1=rd, imm=shamt)
            if sub == 2:
                imm = sext((((raw >> 12) & 1) << 5) | ((raw >> 2) & 0x1F), 6)
                return ins("c.andi", "andi", rd=rd, rs1=rd, imm=imm)
            if (raw >> 12) & 1:
                raise IllegalInstruction(raw)  # c.subw/c.addw are RV64-only
            rs2 = _creg(raw >> 2)
            name = [("c.sub", "sub"), ("c.xor", "xor"), ("c.or", "or"), ("c.and", "and")][
                (raw >> 5) & 3
            ]
            return ins(name[0], name[1], rd=rd, rs1=rd, rs2=rs2)
        # f3 is 6 or 7: c.beqz / c.bnez (quadrant 1 has no reserved funct3)
        imm = sext(
            (((raw >> 12) & 1) << 8)
            | (((raw >> 10) & 3) << 3)
            | (((raw >> 5) & 3) << 6)
            | (((raw >> 3) & 3) << 1)
            | (((raw >> 2) & 1) << 5),
            9,
        )
        name = ("c.beqz", "beq") if f3 == 6 else ("c.bnez", "bne")
        return ins(name[0], name[1], rs1=_creg(raw >> 7), rs2=0, imm=imm)

    # op == 2
    if f3 == 0:  # c.slli
        if (raw >> 12) & 1:
            raise IllegalInstruction(raw)
        rd = (raw >> 7) & 0x1F
        return ins("c.slli", "slli", rd=rd, rs1=rd, imm=(raw >> 2) & 0x1F)
    if f3 == 2:  # c.lwsp
        rd = (raw >> 7) & 0x1F
        if rd == 0:
            raise IllegalInstruction(raw)
        imm = (((raw >> 12) & 1) << 5) | (((raw >> 4) & 7) << 2) | (((raw >> 2) & 3) << 6)
        return ins("c.lwsp", "lw", rd=rd, rs1=2, imm=imm)
    if f3 == 4:
        rd = (raw >> 7) & 0x1F
        rs2 = (raw >> 2) & 0x1F
        if (raw >> 12) & 1 == 0:
            if rs2 == 0:  # c.jr
                if rd == 0:
                    raise IllegalInstruction(raw)
                return ins("c.jr", "jalr", rd=0, rs1=rd, imm=0)
            return ins("c.mv", "add", rd=rd, rs1=0, rs2=rs2)
        if rs2 == 0 and rd == 0:
            return ins("c.ebreak", "ebreak")
        if rs2 == 0:  # c.jalr
            return ins("c.jalr", "jalr", rd=1, rs1=rd, imm=0)
        return ins("c.add", "add", rd=rd, rs1=rd, rs2=rs2)
    if f3 == 6:  # c.swsp
        imm = (((raw >> 9) & 0xF) << 2) | (((raw >> 7) & 3) << 6)
        return ins("c.swsp", "sw", rs1=2, rs2=(raw >> 2) & 0x1F, imm=imm)
    raise IllegalInstruction(raw)


@functools.lru_cache(maxsize=65536)
def decode(raw):
    """Decode a 32-bit fetch window into one instruction.

    The low 16 bits select a compressed encoding when their two lowest bits are
    not 0b11; the ``length`` field reflects the original encoding size.
    """
    if raw & 3 == 3:
        return _decode32(raw & M32)
    return _decode16(raw & 0xFFFF)


# ---------------------------------------------------------------------------
# architectural state
# ---------------------------------------------------------------------------


class ArchState:
    """Architectural state: pc and the 32 registers, each a TMR-protected cell.

    Register 0 reads as zero through a hardwired path and writes to it are
    discarded; its storage cell still exists as an injection target.
    """

    def __init__(self):
        self.pc = TmrCell("core.pc", Domain.CORE, 32, 0)
        self.regs = list(map(TmrCell, _REG_NAMES, repeat(Domain.CORE)))
        self.cycle = 0
        self.retired = 0  # instructions retired; the instret CSR reads it

    def read_reg(self, i):
        return 0 if i == 0 else self.regs[i].value

    def cells(self):
        return (self.pc, *self.regs)

    def reg_values(self):
        return [0] + [reg.value for reg in self.regs[1:]]


# ---------------------------------------------------------------------------
# execute
# ---------------------------------------------------------------------------


def _divs(a, b):
    # RISC-V signed division truncates toward zero; div by 0 -> -1, MIN/-1 -> MIN.
    if b == 0:
        return M32
    if a == -0x80000000 and b == -1:
        return 0x80000000
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rems(a, b):
    if b == 0:
        return a
    if a == -0x80000000 and b == -1:
        return 0
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# The semantics of every register-register, immediate and branch operation,
# written once as a Python expression over the operands {a} and {b}: {a} is a
# source register's value and {b} the second one's, or the sign-extended
# immediate. Register values are 32-bit unsigned, so
# ``(({a} ^ 0x80000000) - 0x80000000)`` reads one as signed. The handlers call
# each as a function (``_function``), and the translator (``regions.py``) inlines
# it into its regions. A result is masked to 32 bits where it is used, which also
# turns a comparison's bool into 0 or 1.
_ALU_RR = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "xor": "{a} ^ {b}",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
    "sll": "{a} << ({b} & 31)",
    "srl": "{a} >> ({b} & 31)",
    "sra": "(({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31)",
    "slt": "({a} ^ 0x80000000) < ({b} ^ 0x80000000)",
    "sltu": "{a} < {b}",
    "mul": "{a} * {b}",
    "mulh": "((({a} ^ 0x80000000) - 0x80000000) * (({b} ^ 0x80000000) - 0x80000000)) >> 32",
    "mulhu": "({a} * {b}) >> 32",
    "mulhsu": "((({a} ^ 0x80000000) - 0x80000000) * {b}) >> 32",
    "div": "_divs(s32({a}), s32({b}))",
    "divu": "0xFFFFFFFF if {b} == 0 else {a} // {b}",
    "rem": "_rems(s32({a}), s32({b}))",
    "remu": "{a} if {b} == 0 else {a} % {b}",
}

_ALU_IMM = {
    "addi": "{a} + {b}",
    "xori": "{a} ^ ({b} & 0xFFFFFFFF)",
    "ori": "{a} | ({b} & 0xFFFFFFFF)",
    "andi": "{a} & {b} & 0xFFFFFFFF",
    "slti": "(({a} ^ 0x80000000) - 0x80000000) < {b}",
    "sltiu": "{a} < ({b} & 0xFFFFFFFF)",
    "slli": "{a} << {b}",
    "srli": "{a} >> {b}",
    "srai": "(({a} ^ 0x80000000) - 0x80000000) >> {b}",
}

_BRANCH_TAKEN = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "({a} ^ 0x80000000) < ({b} ^ 0x80000000)",
    "bge": "({a} ^ 0x80000000) >= ({b} ^ 0x80000000)",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}

# A load's result from the word that holds the access ({a}) and its byte address ({b}).
_LOAD = {
    "lw": "{a}",
    "lhu": "({a} >> (({b} & 2) << 3)) & 0xFFFF",
    "lh": "(((({a} >> (({b} & 2) << 3)) & 0xFFFF) ^ 0x8000) - 0x8000) & 0xFFFFFFFF",
    "lbu": "({a} >> (({b} & 3) << 3)) & 0xFF",
    "lb": "(((({a} >> (({b} & 3) << 3)) & 0xFF) ^ 0x80) - 0x80) & 0xFFFFFFFF",
}

_EXPRESSION_NAMES = {"s32": s32, "_divs": _divs, "_rems": _rems}  # what they call

LOAD_WIDTH = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4}


def _counter_csr_read(arch, csr):
    if csr == CSR_CYCLE:
        return arch.cycle & M32
    if csr == CSR_CYCLEH:
        return (arch.cycle >> 32) & M32
    if csr == CSR_INSTRET:
        return arch.retired & M32
    return (arch.retired >> 32) & M32


_NO_EFFECT = (None, None, None, None)


@functools.cache
def _function(op):
    """The expression of ``op`` in the tables above as a function ``_<op>(a, b)``,
    compiled with this file as its code filename (so profiles count it here)."""
    expr = {**_ALU_RR, **_ALU_IMM, **_BRANCH_TAKEN, **_LOAD}[op].format(a="a", b="b")
    names = dict(_EXPRESSION_NAMES)
    exec(compile(f"def _{op}(a, b):\n    return {expr}\n", __file__, "exec"), names)
    return names[f"_{op}"]


def _bind(ins):
    """The handler of ``ins``: ``run(arch, pc)`` returns its effect tuple (see the
    module docstring). Source registers are read through their voters, and x0
    reads as zero."""
    op, rd, rs1, rs2, imm, length = ins.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm, ins.length
    if op in _ALU_RR:
        f = _function(op)

        def run(arch, pc):
            regs = arch.regs
            a = regs[rs1].value if rs1 else 0
            b = regs[rs2].value if rs2 else 0
            return (rd, f(a, b) & M32), None, None, None

    elif op in _ALU_IMM:
        f = _function(op)

        def run(arch, pc):
            return (rd, f(arch.regs[rs1].value if rs1 else 0, imm) & M32), None, None, None

    elif op in _BRANCH_TAKEN:
        taken = _function(op)

        def run(arch, pc):
            regs = arch.regs
            if taken(regs[rs1].value if rs1 else 0, regs[rs2].value if rs2 else 0):
                return None, (pc + imm) & M32, None, None
            return _NO_EFFECT

    elif op in LOAD_WIDTH:
        width = LOAD_WIDTH[op]

        def run(arch, pc):
            addr = ((arch.regs[rs1].value if rs1 else 0) + imm) & M32
            return None, None, (addr, width, None), None

    elif op in STORE_WIDTH:
        width = STORE_WIDTH[op]
        data_mask = (1 << (8 * width)) - 1

        def run(arch, pc):
            regs = arch.regs
            addr = ((regs[rs1].value if rs1 else 0) + imm) & M32
            return None, None, (addr, width, (regs[rs2].value if rs2 else 0) & data_mask), None

    elif op == "auipc":

        def run(arch, pc):
            return (rd, (pc + imm) & M32), None, None, None

    elif op == "jal":

        def run(arch, pc):
            return (rd, (pc + length) & M32), (pc + imm) & M32, None, None

    elif op == "jalr":

        def run(arch, pc):
            target = ((arch.regs[rs1].value if rs1 else 0) + imm) & M32 & ~1
            return (rd, (pc + length) & M32), target, None, None

    elif (
        op in _CSR_F3.values()
        and ins.csr in _COUNTER_CSRS  # only the counters exist,
        and op not in ("csrrw", "csrrwi")  # and they are read-only
        and rs1 == 0
    ):
        csr = ins.csr

        def run(arch, pc):
            return (rd, _counter_csr_read(arch, csr)), None, None, None

    else:
        effect = {
            "lui": ((rd, imm & M32), None, None, None),
            "fence": _NO_EFFECT,
            "fence.i": _NO_EFFECT,
            "ebreak": (None, None, None, "ebreak"),
            "ecall": (None, None, None, "ecall"),
        }.get(op)

        raw = ins.raw

        def run(arch, pc):
            if effect is None:
                raise IllegalInstruction(raw, pc)
            return effect

    return run


def execute(arch, ins, pc):
    """Compute the architectural effect of ``ins`` fetched from ``pc``.

    Returns ``(rd_write, target, mem, halt)`` (see the module docstring); the
    caller commits the register write and the next pc, and services any memory
    access (completing loads through ``ins.load``).
    """
    return ins.run(arch, pc)
