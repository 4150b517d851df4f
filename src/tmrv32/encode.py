"""RV32IMC instruction encoders and a minimal label-aware program builder.

Used to construct bare-metal test images without a cross-toolchain. Encoders return
integer encodings; :class:`Program` assembles a sequence with label fixups for
branches and jumps and emits a little-endian byte image.
"""

from .errors import ConfigError


def _enc_r(funct7, rs2, rs1, funct3, rd, opcode):
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _enc_i(imm, rs1, funct3, rd, opcode):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _enc_s(imm, rs2, rs1, funct3, opcode):
    imm &= 0xFFF
    return (
        ((imm >> 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
    )


def _enc_b(imm, rs2, rs1, funct3):
    imm &= 0x1FFF
    return (
        ((imm >> 12) << 31)
        | (((imm >> 5) & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 11) & 1) << 7)
        | 0x63
    )


def _enc_u(imm20, rd, opcode):
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | opcode


def _enc_j(imm, rd):
    imm &= 0x1FFFFF
    return (
        ((imm >> 20) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (rd << 7)
        | 0x6F
    )


def lui(rd, imm20):
    return _enc_u(imm20, rd, 0x37)


def auipc(rd, imm20):
    return _enc_u(imm20, rd, 0x17)


def jal(rd, offset):
    return _enc_j(offset, rd)


def jalr(rd, rs1, imm=0):
    return _enc_i(imm, rs1, 0, rd, 0x67)


def addi(rd, rs1, imm):
    return _enc_i(imm, rs1, 0, rd, 0x13)


def slti(rd, rs1, imm):
    return _enc_i(imm, rs1, 2, rd, 0x13)


def sltiu(rd, rs1, imm):
    return _enc_i(imm, rs1, 3, rd, 0x13)


def xori(rd, rs1, imm):
    return _enc_i(imm, rs1, 4, rd, 0x13)


def ori(rd, rs1, imm):
    return _enc_i(imm, rs1, 6, rd, 0x13)


def andi(rd, rs1, imm):
    return _enc_i(imm, rs1, 7, rd, 0x13)


def slli(rd, rs1, shamt):
    return _enc_i(shamt & 0x1F, rs1, 1, rd, 0x13)


def srli(rd, rs1, shamt):
    return _enc_i(shamt & 0x1F, rs1, 5, rd, 0x13)


def srai(rd, rs1, shamt):
    return _enc_i(0x400 | (shamt & 0x1F), rs1, 5, rd, 0x13)


def add(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 0, rd, 0x33)


def sub(rd, rs1, rs2):
    return _enc_r(0x20, rs2, rs1, 0, rd, 0x33)


def sll(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 1, rd, 0x33)


def slt(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 2, rd, 0x33)


def sltu(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 3, rd, 0x33)


def xor(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 4, rd, 0x33)


def srl(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 5, rd, 0x33)


def sra(rd, rs1, rs2):
    return _enc_r(0x20, rs2, rs1, 5, rd, 0x33)


def or_(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 6, rd, 0x33)


def and_(rd, rs1, rs2):
    return _enc_r(0x00, rs2, rs1, 7, rd, 0x33)


def mul(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 0, rd, 0x33)


def mulh(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 1, rd, 0x33)


def mulhsu(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 2, rd, 0x33)


def mulhu(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 3, rd, 0x33)


def div(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 4, rd, 0x33)


def divu(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 5, rd, 0x33)


def rem(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 6, rd, 0x33)


def remu(rd, rs1, rs2):
    return _enc_r(0x01, rs2, rs1, 7, rd, 0x33)


def lb(rd, rs1, imm):
    return _enc_i(imm, rs1, 0, rd, 0x03)


def lh(rd, rs1, imm):
    return _enc_i(imm, rs1, 1, rd, 0x03)


def lw(rd, rs1, imm):
    return _enc_i(imm, rs1, 2, rd, 0x03)


def lbu(rd, rs1, imm):
    return _enc_i(imm, rs1, 4, rd, 0x03)


def lhu(rd, rs1, imm):
    return _enc_i(imm, rs1, 5, rd, 0x03)


def sb(rs2, rs1, imm):
    return _enc_s(imm, rs2, rs1, 0, 0x23)


def sh(rs2, rs1, imm):
    return _enc_s(imm, rs2, rs1, 1, 0x23)


def sw(rs2, rs1, imm):
    return _enc_s(imm, rs2, rs1, 2, 0x23)


def beq(rs1, rs2, offset):
    return _enc_b(offset, rs2, rs1, 0)


def bne(rs1, rs2, offset):
    return _enc_b(offset, rs2, rs1, 1)


def blt(rs1, rs2, offset):
    return _enc_b(offset, rs2, rs1, 4)


def bge(rs1, rs2, offset):
    return _enc_b(offset, rs2, rs1, 5)


def bltu(rs1, rs2, offset):
    return _enc_b(offset, rs2, rs1, 6)


def bgeu(rs1, rs2, offset):
    return _enc_b(offset, rs2, rs1, 7)


def ecall():
    return 0x00000073


def ebreak():
    return 0x00100073


def fence():
    return 0x0000000F


def csrrs(rd, csr, rs1=0):
    return _enc_i(csr, rs1, 2, rd, 0x73)


def nop():
    return addi(0, 0, 0)


# Compressed encoders for the forms exercised in tests.


def c_li(rd, imm):
    imm &= 0x3F
    return (0x2 << 13) | ((imm >> 5) << 12) | (rd << 7) | ((imm & 0x1F) << 2) | 0x1


def c_addi(rd, imm):
    imm &= 0x3F
    return ((imm >> 5) << 12) | (rd << 7) | ((imm & 0x1F) << 2) | 0x1


def c_mv(rd, rs2):
    return (0x8 << 12) | (rd << 7) | (rs2 << 2) | 0x2


def c_add(rd, rs2):
    return (0x9 << 12) | (rd << 7) | (rs2 << 2) | 0x2


def li32(rd, value):
    """Encoding pair (or single addi) that materializes any 32-bit constant."""
    value &= 0xFFFFFFFF
    low = value & 0xFFF
    if low >= 0x800:
        low -= 0x1000
    high = (value - low) & 0xFFFFFFFF
    if high == 0:
        return [addi(rd, 0, low)]
    out = [lui(rd, (high >> 12) & 0xFFFFF)]
    if low != 0:
        out.append(addi(rd, rd, low))
    return out


class Program:
    """Sequential program builder with labels, for little-endian bare-metal images."""

    def __init__(self, base=0):
        self.base = base
        self.items = []  # (kind, payload) where kind is "ins16"|"ins32"|"fixup"
        self.labels = {}

    @property
    def here(self):
        return self.base + sum(2 if k == "ins16" else 4 for k, _ in self.items)

    def label(self, name):
        if name in self.labels:
            raise ConfigError(f"duplicate label {name!r}")
        self.labels[name] = self.here
        return self

    def emit(self, *encodings):
        for enc in encodings:
            if isinstance(enc, list):
                self.emit(*enc)
            elif enc & 3 != 3:
                self.items.append(("ins16", enc & 0xFFFF))
            else:
                self.items.append(("ins32", enc & 0xFFFFFFFF))
        return self

    def word(self, value):
        self.items.append(("ins32", value & 0xFFFFFFFF))
        return self

    def branch(self, encoder, rs1, rs2, label):
        """Emit a branch whose offset is resolved at assembly time."""
        self.items.append(("fixup", (encoder, (rs1, rs2), label, self.here)))
        return self

    def jump(self, label, rd=0):
        self.items.append(("fixup", (jal, (rd,), label, self.here)))
        return self

    def assemble(self):
        out = bytearray()
        for kind, payload in self.items:
            if kind == "ins16":
                out += payload.to_bytes(2, "little")
            elif kind == "ins32":
                out += payload.to_bytes(4, "little")
            else:
                encoder, args, label, addr = payload
                if label not in self.labels:
                    raise ConfigError(f"undefined label {label!r}")
                offset = self.labels[label] - addr
                if encoder is jal:
                    out += jal(args[0], offset).to_bytes(4, "little")
                else:
                    out += encoder(*args, offset).to_bytes(4, "little")
        return bytes(out)
