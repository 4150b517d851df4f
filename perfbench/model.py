"""Plain-Python model of the kernel-loop program, and the host-speed reference.

This module imports nothing from the simulator. ``loop_model`` computes what
the loop program leaves in memory, so the benchmark can check the simulator
against it. ``reference_work`` runs the same model on fixed inputs: the
benchmark times it (``reference_time``) beside every job and every per-call
measurement to see how fast the shared host is running Python at that
moment, and normalizes its times to a host on which it takes ``REF_HOST_S``.
"""

import statistics
import time

M32 = 0xFFFFFFFF
REF_HOST_S = 0.002  # reference_work() time on the host that times are normalized to
REF_SAMPLES = 3  # minimum reference_work() runs per reference measurement
REF_SHARE = 0.1  # reference time per measurement, as a share of the time it normalizes

WINDOW = 1024  # bytes of the buffer the loop visits, cyclically
SLOTS = 8  # words handled per loop iteration


def _s32(x):
    return x - (1 << 32) if x & 0x80000000 else x


def _alu(op, x, y):
    if op == "add":
        return (x + y) & M32
    if op == "sub":
        return (x - y) & M32
    return x ^ y


def _muldiv(op, x, y):
    # y is a positive divisor below 2**16, so division by zero and the signed
    # overflow case cannot occur.
    if op == "divu":
        return x // y
    if op == "remu":
        return x % y
    if op == "mulhu":
        return (x * y) >> 32
    sx = _s32(x)
    q = abs(sx) // y
    if op == "div":
        return (-q if sx < 0 else q) & M32
    r = abs(sx) - q * y
    return (-r if sx < 0 else r) & M32


def _taken(op, x, y):
    if op == "blt":
        return _s32(x) < _s32(y)
    if op == "bge":
        return _s32(x) >= _s32(y)
    if op == "bltu":
        return x < y
    return x >= y


def loop_model(p):
    """(final buffer words, checksum) of the loop program described by ``p``.

    ``p`` has the fields of :class:`programs.LoopProgram`: ``iterations``,
    ``a``, ``b``, ``divisor``, ``check0``, the per-slot ``alu``, ``muldiv``
    and ``branch`` operations, and the initial buffer ``data``.
    """
    mem = list(p.data)
    check = p.check0
    offset = 0
    for _ in range(p.iterations):
        base = offset // 4
        for k in range(SLOTS):
            v = _alu(p.alu[k], mem[base + k], p.a)
            m = (v * p.b) & M32
            q = _muldiv(p.muldiv[k], m, p.divisor)
            if not _taken(p.branch[k], q, check):
                check ^= q
            check = (check + m) & M32
            mem[base + k] = v
        mem[base] = (mem[base] & ~0xFF00 & M32) | ((check & 0xFF) << 8)
        check = (check + (mem[base] >> 16)) & M32
        offset = (offset + 4 * SLOTS) & (WINDOW - 1)
    return mem, check


class _Reference:
    iterations = 120
    a, b, divisor, check0 = 0x9E3779B9, 0x85EBCA6B, 40503, 0x12345678
    alu = ("add", "sub", "xor", "add", "xor", "sub", "add", "xor")
    muldiv = ("divu", "remu", "div", "rem", "mulhu", "divu", "rem", "mulhu")
    branch = ("blt", "bltu", "bge", "bgeu", "blt", "bgeu", "bltu", "bge")
    data = tuple((i * 0x9E3779B1 + 0x7F4A7C15) & M32 for i in range(WINDOW // 4))


def reference_work():
    """A fixed unit of pure-Python work: 1-2 ms on the hosts this was tuned on."""
    return loop_model(_Reference)


def reference_time(budget=0.0):
    """Mean host time of ``reference_work()`` over at least ``REF_SAMPLES`` runs
    and at least ``budget`` seconds."""
    samples = []
    while len(samples) < REF_SAMPLES or sum(samples) < budget:
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.fmean(samples)


def normalized(seconds):
    """``seconds`` of host time just measured, scaled to the reference host.

    The reference runs for ``REF_SHARE`` of ``seconds``, so that it sees the
    same mix of slow and fast bursts of the shared host as a long measurement.
    """
    return seconds * REF_HOST_S / reference_time(REF_SHARE * seconds)
