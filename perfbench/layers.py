"""Per-layer measurements: a cProfile roll-up by module, and per-call costs.

A layer is one module of ``src/tmrv32`` on a timed path. Self time of every
other function (numpy, hashlib, json, array, builtins, this benchmark) is
rolled up as ``other``.
"""

import cProfile
import pstats
import statistics
import time
from pathlib import Path

import numpy as np

import model
from programs import LoopProgram, acceptance_program
from tmrv32 import Domain, Kernel, SystemConfig, TmrCell
from tmrv32.isa import ArchState, decode, execute
from tmrv32.memory import SRAM_ROWS
from tmrv32.scrubber import Scrubber

LAYERS = ("kernel", "pipeline", "isa", "tmr", "memory", "scrubber", "peripherals", "seu")

# (layer, function name) pairs whose call counts the metrics use.
COUNTED = {
    ("tmr", "write"), ("tmr", "value"), ("tmr", "refresh"), ("isa", "execute"),
    ("kernel", "step_cycle"), ("kernel", "__init__"), ("scrubber", "step"),
    ("memory", "scrub_write"), ("memory", "voted_bytes"),
}


def layer_of(filename):
    path = Path(filename)
    if path.parent.name == "tmrv32" and path.stem in LAYERS:
        return path.stem
    return "other"


def profile(fn):
    """Run ``fn()`` under cProfile; return (its result, wall s, self s by layer, call counts)."""
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        out = fn()
    finally:
        prof.disable()
    wall = time.perf_counter() - start
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls = dict.fromkeys(COUNTED, 0)
    for (filename, _line, name), (_cc, nc, tt, _ct, _callers) in pstats.Stats(prof).stats.items():
        layer = layer_of(filename)
        self_s[layer] += tt
        if (layer, name) in calls:
            calls[layer, name] += nc
    return out, wall, self_s, calls


def layer_metrics(wall, overhead, self_s, calls, faults, ipc):
    """The per-layer metrics of one traced unit of work, by name: (value, unit).

    ``overhead`` is the traced over the untraced time of the unit, both normalized.
    """
    cycles = calls["kernel", "step_cycle"]
    steps = calls["scrubber", "step"]
    cell_ops = calls["tmr", "write"] + calls["tmr", "value"] + calls["tmr", "refresh"]
    m = {
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.accounted_frac": (sum(self_s.values()) / wall, "fraction"),
    }
    for layer, s in self_s.items():
        m[f"{layer}.self_s"] = (s, "s")
    m.update({
        "tmr.cell_ops_per_cycle": (cell_ops / cycles if cycles else 0.0, "count"),
        "isa.execute.calls": (calls["isa", "execute"], "count"),
        "pipeline.ipc": (ipc, "ratio"),
        "memory.rows_voted_per_fault": (
            calls["memory", "voted_bytes"] * SRAM_ROWS / faults if faults else 0.0, "count"),
        "kernel.cycles_per_fault": (cycles / faults if faults else 0.0, "count"),
        "kernel.Kernel.calls": (calls["kernel", "__init__"], "count"),
        "kernel.step_cycle.calls": (cycles, "count"),
        "scrubber.step.calls": (steps, "count"),
        "scrubber.writeback_ratio": (
            calls["memory", "scrub_write"] / steps if steps else 0.0, "ratio"),
    })
    return m


def _per_call(body, calls, repeats=5):
    """Median over ``repeats`` of the normalized time per call of ``body()``.

    ``body()`` makes ``calls`` calls.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        samples.append(model.normalized(time.perf_counter() - start) / calls)
    return statistics.median(samples)


def per_call_costs():
    """Cost of one direct call into each layer's public functions, outside any workload.

    Inputs are fixed (the seed-0 kernel-loop program and the acceptance
    program), so the figures do not depend on the workload seed. Each figure
    includes one iteration of a Python ``for`` loop, and is normalized like
    the end-to-end times (see ``model.normalized``).
    """
    loop_image = LoopProgram(np.random.default_rng(0), 1000).image()
    words = []
    for i in range(0, len(loop_image), 4):
        word = int.from_bytes(loop_image[i : i + 4], "little")
        if word == 0:  # end of code: padding before the data buffer
            break
        words.append(word)
    decode_uncached = decode.__wrapped__
    instructions = [(decode(w), 4 * i) for i, w in enumerate(words)]
    arch = ArchState()
    cell = TmrCell("bench.cell", Domain.CORE)
    acceptance = SystemConfig(image=acceptance_program())
    kernel = Kernel(acceptance)
    sram = kernel.sram
    scrubber = Scrubber(sram.rows)
    n_words, n_ins = 200 * len(words), 200 * len(instructions)

    def decodes():
        for _ in range(200):
            for w in words:
                decode_uncached(w)

    def executes():
        for _ in range(200):
            for ins, pc in instructions:
                execute(arch, ins, pc)

    def writes():
        for i in range(20_000):
            cell.write(i)

    def values():
        for _ in range(20_000):
            cell.value

    def flips():
        for _ in range(20_000):
            cell.flip(0, 3)

    def flip_refreshes():
        for _ in range(20_000):
            cell.flip(0, 3)
            cell.refresh()

    def reads():
        for row in range(sram.rows):
            sram.read_voted(row)

    def scrub_steps():
        for _ in range(sram.rows):
            scrubber.step(sram, None)

    def constructs():
        for _ in range(10):
            Kernel(acceptance)

    def signatures():
        for _ in range(10):
            kernel.architectural_signature()

    def snapshot_restores():
        for _ in range(10):
            Kernel.from_snapshot(kernel.snapshot())

    cycling = SystemConfig(image=loop_image)
    step_samples = []
    for _ in range(5):
        k = Kernel(cycling)
        start = time.perf_counter()
        for _ in range(5_000):
            k.step_cycle()
        step_samples.append(model.normalized(time.perf_counter() - start) / 5_000)

    return {
        "isa.decode_ns": (_per_call(decodes, n_words) * 1e9, "ns"),
        "isa.execute_ns": (_per_call(executes, n_ins) * 1e9, "ns"),
        "tmr.write_ns": (_per_call(writes, 20_000) * 1e9, "ns"),
        "tmr.value_ns": (_per_call(values, 20_000) * 1e9, "ns"),
        "tmr.refresh_ns": ((_per_call(flip_refreshes, 20_000) - _per_call(flips, 20_000)) * 1e9,
                           "ns"),
        "memory.read_voted_ns": (_per_call(reads, sram.rows) * 1e9, "ns"),
        "scrubber.step_ns": (_per_call(scrub_steps, sram.rows) * 1e9, "ns"),
        "kernel.step_cycle_ns": (statistics.median(step_samples) * 1e9, "ns"),
        "kernel.construct_ms": (_per_call(constructs, 10) * 1e3, "ms"),
        "kernel.signature_ms": (_per_call(signatures, 10) * 1e3, "ms"),
        "kernel.snapshot_restore_ms": (_per_call(snapshot_restores, 10) * 1e3, "ms"),
    }
