"""Translation validation of regions: each region call checked against the per-cycle
loop, which is the specification.

A region is entered in one state (see :mod:`tmrv32.pipeline`'s module docstring): the
fetch latch holds the window at the region's pc, read from clean SRAM, ``arch.pc`` is
its successor, the writeback latch is empty and the idle cause is ``fill``. That state
is fixed by the pc, the registers and the three banks, so each call can be replayed on
its own. :class:`CheckedBlocks`, installed as ``pipeline._blocks``, wraps every region
stored in it. A call that does not run must change nothing. A call that runs ``n``
cycles must keep within its budget. It is replayed from copies taken before it, through
``Pipeline.advance`` with regions off (a ``retire`` callback turns them off) for ``n``
cycles, and must leave what the replay leaves: the returned state, the registers, the
banks and the counters. A failed check names the region's pc and the cycle of the call.

``pytest --check-regions`` installs one for the whole session (see conftest.py).
"""

import sys

from tmrv32.isa import ArchState
from tmrv32.memory import M32, SramArray, SystemBus
from tmrv32.pipeline import Pipeline
from tmrv32.regions import _MAX_BLOCK
from tmrv32.tmr import Domain, TmrCell

ANY_NEED = 2 * _MAX_BLOCK + 1  # a budget above any region's need

_ADVANCE = Pipeline.advance.__code__


def call_on_copies(region, budget, regs, bank):
    """What ``region`` returns when called with ``budget``, copies of ``regs`` and three
    copies of ``bank``, which it may change."""
    return region(budget, [TmrCell("x", Domain.CORE, 32, r.value) for r in regs],
                  bank[:], bank[:], bank[:])


def _call_cycle():
    """The cycle at which ``Pipeline.advance`` makes the region call under way, or None
    for a call from elsewhere (a test that calls a region itself)."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code is not _ADVANCE:
        frame = frame.f_back
    return frame and frame.f_locals["c"]


def replay(pc, cycle, n, values, banks):
    """Run the per-cycle loop, regions off, for up to ``n`` cycles from ``cycle`` and the
    entry state at ``pc``, with register ``values`` and ``banks`` (which it changes).
    Returns (what a region returns for the cycles run, the halt, the pipeline, the
    architectural state, the SRAM)."""
    sram = SramArray(len(banks[0]))
    sram.banks = banks
    bus = SystemBus(sram)
    arch, pipe = ArchState(), Pipeline()
    for cell, value in zip(arch.regs, values):
        cell.value = value
    raw = bus.fetch_window(pc)
    if raw & 3 != 3:
        raw &= 0xFFFF
    pipe.fl_valid.value, pipe.fl_pc.value, pipe.fl_raw.value = 1, pc, raw
    arch.pc.value = (pc + (4 if raw & 3 == 3 else 2)) & M32
    end, halt = pipe.advance(arch, bus, cycle, cycle + n, retire=lambda *_: None)
    fl_valid, fl_pc, fl_raw, wl_valid, wl_rd, wl_value = (c.value for c in pipe.cells())
    state = (end - cycle, arch.retired, pipe.fetch_stalls, pipe.branch_bubbles,
             fl_valid, fl_pc, fl_raw, arch.pc.value, pipe._idle_cause,
             wl_valid, wl_rd, wl_value)
    return state, halt, pipe, arch, sram


def check_call(pc, region, budget, regs, banks, cycle):
    """Call ``region``, made at ``pc``, as ``Pipeline.advance`` would at ``cycle`` and
    check it against the per-cycle loop; returns what it returned."""
    values, copies = [r.value for r in regs], [bank[:] for bank in banks]
    done = region(budget, regs, *banks)
    where = f"region at {pc:#x} called at cycle {cycle} with budget {budget}"
    if not done:
        assert [r.value for r in regs] == values, f"{where}: returned {done} but changed " \
            "a register"
        assert list(banks) == copies, f"{where}: returned {done} but changed SRAM"
        return done
    assert 0 < done[0] <= budget, f"{where}: ran {done[0]} cycles"
    try:
        state, halt, pipe, arch, sram = replay(pc, cycle or 0, done[0], values, copies)
    except Exception as exc:
        raise AssertionError(f"{where}: ran {done[0]} cycles the per-cycle loop cannot: "
                             f"{type(exc).__name__}: {exc}") from exc
    assert done == state and halt is None, f"{where}: returned {done}, the per-cycle " \
        f"loop leaves {state}" + (f" and halts ({halt})" if halt else "")
    counts = pipe.fill_cycles, pipe.dmem_cycles
    assert counts == (0, done[2]), f"{where}: the per-cycle loop counts {counts[0]} fill " \
        f"and {counts[1]} data-access cycles, the region 0 and {done[2]}"
    for r, (got, want) in enumerate(zip(regs, arch.regs)):
        assert got.value == want.value, f"{where}: x{r} is {got.value:#x}, the per-cycle " \
            f"loop's {want.value:#x}"
    for i, (got, want) in enumerate(zip(banks, sram.banks)):
        if got != want:
            row = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
            raise AssertionError(f"{where}: bank {i} row {row} is {got[row]:#x}, the "
                                 f"per-cycle loop's {want[row]:#x}")
    return done


class CheckedBlocks(dict):
    """A translation cache whose regions are checked on every call (see the module
    docstring). With ``log``, ``calls`` logs each call's budget, what it returned and
    whether it stayed: it would run no cycle with a budget of ``ANY_NEED``."""

    def __init__(self, log=True):
        super().__init__()
        self.log = log
        self.calls = []

    def __setitem__(self, pc, region):
        def checked(budget, regs, *banks):
            cycle = _call_cycle()
            if not self.log:
                return check_call(pc, region, budget, regs, banks, cycle)
            stayed = call_on_copies(region, ANY_NEED, regs, banks[0]) is None
            done = check_call(pc, region, budget, regs, banks, cycle)
            self.calls.append((budget, done, stayed))
            return done

        super().__setitem__(pc, checked)
