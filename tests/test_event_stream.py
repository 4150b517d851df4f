"""The kernel's event stream, and accumulate campaigns classified from it.

``reference_accumulate`` observes an accumulate campaign the per-cycle way: one
monitor per fault after every cycle, an observing ``_do_flip`` wrapper and a log
of every cycle's discrepancies, in a single-stepped run. ``run_campaign`` must
give byte-identical records, summary and golden signature from the stream alone,
in a run that fast-forwards.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import acceptance_program, alu_block_program
from reference_observer import outcome, reference_accumulate

from tmrv32 import encode as E
from tmrv32.kernel import (
    EDGE_ALIGNED,
    Discrepancy,
    Flip,
    Halt,
    Kernel,
    Repair,
    Retire,
    SystemConfig,
)
from tmrv32.seu import (
    CampaignConfig,
    FaultSpec,
    counter_crosscheck,
    run_campaign,
)
from tmrv32.tmr import Domain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WORD_ROW, BYTE_ROW, LOAD_ROW = 256, 257, 258


def store_program(iterations=200):
    """A loop that stores a word to WORD_ROW, a byte to bits 8..15 of BYTE_ROW and
    loads LOAD_ROW; about 1800 cycles to halt."""
    p = E.Program()
    p.emit(E.addi(1, 0, 4 * WORD_ROW))
    p.emit(E.addi(2, 0, iterations))
    p.label("loop")
    p.emit(E.sw(2, 1, 0))
    p.emit(E.sb(2, 1, 5))
    p.emit(E.lw(3, 1, 8))
    p.emit(E.addi(2, 2, -1))
    p.branch(E.bne, 2, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def assert_accumulate_matches(config):
    got = outcome(run_campaign, config)
    assert got == outcome(reference_accumulate, config)
    return got


def _accumulate(image, faults, **kw):
    system = kw.pop("system", None) or SystemConfig(image=image)
    return CampaignConfig(system=system, faults=faults, mode="accumulate", **kw)


def _cell(at, key, replica=0, bit=0, **kw):
    return FaultSpec(at_cycle=at, kind="cell", key=key, replica=replica, bit=bit, **kw)


def _row(at, row, replica=0, bit=0, **kw):
    return FaultSpec(at_cycle=at, kind="sram", key=row, replica=replica, bit=bit, **kw)


def _records(got):
    return [json.loads(line) for line in got[0].splitlines()]


# ---------------------------------------------------------------------------
# the records the kernel writes
# ---------------------------------------------------------------------------


def test_stream_of_a_cell_flip_and_its_refresh():
    kernel = Kernel(SystemConfig(image=alu_block_program(30).assemble(), record_events=True))
    kernel.schedule_flip(10, "cell", "core.x1", 2, 4)
    kernel.schedule_flip(12, "cell", "core.x3", 0, 1, phase=EDGE_ALIGNED)
    kernel.run()
    events = [r for r in kernel.sink if type(r) is not Retire]
    assert events == [
        Flip(10, "core.x1", 2, 4, False),
        Discrepancy(10, Domain.CORE, "core.x1", "cell"),
        Repair(11, "core.x1"),
        Flip(13, "core.x3", 0, 1, False),
        Discrepancy(13, Domain.CORE, "core.x3", "cell"),
        Repair(14, "core.x3"),
        Halt(kernel.cycle - 1, "ebreak"),
    ]
    retires = [r for r in kernel.sink if type(r) is Retire]
    assert len(retires) == kernel.arch.retired and retires[0].pc == 0


def test_no_sink_by_default():
    # Every run keeps its stream; what the default omits is the Retire records.
    kernels = []
    for record_events in (True, False):
        kernel = Kernel(SystemConfig(image=store_program(), record_events=record_events))
        kernel.schedule_flip(3, "sram", 40, 0, 0)  # repaired by the scrubber
        kernel.schedule_flip(30, "sram", WORD_ROW, 0, 0)  # repaired by a store
        kernel.run_cycles(100)
        assert not kernel.sram.dirty
        kernels.append(kernel)
    recorded, default = kernels
    assert default.sink == [r for r in recorded.sink if type(r) is not Retire]
    assert {r.target for r in default.sink if type(r) is Repair} == {40, WORD_ROW}
    assert not any(type(r) is Retire for r in default.sink)


def test_a_toggle_back_is_a_repair_in_the_same_cycle():
    kernel = Kernel(SystemConfig(image=alu_block_program(30).assemble(), record_events=True))
    for kind, key in (("cell", "core.x2"), ("cell", "core.x2"), ("sram", 900), ("sram", 900)):
        kernel.schedule_flip(5, kind, key, 1, 3)
    kernel.run_cycles(20)
    assert [r for r in kernel.sink if type(r) is not Retire] == [
        Flip(5, "core.x2", 1, 3, False),
        Flip(5, "core.x2", 1, 3, False),
        Repair(5, "core.x2"),
        Flip(5, 900, 1, 3, False),
        Flip(5, 900, 1, 3, False),
        Repair(5, 900),
    ]
    assert kernel.event_totals == {Domain.CORE: 0, Domain.SRAM: 0, Domain.PERIPHERALS: 0}


@pytest.mark.parametrize("divider", [1, 3])
def test_a_row_toggled_back_before_its_write_back_is_repaired_once(divider):
    # The core halts at once. The scrubber reads row 50 at its 51st step, finds it
    # dirty and votes it; the next cycle a second flip toggles the bit back before
    # the write-back. The flip repaired the row, so the write-back, which still
    # runs, finds it clean and logs no Repair of its own.
    read = 50 * divider
    kernel = Kernel(SystemConfig(image=E.ebreak().to_bytes(4, "little"), scrub_divider=divider))
    kernel.schedule_flip(read, "sram", 50, 1, 3)
    kernel.schedule_flip(read + 1, "sram", 50, 1, 3)
    kernel.run_cycles(read + 2 * divider)
    assert kernel.sink[1:] == [
        Flip(read, 50, 1, 3, False),
        Flip(read + 1, 50, 1, 3, False),
        Repair(read + 1, 50),
        Discrepancy(read + divider, Domain.SRAM, 50, "scrub"),
    ]
    assert type(kernel.sink[0]) is Halt and kernel.scrubber.row_ptr.value == 51


def test_sram_repairs_by_word_store_byte_store_and_scrubber():
    kernel = Kernel(SystemConfig(image=store_program(), record_events=True))
    kernel.schedule_flip(30, "sram", WORD_ROW, 1, 20)
    kernel.schedule_flip(30, "sram", BYTE_ROW, 2, 9)  # inside the stored byte lane
    kernel.schedule_flip(30, "sram", 600, 0, 5)  # the program never touches it
    kernel.run_cycles(700)
    repairs = {r.target: r.cycle for r in kernel.sink if type(r) is Repair}
    seen = {(r.element, r.source) for r in kernel.sink if type(r) is Discrepancy}
    assert set(repairs) == {WORD_ROW, BYTE_ROW, 600}
    assert repairs[WORD_ROW] < 40 and repairs[BYTE_ROW] < 40  # the next loop iteration
    assert (WORD_ROW, "core-read") not in seen and (BYTE_ROW, "core-read") not in seen
    assert (600, "scrub") in seen and repairs[600] == 601
    assert not kernel.sram.dirty


def test_byte_store_outside_the_flipped_bit_leaves_the_row_dirty():
    kernel = Kernel(SystemConfig(image=store_program(), record_events=True, scrub_enabled=False))
    kernel.schedule_flip(30, "sram", BYTE_ROW, 2, 20)  # outside bits 8..15
    kernel.run_cycles(200)
    assert not any(type(r) is Repair for r in kernel.sink)
    assert BYTE_ROW in kernel.sram.dirty


def test_scrubber_cell_repaired_by_its_own_write_in_the_flip_cycle():
    kernel = Kernel(SystemConfig(image=alu_block_program(30).assemble(), record_events=True))
    kernel.schedule_flip(7, "cell", "sram.scrub_row_ptr", 0, 0)
    kernel.run_cycles(10)
    assert [r for r in kernel.sink if type(r) is not Retire] == [
        Flip(7, "sram.scrub_row_ptr", 0, 0, False),
        Discrepancy(7, Domain.SRAM, "sram.scrub_row_ptr", "cell"),
        Repair(7, "sram.scrub_row_ptr"),
    ]


def test_core_read_and_scrub_write_back_of_one_row_count_once():
    # the core fetches row 3 in the cycle the scrubber writes it back
    kernel = Kernel(SystemConfig(image=store_program(), record_events=True))
    kernel.schedule_flip(1, "sram", 3, 0, 1)
    kernel.run_cycles(10)
    records = [r for r in kernel.sink if type(r) is Discrepancy]
    assert records == [
        Discrepancy(4, Domain.SRAM, 3, "core-read"),
        Discrepancy(4, Domain.SRAM, 3, "scrub"),
    ]
    assert kernel.event_totals[Domain.SRAM] == 1
    assert kernel.counters.values() == (0, 1, 0)


# ---------------------------------------------------------------------------
# accumulate campaigns against the per-cycle observer
# ---------------------------------------------------------------------------


def _scrub_soak(seed):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads.ScrubSoak(seed)


@pytest.mark.parametrize("seed", [0, 5])
def test_scrub_soak_configs_match_reference(seed):
    configs = _scrub_soak(seed).configs
    for config in configs[:4]:
        short = dataclasses.replace(config, run_cycles=30_000)
        _, summary, _ = assert_accumulate_matches(short)
        assert summary["faults"] > 0


def test_full_length_scrub_soak_campaign_matches_reference():
    config = _scrub_soak(5).configs[0]
    assert config.run_cycles == 200_000
    records, summary, golden = assert_accumulate_matches(config)
    assert summary["faults"] > 30 and summary["run_diverged"] is False


class _CountingSteps:
    def __init__(self, monkeypatch):
        self.steps = 0
        step = Kernel.step_cycle

        def counting_step(kernel):
            self.steps += 1
            step(kernel)

        monkeypatch.setattr(Kernel, "step_cycle", counting_step)


def test_a_faulted_scrub_soak_run_fast_forwards(monkeypatch):
    config = _scrub_soak(0).configs[1]
    count = _CountingSteps(monkeypatch)
    report = run_campaign(config)
    assert report.summary["faults"] > 30 and counter_crosscheck(report)
    # golden and the faulted run together, of 2 x 200 000 cycles
    assert count.steps < 2000


def test_an_accumulate_run_schedules_its_flips_in_cycle_order(monkeypatch):
    # Poisson arrivals are drawn per domain, so in fault order the sram and periph
    # upsets come before the last core one; the run schedules them sorted by cycle,
    # so that no flip costs a rebuild of the kernel's schedule.
    cycles = []
    schedule_flip = Kernel.schedule_flip

    def spying_schedule_flip(kernel, cycle, *args, **kw):
        cycles.append(cycle)
        schedule_flip(kernel, cycle, *args, **kw)

    monkeypatch.setattr(Kernel, "schedule_flip", spying_schedule_flip)
    config = dataclasses.replace(_scrub_soak(0).configs[0], seed=1)
    report = run_campaign(config)
    assert len(cycles) == sum(r["count"] for r in report.records) > 30
    assert cycles == sorted(cycles)
    assert [r["index"] for r in report.records] == list(range(len(report.records)))


def test_faults_listed_out_of_cycle_order_match_reference():
    image = acceptance_program().assemble()
    faults = [
        _cell(150, "core.x6", 1, 2),
        _cell(40, "core.x5", 2, 7), _cell(40, "core.x5", 2, 7),  # a toggle back: Flip, Repair
        _row(90, 700, 0, 4),
        _cell(40, "periph.gpio_out", 0, 1),  # the same cycle, another domain
        _row(40, 13, 1, 3),
        _cell(12, "core.x7", 0, 4, phase=EDGE_ALIGNED),
        _cell(90, "sram.scrub_row_ptr", 2, 0, count=2),
        _row(12, 700, 2, 9),
    ]
    rates = {"core": 0.004, "sram": 0.004, "periph": 0.002}
    config = _accumulate(image, faults, rates=rates, run_cycles=2500, seed=7,
                         edge_aligned_fraction=0.5)
    records = _records(assert_accumulate_matches(config))
    assert len(records) > len(faults) + 10
    assert [r["correction_latency_cycles"] for r in records[1:3]] == [0, 0]


def test_repeated_flips_of_one_target():
    image = acceptance_program().assemble()
    faults = [
        _cell(20, "core.x6", 0, 3), _cell(21, "core.x6", 1, 3), _cell(21, "core.x6", 2, 8),
        _cell(22, "core.x6", 0, 3, phase=EDGE_ALIGNED), _cell(60, "core.x6", 2, 1),
        _row(10, 700, 0, 4), _row(12, 700, 1, 9), _row(300, 700, 2, 4), _row(15, 12, 0, 2),
        _row(16, 12, 1, 5),
    ]
    assert_accumulate_matches(_accumulate(image, faults, run_cycles=9000))


def test_toggle_back_within_one_cycle():
    image = acceptance_program().assemble()
    faults = [
        _cell(30, "core.x5", 1, 2), _cell(30, "core.x5", 1, 2),
        _cell(40, "core.x7", 0, 4, phase=EDGE_ALIGNED), _cell(40, "core.x7", 0, 4, phase=EDGE_ALIGNED),
        _row(35, 900, 2, 6), _row(35, 900, 2, 6), _row(50, 13, 0, 1), _row(50, 13, 0, 1),
    ]
    records = _records(assert_accumulate_matches(_accumulate(image, faults, run_cycles=500)))
    assert [r["correction_latency_cycles"] for r in records] == [0, 0, 1, 1, 1, 1, 1, 1]


def test_vote_changing_flip_before_another_faults_cycle():
    image = acceptance_program().assemble()
    faults = [
        _cell(100, "core.x9", 0, 4),  # single, but after the double below
        _cell(40, "core.x9", 0, 4, count=2),
        _row(300, 800, 0, 3),
        _row(20, 800, 1, 7, count=2),
        _cell(50, "core.x10", 2, 0),  # another target: unaffected
    ]
    records = _records(assert_accumulate_matches(_accumulate(image, faults, run_cycles=9000)))
    assert [r["uncorrectable"] for r in records] == [True, True, True, True, False]


def test_edge_aligned_flip_into_an_already_dirty_cell():
    image = acceptance_program().assemble()
    faults = [
        # two edge-aligned flips land in one edge; the second finds the cell dirty
        _cell(30, "core.x6", 0, 1, phase=EDGE_ALIGNED), _cell(30, "core.x6", 1, 5, phase=EDGE_ALIGNED),
        # a mid-cycle flip, then an edge-aligned one of the same cycle landing one edge later
        _cell(50, "core.x5", 2, 3), _cell(50, "core.x5", 0, 7, phase=EDGE_ALIGNED),
        # a mid-cycle flip into the cycle an edge-aligned flip landed in
        _cell(70, "periph.gpio_out", 0, 2, phase=EDGE_ALIGNED), _cell(71, "periph.gpio_out", 1, 2),
        _cell(90, "periph.seu_count_core", 0, 3), _cell(90, "sram.scrub_row_ptr", 1, 0),
        _cell(91, "sram.scrub_phase", 0, 0, phase=EDGE_ALIGNED),
    ]
    assert_accumulate_matches(_accumulate(image, faults, run_cycles=600, seed=2))


def test_sram_rows_repaired_by_stores_and_scrubber():
    faults = [
        _row(30, WORD_ROW, 1, 20), _row(31, BYTE_ROW, 2, 9), _row(32, BYTE_ROW, 0, 22),
        _row(33, LOAD_ROW, 1, 1), _row(34, 600, 0, 5), _row(1, 3, 0, 1),
        _row(900, WORD_ROW, 0, 3, count=2), _row(950, BYTE_ROW, 1, 12, count=3),
        _row(960, 5000, 0, 30, count=2), _row(970, 5001, 2, 30, count=3),
    ]
    for run_cycles in (None, 9000):
        for scrub_divider in (1, 3):
            system = SystemConfig(image=store_program(), scrub_divider=scrub_divider)
            config = _accumulate(None, faults, system=system, run_cycles=run_cycles, seed=4)
            assert_accumulate_matches(config)


def test_fault_in_the_last_cycle_stays_open():
    image = acceptance_program().assemble()
    faults = [
        _cell(499, "core.x6", 0, 1), _cell(499, "core.x7", 1, 2, phase=EDGE_ALIGNED),
        _cell(498, "core.x8", 1, 2, phase=EDGE_ALIGNED), _row(499, 4000, 0, 0),
        _row(400, 4001, 0, 0),
    ]
    records = _records(assert_accumulate_matches(_accumulate(image, faults, run_cycles=500)))
    assert [r["correction_latency_cycles"] for r in records] == [None, None, None, None, None]
    assert [r["detected"] for r in records] == [True, False, True, False, False]


@pytest.mark.parametrize("golden_compare", [True, False])
def test_run_to_halt_and_without_golden_compare(golden_compare):
    image = acceptance_program().assemble()
    faults = [FaultSpec(at_cycle=5 + 9 * i, kind="random", key=d)
              for i, d in enumerate(("core", "sram", "periph") * 8)]
    faults.append(_cell(1000, "core.x6", 0, 1))  # after the halt: never lands
    config = _accumulate(image, faults, golden_compare=golden_compare, seed=8,
                         edge_aligned_fraction=0.5)
    _, summary, golden = assert_accumulate_matches(config)
    assert (golden is None) != golden_compare


def test_crash_and_hang_raise_like_the_reference():
    image = acceptance_program().assemble()
    system = SystemConfig(image=image, max_cycles=2000)
    for key, bit in (("core.pc", 20), ("core.x5", 31)):
        faults = [_cell(30, key, 0, bit, count=2), _cell(10, "core.x1", 0, 0)]
        got = assert_accumulate_matches(_accumulate(None, faults, system=system))
        assert got[0] == "raises"


def test_accumulate_edge_cases_match_reference():
    image = acceptance_program().assemble()
    halt = Kernel(SystemConfig(image=image)).run().cycles
    at_reset = [
        _cell(0, "core.x1", 1, 2), _cell(0, "core.pc", 2, 3, phase=EDGE_ALIGNED),
        _row(0, 3, 0, 1), _cell(40, "core.x6", 0, 5),
    ]
    after_halt = [_cell(halt + 3, "core.x6", 0, 1), _row(halt + 50, 12, 1, 2, count=2)]
    for faults in (at_reset, after_halt, []):
        for run_cycles in (None, 700):
            for golden_compare in (True, False):
                config = _accumulate(image, faults, run_cycles=run_cycles,
                                     golden_compare=golden_compare)
                records = _records(assert_accumulate_matches(config))
                assert len(records) == len(faults)
    # past the halt in run-to-halt mode, no fault lands
    config = _accumulate(image, after_halt)
    assert [r["event_totals"] for r in run_campaign(config).records] == [
        {"core": 0, "periph": 0, "sram": 0}
    ] * 2


def test_crash_without_golden_compare_raises_like_the_reference():
    system = SystemConfig(image=acceptance_program().assemble(), max_cycles=2000)
    for key, bit in (("core.pc", 20), ("core.x5", 31)):
        faults = [_cell(10, "core.x1", 0, 0), _cell(30, key, 0, bit, count=2)]
        config = _accumulate(None, faults, system=system, golden_compare=False)
        got = assert_accumulate_matches(config)
        assert got[0] == "raises"


def test_the_faulted_run_starts_at_the_first_injection_cycle(monkeypatch):
    resumed_at = []
    resume = Kernel.resume

    def recording_resume(kernel, checkpoint):
        resume(kernel, checkpoint)
        resumed_at.append(kernel.cycle)

    monkeypatch.setattr(Kernel, "resume", recording_resume)
    faults = [_cell(120, "core.x6", 0, 1), _row(90, 700, 1, 4)]
    run_campaign(_accumulate(acceptance_program().assemble(), faults, run_cycles=600))
    assert resumed_at == [90]  # one faulted run, from golden's state at its first flip


def test_random_accumulate_campaigns_match_reference():
    rng = np.random.default_rng(2026)
    images = [acceptance_program().assemble(), store_program(), alu_block_program(40).assemble()]
    for i in range(12):
        system = SystemConfig(
            image=images[i % 3], scrub_enabled=bool(i % 4), scrub_divider=int(rng.integers(1, 4))
        )
        rates = {name: float(rng.uniform(0, 0.01)) for name in ("core", "sram", "periph")}
        config = CampaignConfig(
            system=system, rates=rates, run_cycles=int(rng.integers(300, 3000)),
            mode="accumulate", seed=int(rng.integers(1 << 20)), edge_aligned_fraction=0.5,
            faults=[_row(int(rng.integers(0, 60)), int(rng.integers(0, 12)), 0, 3, count=2)],
        )
        assert_accumulate_matches(config)
