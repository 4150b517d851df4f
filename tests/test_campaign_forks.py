"""Isolated campaigns against a reference that simulates every fault from cycle 0.

``reference_isolated`` is the plain way to run an isolated campaign: one golden
run, then one fresh kernel per fault, run from cycle 0 to the end and observed
cycle by cycle. The campaign engine must give byte-identical records and
summaries, or raise the same exception type with the same message.
"""

import gc
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import acceptance_program, alu_block_program
from reference_observer import outcome, reference_isolated

from tmrv32 import encode as E
from tmrv32.errors import BusFault
from tmrv32.kernel import EDGE_ALIGNED, MID_CYCLE, Halt, Kernel, SystemConfig
from tmrv32.memory import SEU_COUNTER_BASE
from tmrv32.seu import CampaignConfig, FaultSpec, run_campaign
from tmrv32.tmr import Domain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COUNTER_CELLS = ("periph.seu_count_core", "periph.seu_count_sram", "periph.seu_count_periph")


def assert_matches_reference(config):
    got = outcome(run_campaign, config)
    assert got == outcome(reference_isolated, config)
    return got


def _campaign(image, faults, **kw):
    system = kw.pop("system", None) or SystemConfig(image=image)
    return CampaignConfig(system=system, faults=faults, **kw)


def _golden_cycles(system):
    kernel = Kernel(system)
    kernel.run()
    return kernel.cycle


# ---------------------------------------------------------------------------
# the acceptance campaigns
# ---------------------------------------------------------------------------


def _sweep_config(phase):
    system = SystemConfig(image=acceptance_program().assemble())
    window = _golden_cycles(system) - 25
    kernel = Kernel(system)
    targets = [
        (eid, bit)
        for domain in (Domain.CORE, Domain.PERIPHERALS)
        for eid in kernel.cells_in_domain(domain)
        for bit in range(kernel.registry[eid].width)
    ]
    faults = [
        FaultSpec(at_cycle=5 + (7 * i) % window, kind="cell", key=eid, replica=i % 3,
                  bit=bit, phase=phase)
        for i, (eid, bit) in enumerate(targets)
    ]
    return CampaignConfig(system=system, faults=faults, seed=1)


@pytest.mark.parametrize("phase", [MID_CYCLE, EDGE_ALIGNED])
def test_criteria_1_2_sweeps_match_reference(phase):
    records, summary, _ = assert_matches_reference(_sweep_config(phase))
    assert summary["faults"] == 1326 and summary["diverged"] == 0


def test_criterion_4_double_fault_matches_reference():
    system = SystemConfig(image=acceptance_program().assemble())
    faults = [FaultSpec(at_cycle=25, kind="cell", key="core.x6", replica=0, bit=9, count=2)]
    _, summary, _ = assert_matches_reference(CampaignConfig(system=system, faults=faults, seed=3))
    assert summary["diverged"] == 1


def test_criterion_5_sram_campaign_matches_reference():
    system = SystemConfig(image=acceptance_program().assemble())
    rng = np.random.default_rng(17)
    faults = [
        FaultSpec(at_cycle=int(rng.integers(0, 4000)), kind="sram",
                  key=int(rng.integers(0, 8192)), replica=int(rng.integers(3)),
                  bit=int(rng.integers(32)))
        for _ in range(50)
    ]
    assert_matches_reference(
        CampaignConfig(system=system, faults=faults, run_cycles=14000, seed=21)
    )


def test_criterion_8_random_core_campaign_matches_reference():
    system = SystemConfig(image=acceptance_program().assemble())
    faults = [FaultSpec(at_cycle=10 + i, kind="random", key="core") for i in range(100)]
    assert_matches_reference(CampaignConfig(system=system, faults=faults, seed=4242))


@pytest.mark.parametrize("seed", [0, 3])
def test_every_campaign_sweep_config_matches_reference(seed):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    sweep = workloads.CampaignSweep(seed)
    raised = 0
    for config in sweep.configs:
        got = assert_matches_reference(config)
        raised += got[0] == "raises"
    assert raised < len(sweep.double_jobs)


# ---------------------------------------------------------------------------
# timing corners: at and after the golden halt, and past the end of the run
# ---------------------------------------------------------------------------


def _late_faults(halt):
    faults = []
    for cycle in (halt - 3, halt - 2, halt - 1, halt, halt + 1, halt + 40):
        faults.append(FaultSpec(at_cycle=cycle, kind="cell", key="core.x6", replica=1, bit=3))
        faults.append(FaultSpec(at_cycle=cycle, kind="cell", key="periph.gpio_out", replica=2,
                                bit=1, phase=EDGE_ALIGNED))
        faults.append(FaultSpec(at_cycle=cycle, kind="cell", key="core.x6", replica=0, bit=5,
                                count=2))
        faults.append(FaultSpec(at_cycle=cycle, kind="sram", key=3, replica=0, bit=7))
    return faults


def test_faults_at_and_after_golden_halt_in_run_mode():
    image = acceptance_program().assemble()
    halt = _golden_cycles(SystemConfig(image=image)) - 1  # the cycle that executes ebreak
    assert_matches_reference(_campaign(image, _late_faults(halt), seed=5))


def test_faults_at_and_after_golden_halt_in_run_cycles_mode():
    image = acceptance_program().assemble()
    halt = _golden_cycles(SystemConfig(image=image)) - 1
    length = halt + 30  # some faults land after the halt, some past the end of the run
    faults = _late_faults(halt) + [
        FaultSpec(at_cycle=length - 1, kind="cell", key="core.x6", replica=1, bit=3),
        FaultSpec(at_cycle=length, kind="cell", key="core.x6", replica=1, bit=3),
        FaultSpec(at_cycle=length - 1, kind="sram", key=9, replica=2, bit=0),
    ]
    assert_matches_reference(_campaign(image, faults, run_cycles=length, seed=5))


def test_sram_faults_in_isolated_mode():
    # rows the program fetches and stores to, with the scrubber on, slowed, and off
    image = acceptance_program().assemble()
    rows = (0, 5, 12, 0x4000 // 4, 0x4000 // 4 + 1, 8191)
    faults = [
        FaultSpec(at_cycle=3 + 17 * i, kind="sram", key=row, replica=i % 3, bit=(5 * i) % 32)
        for i, row in enumerate(rows)
    ] + [FaultSpec(at_cycle=40, kind="sram", key=0x4000 // 4, replica=0, bit=2, count=2)]
    for system in (
        SystemConfig(image=image),
        SystemConfig(image=image, scrub_divider=3),
        SystemConfig(image=image, scrub_enabled=False),
    ):
        assert_matches_reference(_campaign(image, faults, system=system))
        assert_matches_reference(_campaign(image, faults, system=system, run_cycles=600))


@pytest.mark.parametrize("program, fault, run_cycles", [
    # x9 is written by the 8th instruction and never read
    (alu_block_program(200),
     FaultSpec(at_cycle=3, kind="cell", key="core.x9", replica=0, bit=4, count=2), 600),
    # the loop's first store rewrites the row before any load reads it
    (acceptance_program(),
     FaultSpec(at_cycle=30, kind="sram", key=0x4000 // 4, replica=1, bit=9), 1000),
], ids=["double-upset-overwritten", "sram-upset-stored-over"])
def test_an_upset_overwritten_before_use_runs_on_like_golden(program, fault, run_cycles):
    # the fork equals golden long before its run ends, which it runs to anyway
    config = _campaign(program.assemble(), [fault], run_cycles=run_cycles)
    records, summary, _ = assert_matches_reference(config)
    record = json.loads(records)
    assert record["diverged"] is False and summary["diverged"] == 0
    if fault.kind == "cell":
        assert record["uncorrectable"]  # the vote changed, so no early match applies
    else:
        assert not record["detected"] and record["correction_latency_cycles"] < 10


def test_double_upsets_into_the_counter_cells():
    image = acceptance_program().assemble()
    faults = [
        FaultSpec(at_cycle=20 + 9 * i, kind="cell", key=key, replica=i % 3, bit=bit, count=count,
                  phase=EDGE_ALIGNED if i % 2 else MID_CYCLE)
        for i, (key, bit, count) in enumerate(
            (key, bit, count) for key in COUNTER_CELLS for bit in (0, 31) for count in (1, 2, 3)
        )
    ]
    _, summary, _ = assert_matches_reference(_campaign(image, faults, seed=8))
    assert summary["uncorrectable"] > 0


def test_triple_flips_match_reference():
    # count=3 corrupts the value without any discrepancy to detect
    image = acceptance_program().assemble()
    faults = [
        FaultSpec(at_cycle=12 + 11 * i, kind="cell", key=key, replica=i % 3, bit=i, count=3)
        for i, key in enumerate(("core.x6", "core.x2", "core.x30", "core.fetch_valid",
                                 "core.wb_rd", "periph.uart_tx_data", "sram.scrub_row_ptr"))
    ]
    assert_matches_reference(_campaign(image, faults, seed=2))


def test_golden_compare_off_matches_reference():
    image = acceptance_program().assemble()
    faults = [FaultSpec(at_cycle=10 + 5 * i, kind="random", key="core") for i in range(30)]
    faults.append(FaultSpec(at_cycle=25, kind="cell", key="core.x6", replica=0, bit=9, count=2))
    records, summary, golden = assert_matches_reference(
        _campaign(image, faults, seed=6, golden_compare=False)
    )
    assert golden is None and summary["diverged"] == 0


def test_stimulus_config_matches_reference():
    p = E.Program()
    p.emit(E.lui(10, 0x10001))  # UART
    p.emit(E.lui(11, 0x10000))  # GPIO
    p.emit(E.addi(5, 0, 60))
    p.label("poll")
    p.emit(E.lw(6, 10, 4))  # RX byte or the empty marker
    p.emit(E.lw(7, 11, 8))  # input pins
    p.emit(E.add(8, 8, 6))
    p.emit(E.xor(9, 9, 7))
    p.emit(E.addi(5, 5, -1))
    p.branch(E.bne, 5, 0, "poll")
    p.emit(E.sw(8, 10, 0))
    p.emit(E.ebreak())
    stimulus = (("gpio-in", 30, 3, 1), ("uart-rx", 45, 0x41), ("uart-rx", 50, 0x42),
                ("gpio-in", 90, 3, 0), ("uart-rx", 200, 0x43), ("gpio-in", 400, 7, 1))
    system = SystemConfig(image=p.assemble(), stimulus=stimulus)
    faults = [FaultSpec(at_cycle=8 + 13 * i, kind="random", key="periph") for i in range(24)]
    faults += [FaultSpec(at_cycle=8 + 13 * i, kind="random", key="core") for i in range(24)]
    faults.append(FaultSpec(at_cycle=44, kind="cell", key="periph.uart_rx_valid", replica=0,
                            bit=0, count=2))
    assert_matches_reference(_campaign(None, faults, system=system, seed=12,
                                       edge_aligned_fraction=0.5))
    assert_matches_reference(_campaign(None, faults, system=system, seed=12, run_cycles=500))


def _counter_reading_program():
    """Work, a delay loop, then the core SEU counter read into x7 and stored to GPIO."""
    p = E.Program()
    p.emit(E.addi(1, 0, 3))
    p.emit(E.addi(2, 0, 40))
    p.label("wait")
    p.emit(E.add(3, 3, 1))
    p.emit(E.addi(2, 2, -1))
    p.branch(E.bne, 2, 0, "wait")
    p.emit(E.lui(6, SEU_COUNTER_BASE >> 12))
    p.emit(E.lw(7, 6, 0))
    p.emit(E.lui(11, 0x10000))
    p.emit(E.sw(7, 11, 4))
    p.emit(E.ebreak())
    return p.assemble()


def test_counter_read_after_injection_keeps_the_fork_running():
    # The forks match golden again long before the counter read, but golden reads
    # the counter block later, so none may stop there: the count reaches x7.
    image = _counter_reading_program()
    faults = [
        FaultSpec(at_cycle=10 + 7 * i, kind="cell", key=key, replica=i % 3, bit=2)
        for i, key in enumerate(("core.x1", "core.x3", "core.x2", "core.x4"))
    ]
    config = _campaign(image, faults, seed=1)
    records, summary, golden = assert_matches_reference(config)
    assert golden["regs"][7] == 0
    assert summary["diverged"] == len(faults)
    report = run_campaign(config)
    for rec in report.records:
        assert rec["counters"][0] >= 1 and rec["correction_latency_cycles"] <= 1
    kernel = Kernel(config.system)
    kernel.schedule_flip(10, "cell", "core.x1", 0, 2)
    kernel.run()
    assert kernel.arch.read_reg(7) == report.records[0]["counters"][0]


def test_reruns_after_a_counter_read_reuse_the_fork_kernels(monkeypatch):
    image = _counter_reading_program()
    faults = [FaultSpec(at_cycle=10 + i, kind="random", key="core") for i in range(80)]
    count = _Counting(monkeypatch)
    report = run_campaign(_campaign(image, faults, seed=3))
    assert report.summary["diverged"] > 0
    # golden, the one fork kernel, and one to checkpoint the reset state
    assert count.kernels <= 3


def test_counter_read_before_injection_allows_early_stop():
    image = _counter_reading_program()
    halt = _golden_cycles(SystemConfig(image=image)) - 1
    faults = [FaultSpec(at_cycle=halt - 2, kind="cell", key="core.x3", replica=0, bit=4)]
    _, summary, _ = assert_matches_reference(_campaign(image, faults))
    assert summary["diverged"] == 0


def test_counter_read_while_a_single_upset_resolves_matches_reference():
    # A single-replica cell upset is recorded with no compare. Near the program's one
    # SEU counter read, the read comes before, on or after the cycle where the
    # upset's increment lands; each fault must still give the reference's record.
    image = _counter_reading_program()
    kernel = Kernel(SystemConfig(image=image))
    while not kernel.counters.reads:
        kernel.step_cycle()
    read = kernel.cycle - 1
    faults = [
        FaultSpec(at_cycle=c, kind="cell", key=key, replica=c % 3, bit=1, phase=phase)
        for c in range(read - 3, read + 2)
        for key in ("core.x5", "periph.seu_count_core")
        for phase in (MID_CYCLE, EDGE_ALIGNED)
    ]
    _, summary, _ = assert_matches_reference(_campaign(image, faults))
    assert 0 < summary["diverged"] < len(faults)


# ---------------------------------------------------------------------------
# crashes, hangs and their order
# ---------------------------------------------------------------------------


def test_crashing_double_upsets_raise_the_reference_exception():
    image = acceptance_program().assemble()
    for key, bit in (("core.pc", 20), ("core.x28", 30)):
        faults = [FaultSpec(at_cycle=20, kind="cell", key=key, replica=0, bit=bit, count=2)]
        got = assert_matches_reference(_campaign(image, faults))
        assert got[0] == "raises"


def test_first_fault_in_index_order_decides_the_exception():
    # the later-index crash is injected first; the earlier-index one must win
    image = acceptance_program().assemble()
    faults = [
        FaultSpec(at_cycle=5, kind="cell", key="core.x6", replica=1, bit=0),
        FaultSpec(at_cycle=60, kind="cell", key="core.x28", replica=0, bit=30, count=2),
        FaultSpec(at_cycle=20, kind="cell", key="core.pc", replica=0, bit=20, count=2),
    ]
    got = assert_matches_reference(_campaign(image, faults))
    assert got[:2] == ("raises", "BusFault") and "unmapped" in got[2]


def _counter_crash_program():
    """A delay loop, then the core SEU counter read into x7 and a load from x7 << 29.

    Fault-free it reads 0 and loads from SRAM; a run whose core counter reads 1
    loads from 0x20000100, which nothing maps."""
    p = E.Program()
    p.emit(E.addi(2, 0, 10))
    p.label("wait")
    p.emit(E.addi(2, 2, -1))
    p.branch(E.bne, 2, 0, "wait")
    p.emit(E.lui(6, SEU_COUNTER_BASE >> 12))
    p.emit(E.lw(7, 6, 0))
    p.emit(E.slli(9, 7, 29))
    p.emit(E.lw(8, 9, 0x100))
    p.emit(E.ebreak())
    return p.assemble()


# a fork that matches golden early, then is rerun from reset and crashes there
_RERUN_CRASH = FaultSpec(at_cycle=6, kind="cell", key="core.x5", replica=0, bit=3)
# a later-index fault that crashes earlier in time
_EARLY_CRASH = FaultSpec(at_cycle=4, kind="cell", key="core.pc", replica=0, bit=20, count=2)


@pytest.mark.parametrize("faults, message", [
    ([_RERUN_CRASH], "0x20000100: read from unmapped address"),
    ([_RERUN_CRASH, _EARLY_CRASH], "0x20000100: read from unmapped address"),
    ([_EARLY_CRASH, _RERUN_CRASH], "instruction fetch outside SRAM"),
])
def test_a_rerun_from_reset_that_raises(faults, message):
    got = assert_matches_reference(_campaign(_counter_crash_program(), faults))
    assert got[:2] == ("raises", "BusFault") and message in got[2]


def test_the_rerun_is_what_raises(monkeypatch):
    count = _Counting(monkeypatch)
    with pytest.raises(BusFault, match="0x20000100"):
        run_campaign(_campaign(_counter_crash_program(), [_RERUN_CRASH]))
    # golden, the fork, and the kernel that checkpoints the reset state: the fork
    # matched golden, so the crash came from its rerun
    assert count.kernels == 3


def test_hang_raises_simtimeout_like_the_reference():
    image = acceptance_program().assemble()
    golden = _golden_cycles(SystemConfig(image=image))
    system = SystemConfig(image=image, max_cycles=2 * golden)
    for key, bit in (("core.x5", 9), ("core.x5", 31)):
        faults = [FaultSpec(at_cycle=30, kind="cell", key=key, replica=0, bit=bit, count=2)]
        assert_matches_reference(_campaign(None, faults, system=system))


def _live_kernels():
    return sum(isinstance(obj, Kernel) for obj in gc.get_objects())


def test_a_campaign_that_raises_keeps_no_kernel_alive():
    # Each stored exception's traceback holds the engine; once the campaign has
    # raised, the engine must hold none of them, or its kernels would outlive it
    # until a cyclic garbage collection.
    image = acceptance_program().assemble()
    crash = FaultSpec(at_cycle=60, kind="cell", key="core.x28", replica=0, bit=30, count=2)
    campaigns = [
        _campaign(image, [FaultSpec(at_cycle=20, kind="cell", key=key, replica=0, bit=bit,
                                    count=2), crash])
        for key, bit in (("core.pc", 20), ("core.x28", 30))
    ]
    # a rerun from reset raises; a later-index fault raised first
    campaigns.append(_campaign(_counter_crash_program(), [_RERUN_CRASH, _EARLY_CRASH]))
    # golden crashes after a fork matched it, so the fork raises what golden raised
    system = SystemConfig(image=_crash_program(), max_cycles=300)
    faults = [FaultSpec(at_cycle=4, kind="cell", key="core.x1", replica=2, bit=0)]
    campaigns.append(_campaign(None, faults, system=system, golden_compare=False))
    gc.collect()
    gc.disable()
    try:
        for config in campaigns:
            before = _live_kernels()
            assert outcome(run_campaign, config)[:2] == ("raises", "BusFault")
            assert _live_kernels() == before
    finally:
        gc.enable()


def _spin_program():
    p = E.Program()
    p.emit(E.addi(1, 0, 1))
    p.label("spin")
    p.emit(E.add(2, 2, 1))
    p.branch(E.beq, 0, 0, "spin")
    return p.assemble()


def _crash_program():
    """Runs a short loop, then loads from an unmapped address."""
    p = E.Program()
    p.emit(E.addi(2, 0, 20))
    p.label("wait")
    p.emit(E.addi(2, 2, -1))
    p.branch(E.bne, 2, 0, "wait")
    p.emit(E.lui(3, 0x20000))
    p.emit(E.lw(4, 3, 0))
    p.emit(E.ebreak())
    return p.assemble()


@pytest.mark.parametrize("golden_compare", [True, False])
@pytest.mark.parametrize("program", [_spin_program, _crash_program])
def test_golden_that_hangs_or_crashes(program, golden_compare):
    system = SystemConfig(image=program(), max_cycles=300)
    faults = [
        FaultSpec(at_cycle=4, kind="cell", key="core.x1", replica=2, bit=0),
        FaultSpec(at_cycle=30, kind="cell", key="core.x3", replica=0, bit=12, count=2),
        FaultSpec(at_cycle=500, kind="cell", key="core.x2", replica=1, bit=1),
    ]
    for run_cycles in (None, 250):
        for chosen in (faults, faults[:1]):  # faults[:1] matches golden before it fails
            config = _campaign(None, chosen, system=system, run_cycles=run_cycles,
                               golden_compare=golden_compare)
            assert_matches_reference(config)


def test_no_faults_without_golden_compare_runs_nothing():
    system = SystemConfig(image=_spin_program(), max_cycles=10**9)
    report = run_campaign(CampaignConfig(system=system, golden_compare=False))
    assert report.records == [] and report.golden is None


def test_many_faults_at_one_cycle():
    image = alu_block_program(60).assemble()
    faults = [FaultSpec(at_cycle=15, kind="random", key=d) for d in ("core", "periph") * 30]
    faults += [FaultSpec(at_cycle=15, kind="sram", key=r, replica=0, bit=1) for r in range(40)]
    assert_matches_reference(_campaign(image, faults, seed=9, run_cycles=400))


# ---------------------------------------------------------------------------
# the work the engine does
# ---------------------------------------------------------------------------


class _Counting:
    """Counts Kernel constructions, simulated cycles, checkpoints and resumes while
    installed; ``built`` holds the kernels in the order they were built, golden first."""

    def __init__(self, monkeypatch):
        self.kernels = self.steps = self.checkpoints = self.resumes = 0
        self.built = []
        init, step = Kernel.__init__, Kernel.step_cycle
        checkpoint, resume = Kernel.checkpoint, Kernel.resume

        def counting_init(kernel, config):
            self.kernels += 1
            self.built.append(kernel)
            init(kernel, config)

        def counting_step(kernel):
            self.steps += 1
            step(kernel)

        def counting_checkpoint(kernel):
            self.checkpoints += 1
            return checkpoint(kernel)

        def counting_resume(kernel, state):
            self.resumes += 1
            resume(kernel, state)

        monkeypatch.setattr(Kernel, "__init__", counting_init)
        monkeypatch.setattr(Kernel, "step_cycle", counting_step)
        monkeypatch.setattr(Kernel, "checkpoint", counting_checkpoint)
        monkeypatch.setattr(Kernel, "resume", counting_resume)

    def calls(self):
        return self.kernels, self.checkpoints, self.resumes


def test_forks_stop_once_they_match_golden(monkeypatch):
    config = _sweep_config(EDGE_ALIGNED)
    golden = _golden_cycles(config.system)
    count = _Counting(monkeypatch)
    report = run_campaign(config)
    assert report.summary["diverged"] == 0
    # one golden run, then a few cycles per fault: an edge-aligned upset is
    # repaired two cycles after its injection cycle
    assert count.steps <= golden + 4 * len(config.faults)
    assert count.kernels <= 2


def test_live_forks_and_kernels_stay_bounded(monkeypatch):
    # 120 faults at one cycle, the SRAM ones unresolved for dozens of cycles: each
    # fork runs to its end in the one fork kernel before the next one starts
    image = alu_block_program(60).assemble()
    faults = [FaultSpec(at_cycle=15, kind="sram", key=r, replica=0, bit=1) for r in range(60)]
    faults += [FaultSpec(at_cycle=15, kind="random", key="core") for _ in range(60)]
    count = _Counting(monkeypatch)
    report = run_campaign(_campaign(image, faults, seed=4, run_cycles=300))
    assert report.summary["faults"] == 120
    assert count.kernels <= 2


# ---------------------------------------------------------------------------
# single-replica cell upsets carried in golden's own kernel
# ---------------------------------------------------------------------------


def _carry_campaign(image, faults, monkeypatch, **kw):
    """Run the campaign against the reference; return the engine's work as counted."""
    config = _campaign(image, faults, **kw)
    expected = outcome(reference_isolated, config)
    count = _Counting(monkeypatch)
    assert outcome(run_campaign, config) == expected
    return count


def test_lone_single_upsets_build_one_kernel_and_no_checkpoint(monkeypatch):
    # one upset per cycle, 3 cycles apart: each settles in golden before the next
    image = acceptance_program().assemble()
    window = _golden_cycles(SystemConfig(image=image)) - 25
    faults = [FaultSpec(at_cycle=c, kind="random", key=("core", "periph")[c % 2])
              for c in range(5, window, 3)]
    count = _carry_campaign(image, faults, monkeypatch, seed=7, edge_aligned_fraction=0.5)
    assert count.calls() == (1, 0, 0)
    # golden steps each upset's 2 or 3 settling cycles, once
    assert count.steps <= 3 * len(faults)


@pytest.mark.parametrize("phase", [MID_CYCLE, EDGE_ALIGNED])
@pytest.mark.parametrize("gap", [2, 3])
def test_a_next_fault_before_c_plus_3_needs_a_checkpoint(monkeypatch, phase, gap):
    # Golden stands at c + 2 once a mid-cycle upset at c has settled, and at c + 3 once
    # an edge-aligned one has (it is refreshed at c + 2): only a fault due before that
    # cycle must start from golden's state at c.
    image = acceptance_program().assemble()
    faults = [
        FaultSpec(at_cycle=30, kind="cell", key="core.x6", replica=1, bit=4, phase=phase),
        FaultSpec(at_cycle=30 + gap, kind="cell", key="core.x7", replica=2, bit=0, phase=phase),
    ]
    count = _carry_campaign(image, faults, monkeypatch)
    kernels, checkpoints, resumes = count.calls()
    assert kernels == 1  # no rebuild from reset
    assert checkpoints == (1 if gap == 2 and phase == EDGE_ALIGNED else 0)
    # golden goes back to c only if it settled past the next fault
    assert resumes == (1 if gap == 2 and phase == EDGE_ALIGNED else 0)


def test_one_cycle_with_several_single_upsets_and_a_double_upset(monkeypatch):
    image = acceptance_program().assemble()
    faults = [
        FaultSpec(at_cycle=40, kind="cell", key="core.x6", replica=0, bit=3),
        FaultSpec(at_cycle=40, kind="cell", key="core.x9", replica=1, bit=5, count=2),
        FaultSpec(at_cycle=40, kind="cell", key="periph.gpio_out", replica=2, bit=1,
                  phase=EDGE_ALIGNED),
        FaultSpec(at_cycle=40, kind="cell", key="periph.seu_count_core", replica=1, bit=0),
        FaultSpec(at_cycle=41, kind="cell", key="core.x1", replica=0, bit=0),
        FaultSpec(at_cycle=60, kind="cell", key="core.x2", replica=2, bit=7, phase=EDGE_ALIGNED),
        FaultSpec(at_cycle=60, kind="cell", key="core.x3", replica=0, bit=1),
    ]
    count = _carry_campaign(image, faults, monkeypatch)
    kernels, checkpoints, resumes = count.calls()
    # golden and the double upset's fork kernel; a checkpoint at 40 and at 60
    assert (kernels, checkpoints) == (2, 2)
    # the fork's resume; golden back at 40 for the 2nd and 3rd single upset there and
    # once more for cycle 41, and back at 60 for its 2nd upset
    assert resumes == 1 + 2 + 1 + 1


@pytest.mark.parametrize("run_cycles", [None, 150])
def test_golden_keeps_no_record_of_a_carried_upset(monkeypatch, run_cycles):
    # Golden's stream, Retire records included, must be that of a fault-free run: a
    # carried upset's records are taken back, golden's own records of its settling
    # cycles (here its Halt) stay, and a rewind or a rebuild from reset logs nothing twice.
    image = acceptance_program().assemble()
    system = SystemConfig(image=image, record_events=True)
    halt = _golden_cycles(system) - 1
    end = halt + 1 if run_cycles is None else halt + 20
    faults = [
        FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=0, bit=3),
        FaultSpec(at_cycle=40, kind="cell", key="core.x6", replica=0, bit=3),
        FaultSpec(at_cycle=40, kind="cell", key="core.x9", replica=1, bit=5, count=2),
        FaultSpec(at_cycle=40, kind="cell", key="core.x8", replica=2, bit=2),
        FaultSpec(at_cycle=halt - 1, kind="cell", key="core.x1", replica=1, bit=0,
                  phase=EDGE_ALIGNED),
        FaultSpec(at_cycle=end - 1, kind="cell", key="core.x2", replica=2, bit=1),
    ]
    count = _carry_campaign(None, faults, monkeypatch, system=system,
                            run_cycles=None if run_cycles is None else end)
    golden = count.built[0]
    fault_free = Kernel(system)
    if run_cycles is None:
        fault_free.run()
    else:
        fault_free.run_cycles(end)
    assert golden.cycle == fault_free.cycle
    assert golden.sink == fault_free.sink
    assert any(type(rec) is Halt for rec in golden.sink)


@pytest.mark.parametrize("run_cycles, at, phase", [
    (None, -1, MID_CYCLE),  # golden halts at the upset's own cycle
    (None, -2, EDGE_ALIGNED),  # and before an edge-aligned upset is refreshed
    (100, 99, MID_CYCLE),  # the run ends in the upset's cycle
    (100, 98, EDGE_ALIGNED),
])
def test_a_run_that_ends_while_an_upset_settles(monkeypatch, run_cycles, at, phase):
    image = acceptance_program().assemble()
    if run_cycles is None:
        at += _golden_cycles(SystemConfig(image=image))
    faults = [FaultSpec(at_cycle=at, kind="cell", key="core.x6", replica=0, bit=2, phase=phase)]
    count = _carry_campaign(image, faults, monkeypatch, run_cycles=run_cycles)
    # no cycle is left that could change the record: golden's state where the run ends
    # gives it, with no rewind and no fork
    assert count.kernels == 1
    assert (count.checkpoints, count.resumes) == (0, 0)


@pytest.mark.parametrize("golden_compare", [True, False])
def test_golden_that_crashes_while_an_upset_settles(monkeypatch, golden_compare):
    system = SystemConfig(image=_crash_program(), max_cycles=300)
    kernel = Kernel(system)
    with pytest.raises(BusFault):
        kernel.run()
    crash = kernel.cycle  # the cycle that raised
    faults = [FaultSpec(at_cycle=crash - 1, kind="cell", key="core.x2", replica=1, bit=0)]
    count = _carry_campaign(None, faults, monkeypatch, system=system,
                            golden_compare=golden_compare)
    assert count.kernels == 3


@pytest.mark.parametrize("before, phase", [(1, MID_CYCLE), (2, EDGE_ALIGNED), (0, MID_CYCLE)])
def test_a_counter_read_while_an_upset_settles_rebuilds_golden_from_reset(
        monkeypatch, before, phase):
    # The upset's increment lands before the read, except at ``before`` 0, where the
    # read comes first. Either way golden read the counters inside the settle, so it
    # is rebuilt at the upset's cycle, from reset (no other fault made a checkpoint).
    image = _counter_reading_program()
    kernel = Kernel(SystemConfig(image=image))
    while not kernel.counters.reads:
        kernel.step_cycle()
    read = kernel.cycle - 1
    faults = [FaultSpec(at_cycle=read - before, kind="cell", key="core.x5", replica=2, bit=1,
                        phase=phase)]
    count = _carry_campaign(image, faults, monkeypatch)
    golden = count.built[0]
    assert count.kernels == 3 and golden.counters.reads == 1
    assert golden.counters.values() == (0, 0, 0) and golden.arch.read_reg(7) == 0


@pytest.mark.parametrize("run_cycles", [None, 120], ids=["run to halt", "run_cycles"])
def test_a_carried_upset_in_the_last_cycle_then_a_fault_that_never_lands(monkeypatch,
                                                                         run_cycles):
    # The last carried upset's increment is still pending where golden's run ends, and
    # the faults that never land are recorded from golden's state there: the take-back
    # must restore the pending increments with the totals, or those records count -1.
    image = acceptance_program().assemble()
    end = _golden_cycles(SystemConfig(image=image)) if run_cycles is None else run_cycles
    faults = [
        FaultSpec(at_cycle=end - 1, kind="cell", key="periph.gpio_out", replica=1, bit=0,
                  phase=EDGE_ALIGNED),
        FaultSpec(at_cycle=end - 1, kind="cell", key="core.x6", replica=0, bit=2),
        FaultSpec(at_cycle=end, kind="cell", key="core.x2", replica=2, bit=1),
        FaultSpec(at_cycle=end + 7, kind="sram", key=3, replica=0, bit=7),
    ]
    count = _carry_campaign(image, faults, monkeypatch, run_cycles=run_cycles)
    # golden checkpoints end - 1 once and goes back there once, for the second upset
    assert count.calls() == (1, 1, 1)
    records = run_campaign(_campaign(image, faults, run_cycles=run_cycles)).records
    assert [r["event_totals"]["core"] for r in records] == [0, 0, 0, 0]
    assert records[1]["counters"] == [0, 0, 0]


def _crowded_faults(rng, windows, end):
    """Faults 0-3 cycles apart through each window, and in the run's last three cycles
    and past its end: single upsets of random core and peripheral cells (their phase
    drawn by the campaign), double upsets in both phases, and single SRAM upsets."""
    cycles = [end - 3, end - 2, end - 1, end, end + 4]
    for start, stop in windows:
        cycle = start
        while cycle < stop:
            cycles.append(cycle)
            cycle += int(rng.integers(0, 4))
    faults = []
    for cycle in sorted(cycles):
        pick = rng.random()
        if pick < 0.6:
            faults.append(FaultSpec(at_cycle=cycle, kind="random",
                                    key=("core", "periph")[int(rng.integers(2))]))
        elif pick < 0.8:  # targets whose double upsets diverge without a crash
            key = ("core.x9", "core.x8", "periph.gpio_out", "periph.seu_count_core")[
                int(rng.integers(4))]
            faults.append(FaultSpec(at_cycle=cycle, kind="cell", key=key,
                                    replica=int(rng.integers(3)), bit=int(rng.integers(3)),
                                    phase=(MID_CYCLE, EDGE_ALIGNED)[int(rng.integers(2))],
                                    count=2))
        else:
            faults.append(FaultSpec(at_cycle=cycle, kind="random", key="sram"))
    return faults


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("golden_compare", [True, False], ids=["compare", "no-compare"])
@pytest.mark.parametrize("program", ["acceptance", "counter-reading"])
def test_crowded_campaigns_match_reference(monkeypatch, program, golden_compare, seed):
    # Faults close enough that carried upsets settle past the next injection cycle,
    # crowd one cycle, meet the run's end or (in the counter-reading program) the
    # core's SEU counter read. Golden's stream must stay a fault-free run's, so no
    # rewind logs a cycle twice.
    if program == "acceptance":
        image = acceptance_program().assemble()
        windows = ((30, 75),)
    else:
        image = _counter_reading_program()
        kernel = Kernel(SystemConfig(image=image))
        while not kernel.counters.reads:
            kernel.step_cycle()
        windows = ((20, 40), (kernel.cycle - 12, kernel.cycle + 4))
    system = SystemConfig(image=image, record_events=True)
    end = _golden_cycles(system)
    rng = np.random.default_rng([seed, golden_compare])
    for run_cycles in (None, end - 10):
        faults = _crowded_faults(rng, windows, run_cycles or end)
        count = _carry_campaign(None, faults, monkeypatch, system=system, seed=seed,
                                run_cycles=run_cycles, golden_compare=golden_compare,
                                edge_aligned_fraction=0.5)
        golden = count.built[0]
        fault_free = Kernel(system)
        fault_free.run()
        assert golden.sink == [rec for rec in fault_free.sink if rec.cycle < golden.cycle]
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# idle latches: the pipeline leaves an idle latch cell alone when it reads 0
# ---------------------------------------------------------------------------


def _idle_edges(system):
    """Golden trace of the acceptance program: ({latch: [cycles c]}, {latch: [values]}).

    The cycles are those where the edge of cycle c + 1 leaves the latch idle and
    cycle c + 1 (writeback latch) or c + 2 (fetch latch) is a fetch-stall or
    branch-bubble cycle; the values are the latch's value after each cycle.
    """
    kernel = Kernel(system)
    p = kernel.pipeline
    idle_x, wb_idle, fetch_idle = [], [], []
    values = {"core.wb_rd": [], "core.fetch_pc": []}
    while kernel.halted is None:
        before = p.fetch_stalls + p.branch_bubbles
        kernel.step_cycle()
        idle_x.append(p.fetch_stalls + p.branch_bubbles > before)
        wb_idle.append(not p.wl_valid.value)
        fetch_idle.append(not p.fl_valid.value)
        for key, latch in values.items():
            latch.append(kernel.registry[key].value)
    n = len(idle_x)
    edges = {
        "core.wb_rd": [c for c in range(n - 1) if wb_idle[c + 1] and idle_x[c + 1]],
        "core.fetch_pc": [c for c in range(n - 2) if fetch_idle[c + 1] and idle_x[c + 2]],
    }
    return edges, values


def test_same_bit_double_upset_into_an_idle_latch_is_cleared():
    # A same-bit double upset can leave a nonzero rd or pc behind a valid bit of
    # 0; the next idle edge must still write the latch cell to 0.
    system = SystemConfig(image=acceptance_program().assemble())
    edges, values = _idle_edges(system)
    for target, cycles in edges.items():
        width = Kernel(system).registry[target].width
        assert len(cycles) >= 10, target
        for c in cycles:
            for bit in (0, width - 1):
                kernel = Kernel(system)
                for replica in (0, 1):
                    kernel.schedule_flip(c, "cell", target, replica, bit)
                kernel.run_cycles(c + 1)
                cell = kernel.registry[target]
                assert cell.value == values[target][c] ^ (1 << bit), (target, c, bit)
                kernel.step_cycle()  # the refresh latches the upset; the idle edge clears it
                assert (cell.value, cell.discrepancy) == (0, False), (target, c, bit)


@pytest.mark.parametrize("target", ["core.wb_rd", "core.fetch_pc"])
def test_same_bit_double_upsets_into_idle_latches_match_reference(target):
    # One campaign per fault: a fault that crashes the core makes its whole
    # campaign raise, which would hide the records of the others.
    system = SystemConfig(image=acceptance_program().assemble())
    width = Kernel(system).registry[target].width
    outcomes = set()
    for c in _idle_edges(system)[0][target]:
        for at in (c, c + 1):
            for bit in (0, width - 1):
                fault = FaultSpec(at_cycle=at, kind="cell", key=target, replica=0, bit=bit,
                                  count=2)
                got = assert_matches_reference(
                    CampaignConfig(system=system, faults=[fault], seed=5))
                outcomes.add("raises" if got[0] == "raises" else got[1]["diverged"])
    # masked upsets were compared, and diverging or crashing ones too
    assert 0 in outcomes and len(outcomes) > 1
