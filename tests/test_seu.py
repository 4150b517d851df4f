"""Fault mechanics, outcome classification, campaign determinism, counters."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import acceptance_program, alu_block_program, make_kernel

from tmrv32 import encode as E
from tmrv32 import seu
from tmrv32.errors import ConfigError
from tmrv32.kernel import EDGE_ALIGNED, MID_CYCLE, Kernel, SystemConfig
from tmrv32.seu import (
    CampaignConfig,
    FaultSpec,
    _requal_cycle,
    counter_crosscheck,
    resolve_faults,
    run_campaign,
)
from tmrv32.tmr import Domain


def _campaign(image, faults, **kw):
    system = SystemConfig(image=image)
    return CampaignConfig(system=system, faults=faults, **kw)


def test_midcycle_core_flip_latency_one_and_counter():
    kernel = make_kernel(alu_block_program(60).assemble())
    kernel.schedule_flip(10, "cell", "core.x1", 1, 5)
    kernel.run_cycles(10)
    assert not kernel.registry["core.x1"].discrepancy
    kernel.step_cycle()  # cycle 10: flip lands mid-cycle
    assert kernel.registry["core.x1"].discrepancy
    kernel.step_cycle()  # cycle 11: feedback refresh repaired it at the edge
    assert not kernel.registry["core.x1"].discrepancy
    kernel.run()
    assert kernel.counters.values() == (1, 0, 0)


def test_edge_aligned_flip_lands_one_edge_later():
    kernel = make_kernel(alu_block_program(60).assemble())
    kernel.schedule_flip(10, "cell", "core.x1", 0, 3, phase=EDGE_ALIGNED)
    kernel.run_cycles(11)  # through cycle 10: queued, not yet landed
    assert not kernel.registry["core.x1"].discrepancy
    kernel.step_cycle()  # cycle 11: corrupted value latched at the edge
    assert kernel.registry["core.x1"].discrepancy
    kernel.step_cycle()  # cycle 12: repaired
    assert not kernel.registry["core.x1"].discrepancy


def test_campaign_classifies_midcycle_latency_one():
    config = _campaign(
        acceptance_program().assemble(),
        [FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=2, bit=17)],
    )
    report = run_campaign(config)
    rec = report.records[0]
    assert rec["detected"] is True
    assert rec["correction_latency_cycles"] == 1
    assert rec["uncorrectable"] is False
    assert rec["diverged"] is False
    assert counter_crosscheck(report)


def test_counter_crosscheck_fails_on_an_outvoted_counter_cell():
    image = acceptance_program().assemble()
    for mode in ("isolated", "accumulate"):
        reports = [
            run_campaign(_campaign(image, [
                FaultSpec(at_cycle=20, kind="cell", key="periph.seu_count_core", replica=0,
                          bit=4, count=count)
            ], mode=mode))
            for count in (1, 2)
        ]
        assert counter_crosscheck(reports[0])
        (record,) = reports[1].records
        assert record["counters"] == [16, 0, 1] and record["event_totals"]["core"] == 0
        assert not counter_crosscheck(reports[1])


LAST_CYCLE_UPSETS = [
    # the run's last cycle is 29: its increment would land at edge 30
    pytest.param(50, 30, [FaultSpec(at_cycle=29, kind="cell", key="core.x5", replica=1, bit=3)],
                 id="run-cycles"),
    # alu_block_program(20) halts at cycle 21: a mid-cycle upset there, and an
    # edge-aligned one at 20 that lands at edge 21
    pytest.param(20, None, [
        FaultSpec(at_cycle=21, kind="cell", key="core.x5", replica=1, bit=3),
        FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=0, bit=7, phase=EDGE_ALIGNED),
    ], id="run-to-halt"),
]


@pytest.mark.parametrize("mode", ["isolated", "accumulate"])
@pytest.mark.parametrize("n, run_cycles, faults", LAST_CYCLE_UPSETS)
def test_an_upset_counted_in_the_last_cycle_is_not_in_the_event_totals(n, run_cycles, faults, mode):
    config = _campaign(alu_block_program(n).assemble(), faults, run_cycles=run_cycles, mode=mode)
    report = run_campaign(config)
    for record in report.records:
        assert record["detected"] and record["correction_latency_cycles"] is None
        assert record["counters"] == [0, 0, 0]  # the increment never landed
        assert record["event_totals"] == {"core": 0, "sram": 0, "periph": 0}
    assert counter_crosscheck(report)


def test_campaign_classifies_edge_aligned_latency_two():
    config = _campaign(
        acceptance_program().assemble(),
        [FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=0, bit=4,
                   phase=EDGE_ALIGNED)],
    )
    rec = run_campaign(config).records[0]
    assert rec["detected"] is True
    assert rec["correction_latency_cycles"] == 2
    assert rec["diverged"] is False


def test_double_fault_same_bit_uncorrectable_and_diverges():
    # x6 is the live loop accumulator of the acceptance program
    config = _campaign(
        acceptance_program().assemble(),
        [FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=0, bit=2, count=2)],
    )
    report = run_campaign(config)
    rec = report.records[0]
    assert rec["uncorrectable"] is True
    assert rec["correction_latency_cycles"] is None
    assert rec["detected"] is True
    assert rec["diverged"] is True
    assert counter_crosscheck(report)


def test_triple_flip_is_undetectable_corruption():
    # flipping the same bit in all three replicas leaves no discrepancy to see
    config = _campaign(
        acceptance_program().assemble(),
        [FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=0, bit=1, count=3)],
    )
    rec = run_campaign(config).records[0]
    assert rec["uncorrectable"] is True
    assert rec["detected"] is False
    assert rec["diverged"] is True


def test_sram_fault_corrected_by_scrubber_within_bound():
    program = alu_block_program(40)
    config = _campaign(
        program.assemble(),
        [FaultSpec(at_cycle=5, kind="sram", key=100, replica=1, bit=30)],
        run_cycles=9000,
    )
    report = run_campaign(config)
    rec = report.records[0]
    assert rec["detected"] is True
    assert rec["uncorrectable"] is False
    assert 2 <= rec["correction_latency_cycles"] <= 8193
    assert rec["diverged"] is False
    assert counter_crosscheck(report)


def test_sram_fault_in_fetched_row_masked_and_counted_per_read_cycle():
    # corrupt an instruction row the core has yet to fetch: reads are voted, so
    # execution is unaffected, and the reading cycle contributes an Sram event
    kernel = make_kernel(alu_block_program(40).assemble())
    kernel.schedule_flip(4, "sram", 10, 0, 13)
    result = kernel.run()
    assert result.halt == "ebreak"
    assert kernel.arch.read_reg(1) != 0
    assert kernel.counters.values()[1] >= 1
    assert sorted(kernel.sram.dirty) == []  # scrubber pass fixed it


def test_core_write_supersedes_scrub_writeback():
    # the scrubber detects a dirty row, but the core writes it in the write-back
    # cycle: the scrub write is skipped and the core's value lands everywhere
    p = E.Program()
    p.emit(E.lui(2, 0))  # x2 = 0, address register for row 1
    p.emit(E.addi(1, 0, 0x77))
    for _ in range(6):
        p.emit(E.sw(1, 2, 4))  # hammer row 1 with stores
    p.emit(E.ebreak())
    kernel = make_kernel(p)
    kernel.schedule_flip(2, "sram", 1, 0, 8)
    kernel.run()
    assert kernel.sram.scrub_read(1) == (0x77, 0x77, 0x77)


def test_scrub_off_accumulation_until_double_fault_diverges():
    # with the scrubber off, two upsets at the same row+bit in different replicas
    # defeat the vote: the program then loads a corrupted value
    p = E.Program()
    p.emit(E.lui(2, 4))  # 0x4000 = row 0x1000
    p.emit(E.addi(3, 0, 0x2A))
    p.emit(E.sw(3, 2, 0))
    p.emit(E.addi(4, 0, 40))  # delay loop
    p.label("wait")
    p.emit(E.addi(4, 4, -1))
    p.branch(E.bne, 4, 0, "wait")
    p.emit(E.lw(5, 2, 0))  # read back late
    p.emit(E.ebreak())
    row = 0x4000 // 4
    faults = [
        FaultSpec(at_cycle=20, kind="sram", key=row, replica=0, bit=3),
        FaultSpec(at_cycle=40, kind="sram", key=row, replica=1, bit=3),
    ]
    config = _campaign(p.assemble(), faults, mode="accumulate")
    config.system = dataclasses.replace(config.system, scrub_enabled=False)
    report = run_campaign(config)
    assert report.summary["run_diverged"] is True
    assert any(r["uncorrectable"] for r in report.records)
    assert counter_crosscheck(report)


def test_random_core_campaign_all_corrected_no_divergence():
    config = _campaign(
        acceptance_program().assemble(),
        [FaultSpec(at_cycle=10 + 3 * i, kind="random", key="core") for i in range(60)],
        seed=42,
    )
    report = run_campaign(config)
    assert report.summary["faults"] == 60
    assert report.summary["uncorrectable"] == 0
    assert report.summary["diverged"] == 0
    assert all(r["correction_latency_cycles"] <= 2 for r in report.records)
    assert counter_crosscheck(report)


def test_poisson_rate_campaign_deterministic_and_checked():
    system = SystemConfig(image=alu_block_program(120).assemble())
    config = CampaignConfig(
        system=system,
        rates={"core": 0.02, "sram": 0.05},
        run_cycles=400,
        mode="accumulate",
        seed=7,
    )
    report_a = run_campaign(config)
    report_b = run_campaign(
        CampaignConfig(**{**config.__dict__, "faults": []})
    )
    assert report_a.to_jsonl() == report_b.to_jsonl()
    assert report_a.summary["faults"] > 0
    assert counter_crosscheck(report_a)


def test_report_records_round_trip_and_byte_identical():
    config = _campaign(
        acceptance_program().assemble(),
        [FaultSpec(at_cycle=15, kind="random", key="core")] * 10,
        seed=99,
    )
    a = run_campaign(config).to_jsonl()
    b = run_campaign(config).to_jsonl()
    assert a == b
    parsed = [json.loads(line) for line in a.splitlines()]
    assert len(parsed) == 10
    assert json.dumps(parsed[0], sort_keys=True) == a.splitlines()[0]


def test_random_resolution_is_seed_driven():
    system = SystemConfig(image=alu_block_program(30).assemble())
    spec = [FaultSpec(at_cycle=5, kind="random", key="periph")]
    k = Kernel(system)

    def resolve(seed):
        config = CampaignConfig(system=system, faults=spec, seed=seed)
        return resolve_faults(config, k, np.random.default_rng(seed))

    assert resolve(1) == resolve(1)
    triples = set()
    for seed in range(6):
        (fault,) = resolve(seed)
        assert fault.domain == Domain.PERIPHERALS
        triples.add((fault.key, fault.replica, fault.bit))
    assert len(triples) >= 2


def test_config_errors_reported_before_run():
    system = SystemConfig(image=alu_block_program(10).assemble())
    with pytest.raises(ConfigError):
        run_campaign(
            CampaignConfig(system=system, faults=[FaultSpec(at_cycle=1, kind="cell", key="nope")])
        )
    with pytest.raises(ConfigError):
        run_campaign(
            CampaignConfig(
                system=system,
                faults=[FaultSpec(at_cycle=1, kind="sram", key=5, phase=EDGE_ALIGNED)],
            )
        )
    with pytest.raises(ConfigError):
        run_campaign(
            CampaignConfig(
                system=system,
                faults=[FaultSpec(at_cycle=1, kind="cell", key="core.x1", bit=40)],
            )
        )
    with pytest.raises(ConfigError):
        CampaignConfig(system=system, rates={"core": 0.1}, mode="isolated").validate()
    # A program that never halts: any simulation before the check would end in
    # SimTimeout instead of ConfigError.
    p = E.Program()
    p.label("spin")
    p.branch(E.beq, 0, 0, "spin")
    system = SystemConfig(image=p.assemble(), max_cycles=200_000)
    valid = FaultSpec(at_cycle=5, kind="cell", key="core.x1", replica=0, bit=3)
    bad_specs = (
        FaultSpec(at_cycle=1, kind="sram", key=5, replica=None, bit=None, phase=EDGE_ALIGNED),
        FaultSpec(at_cycle=1, kind="sram", key=5, phase=EDGE_ALIGNED),
        FaultSpec(at_cycle=1, kind="cell", key="core.x6", replica=5),
    )
    for bad in bad_specs:
        for golden_compare in (True, False):
            config = CampaignConfig(system=system, faults=[valid, bad],
                                    golden_compare=golden_compare)
            with pytest.raises(ConfigError):
                run_campaign(config)
        with pytest.raises(ConfigError):
            resolve_faults(config, Kernel(system), np.random.default_rng(0))


@pytest.mark.parametrize(
    "rates", [{"core": math.nan}, {"sram": math.inf}, {"periph": 1e300}, {"core": -0.1}, 0, []],
    ids=["nan", "infinity", "1e300", "negative", "zero", "array"],
)
def test_rates_that_cannot_be_drawn_are_config_errors(rates):
    system = SystemConfig(image=alu_block_program(10).assemble())
    config = CampaignConfig(system=system, rates=rates, mode="accumulate", run_cycles=100)
    with pytest.raises(ConfigError, match="rates"):
        run_campaign(config)
    with pytest.raises(ConfigError, match="rates"):
        resolve_faults(config, Kernel(system), np.random.default_rng(0))


@pytest.mark.parametrize(
    "run_cycles, rates, field",
    [(2**64, {"sram": 1e-12}, "run_cycles"), (2**63 - 1, {"core": 1.0}, "rates")],
    ids=["cycles-past-int64", "poisson-mean-too-large"],
)
def test_a_rate_model_the_generator_cannot_draw_is_a_config_error(run_cycles, rates, field):
    system = SystemConfig(image=alu_block_program(10).assemble())
    config = CampaignConfig(system=system, rates=rates, mode="accumulate", run_cycles=run_cycles)
    with pytest.raises(ConfigError, match=field):
        config.validate()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match=field):
        resolve_faults(config, Kernel(system), rng)
    assert rng.random() == np.random.default_rng(0).random()  # before any draw
    # the largest run and rate it can draw from (only validated: far too long to run)
    CampaignConfig(system=system, rates={"core": 0.5}, mode="accumulate",
                   run_cycles=2**63 - 1).validate()


def test_campaign_config_file_round_trip():
    config = _campaign(
        b"\x73\x00\x10\x00",
        [FaultSpec(at_cycle=3, kind="cell", key="core.x2", replica=1, bit=0)],
        seed=11,
    )
    clone = CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert clone.system == config.system
    assert clone.faults == config.faults
    assert clone.seed == config.seed


@pytest.mark.parametrize("record_events", [False, True])
def test_configs_round_trip_record_events(record_events):
    system = SystemConfig(image=b"\x73\x00\x10\x00", record_events=record_events)
    assert SystemConfig.from_dict(system.to_dict()) == system
    faults = [FaultSpec(at_cycle=0, kind="cell", key="core.x1")]
    config = CampaignConfig(system=system, faults=faults)
    assert CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@pytest.mark.parametrize("kind", ["path", "bytearray"])
def test_campaign_config_with_a_path_or_bytearray_image_serializes(tmp_path, kind):
    data = acceptance_program().assemble()
    path = tmp_path / "acceptance.bin"
    path.write_bytes(data)
    image = path if kind == "path" else bytearray(data)
    config = _campaign(image, [FaultSpec(at_cycle=3, kind="cell", key="core.x2")])
    clone = CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert Kernel(clone.system).run() == Kernel(config.system).run()


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec(at_cycle=-1, kind="cell", key="core.x1").validate()
    with pytest.raises(ConfigError):
        FaultSpec(at_cycle=0, kind="nonsense", key=1).validate()
    with pytest.raises(ConfigError):
        FaultSpec(at_cycle=0, kind="random", key="galaxy").validate()
    with pytest.raises(ConfigError):
        FaultSpec(at_cycle=0, kind="cell", key="core.x1", count=4).validate()
    for replica in (3, 5, -1):
        with pytest.raises(ConfigError):
            FaultSpec(at_cycle=0, kind="cell", key="core.x6", replica=replica).validate()
    for replica in (None, 0, 1, 2):
        FaultSpec(at_cycle=0, kind="cell", key="core.x6", replica=replica).validate()


def _resolution_lines():
    """One JSON line per resolved fault, over random, explicit and Poisson specs, and the
    generator's next draw after each campaign."""
    kernel = Kernel(SystemConfig())
    specs = []
    for name in ("core", "periph", "sram"):
        for phase in (MID_CYCLE, EDGE_ALIGNED):
            for count in (1, 2, 3):
                specs.append(FaultSpec(at_cycle=7, kind="random", key=name, phase=phase,
                                       count=count))
    for replica, bit in ((None, None), (None, 4), (2, None), (1, 9)):
        for phase in (MID_CYCLE, EDGE_ALIGNED):
            specs.append(FaultSpec(at_cycle=3, kind="cell", key="core.x5", replica=replica,
                                   bit=bit, phase=phase, count=2))
            specs.append(FaultSpec(at_cycle=4, kind="cell", key="periph.gpio_out", replica=replica,
                                   bit=bit, phase=phase))
        specs.append(FaultSpec(at_cycle=5, kind="sram", key=100, replica=replica, bit=bit,
                               count=3))
    rates = {"core": 0.004, "sram": 0.002, "periph": 0.003}
    lines = []
    for seed in (0, 1, 7):
        configs = [
            CampaignConfig(system=SystemConfig(), faults=specs, seed=seed,
                           edge_aligned_fraction=fraction)
            for fraction in (0.0, 0.5, 1.0)
        ]
        configs.append(CampaignConfig(system=SystemConfig(), faults=specs[:4], rates=rates,
                                      run_cycles=3000, mode="accumulate", seed=seed,
                                      edge_aligned_fraction=0.5))
        for config in configs:
            rng = np.random.default_rng(seed)
            for fault in resolve_faults(config, kernel, rng):
                lines.append(json.dumps(dataclasses.asdict(fault), sort_keys=True))
            lines.append(repr(rng.random()))  # resolution consumed the same draws
    return lines


def test_fault_resolution_is_pinned():
    """Which targets, replicas, bits and phases get drawn, pinned by digest.

    The fork and accumulate reference tests resolve faults with ``resolve_faults``
    itself, so only this test would see a change in the draws.
    """
    lines = _resolution_lines()
    assert len(lines) == 446
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "da0910818e03fb8e084a892ec06e24ab7569b2b1cc795cd1ff4f59ae9a11d869"


def test_a_campaign_with_nothing_to_draw_builds_no_generator(monkeypatch):
    def no_generator(seed):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(seu.np.random, "default_rng", no_generator)
    system = SystemConfig(image=acceptance_program().assemble())
    faults = [
        FaultSpec(at_cycle=20, kind="cell", key="core.x6", replica=1, bit=3),
        FaultSpec(at_cycle=25, kind="cell", key="core.x6", replica=0, bit=9, count=2),
        FaultSpec(at_cycle=30, kind="sram", key=5, replica=2, bit=7),
    ]
    for mode in ("isolated", "accumulate"):
        report = run_campaign(CampaignConfig(system=system, faults=faults, mode=mode, seed=3))
        assert len(report.records) == len(faults)
    for left_open in ({"replica": None}, {"bit": None}):
        spec = dataclasses.replace(faults[0], **left_open)
        with pytest.raises(AssertionError, match="generator"):
            run_campaign(CampaignConfig(system=system, faults=[spec]))


def _linear_requal_cycle(changes, landing, end):
    """The requalification rule as a walk over the whole change list: the oracle."""
    clean, since = True, landing  # the state at the end of cycles since .. next change - 1
    for cycle, now_clean in changes:
        if clean and since < cycle:
            return since
        clean, since = now_clean, max(cycle, landing)
    return since if clean and since < end else None


def test_requal_cycle_starts_at_the_landing_like_a_walk_from_the_first_change():
    rng = np.random.default_rng(21)
    for _ in range(4000):
        n = int(rng.integers(0, 12))
        # cycles in stream order, often several changes in one cycle
        cycles = sorted(int(c) for c in rng.integers(0, 40, n))
        changes = [(c, bool(rng.integers(2))) for c in cycles]
        landing = int(rng.integers(0, 45))
        end = int(rng.integers(landing, 50))
        for given in (changes, tuple(changes)):
            assert _requal_cycle(given, landing, end) == _linear_requal_cycle(
                changes, landing, end
            ), (changes, landing, end)
    assert _requal_cycle((), 5, 6) == 5 and _requal_cycle((), 5, 5) is None
