"""The benchmark's three workloads: inputs, one timed job, and its output check.

A workload is built from the seed (the set-up the benchmark times), then lists
its jobs. ``run(job)`` is the timed call into the simulator; ``check(job, out)``
checks its output afterwards and returns an :class:`Outcome`. At the default
seed and full scale, outputs are compared with values pinned in
``pinned.json``; at every seed, invariants that every correct run satisfies
are checked as well.

The simulator is driven through its public API only: ``Kernel``,
``SystemConfig``, ``run_campaign``, ``CampaignConfig``/``FaultSpec``,
``counter_crosscheck`` and ``encode.Program``, plus public constants.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from programs import LoopProgram, acceptance_program
from tmrv32 import EDGE_ALIGNED, MID_CYCLE, Domain, Kernel, SystemConfig
from tmrv32.memory import SRAM_ROWS
from tmrv32.scrubber import worst_case_correction_cycles
from tmrv32.seu import CampaignConfig, FaultSpec, counter_crosscheck, run_campaign

DEFAULT_SEED = 0
PINNED_PATH = Path(__file__).with_name("pinned.json")

# Fields of campaign schema v1. Fields a later schema adds are ignored, so a
# schema bump alone does not fail the pinned comparison.
RECORD_V1 = (
    "index", "kind", "target", "domain", "replica", "bit", "count", "phase", "at_cycle",
    "detected", "correction_latency_cycles", "uncorrectable", "diverged", "counters",
    "event_totals",
)
SUMMARY_V1 = (
    "mode", "seed", "faults", "detected", "corrected", "uncorrectable", "diverged",
    "max_latency_cycles", "mean_latency_cycles", "run_diverged",
)
RUNRESULT_FIELDS = (
    "halt", "cycles", "retired", "counters", "fetch_stalls", "branch_bubbles",
    "fill_cycles", "dmem_cycles",
)


@dataclass
class Scale:
    """Work sizes. ``FULL`` is what the benchmark measures; ``TINY`` is for the smoke test."""

    loop_iterations: int = 500  # kernel-loop: about 45k cycles per run
    sweep_targets: int | None = None  # campaign-sweep: None sweeps every bit
    sweep_chunk: int = 26  # single upsets per run_campaign call
    double_share: float = 0.05  # double upsets per swept bit
    hang_factor: int = 4  # max_cycles as a multiple of the golden run
    soak_cycles: int = 200_000  # scrub-soak: run_cycles per campaign
    soak_campaigns: int = 64  # distinct soak campaigns before they repeat


FULL = Scale()
TINY = Scale(loop_iterations=20, sweep_targets=40, sweep_chunk=10, double_share=0.1,
             soak_cycles=20_000, soak_campaigns=2)

# Upsets per cycle for scrub-soak: about 50 upsets in 200k cycles.
SOAK_RATES = {"sram": 1.25e-4, "core": 1.0e-4, "periph": 0.25e-4}


@dataclass
class Outcome:
    """What one job did: operations attempted, failed and aborted, and the work it covered."""

    attempted: int
    failed: int = 0
    wrong: int = 0  # failed operations whose output was wrong (not a crash or hang)
    aborted: int = 0  # operations the known campaign-abort defect ended, as pinned
    sim_cycles: int = 0
    faults: int = 0  # faults whose record completed
    errors: tuple = ()


def digest(obj):
    """Short, stable fingerprint of a JSON-serializable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _v1(d, keys):
    return {k: d[k] for k in keys if k in d}


def _load_pinned(name, seed, scale):
    if seed != DEFAULT_SEED or scale != FULL or not PINNED_PATH.exists():
        return None
    return json.loads(PINNED_PATH.read_text()).get(name)


def _cycle_identity(r):
    return r.cycles == r.retired + r.fetch_stalls + r.branch_bubbles + r.fill_cycles


# ---------------------------------------------------------------------------


class KernelLoop:
    """One long program run to halt, scrubber on, no faults. One job = one run."""

    name = "kernel-loop"
    injects_faults = False
    double_jobs = ()

    def __init__(self, seed, scale=FULL):
        rng = np.random.default_rng(seed)
        self.program = LoopProgram(rng, scale.loop_iterations)
        self.config = SystemConfig(image=self.program.image())
        self.expected_checksum, self.expected_sram = self.program.expected()
        self.pinned = _load_pinned(self.name, seed, scale)
        Kernel(self.config)  # set-up ends with the first Kernel(...)
        self.jobs = [0]
        self.trace_jobs = self.jobs

    def run(self, job):
        kernel = Kernel(self.config)
        result = kernel.run()
        return result, kernel.architectural_signature()

    def check(self, job, out):
        result, sig = out
        errors = []
        if self.pinned is not None and self.pinnable(out) != self.pinned:
            errors.append("run differs from the pinned run")
        if result.halt != "ebreak":
            errors.append(f"halt {result.halt!r}")
        if sig["regs"][20] != self.expected_checksum:
            errors.append("checksum register differs from the Python model")
        if sig["sram"] != self.expected_sram:
            errors.append("SRAM image differs from the Python model")
        if not _cycle_identity(result):
            errors.append("cycles != retired + stalls + bubbles + fill")
        bad = 1 if errors else 0
        return Outcome(1, bad, bad, sim_cycles=0 if bad else result.cycles, errors=tuple(errors))

    @staticmethod
    def pinnable(out):
        result, sig = out
        return {
            "result": {f: list(v) if isinstance(v, tuple) else v
                       for f, v in dataclasses.asdict(result).items() if f in RUNRESULT_FIELDS},
            "signature": {k: list(v) if isinstance(v, tuple) else v for k, v in sig.items()},
        }

    @staticmethod
    def ipc(outs):
        """Simulated retired instructions per cycle of the runs ``outs``."""
        result = outs[0][0]
        return result.retired / result.cycles


# ---------------------------------------------------------------------------


class _Campaigns:
    """Shared part of the campaign workloads: the golden acceptance run and pinned digests."""

    name = None
    injects_faults = True
    double_jobs = ()

    def __init__(self, seed, scale):
        self.image = acceptance_program()
        golden = Kernel(SystemConfig(image=self.image))
        self.golden = golden.run()
        if not _cycle_identity(self.golden):
            raise RuntimeError("golden run breaks cycles = retired + stalls + bubbles + fill")
        self.golden_sig = golden.architectural_signature()
        self.pinned = _load_pinned(self.name, seed, scale)

    def run(self, job):
        try:
            return run_campaign(self.configs[job])
        except Exception as exc:  # a crash or hang of the simulated core: a failed job
            return exc

    @staticmethod
    def pinnable(out):
        if isinstance(out, Exception):
            return {"raises": type(out).__name__}
        return {
            "records": [digest(_v1(r, RECORD_V1)) for r in out.records],
            "summary": digest(_v1(out.summary, SUMMARY_V1)),
        }

    def _pinned_mismatches(self, job, out):
        """Indices of records that differ from the pinned run (none if nothing is pinned)."""
        pinned = self.pinned[job] if self.pinned is not None else None
        if pinned is None:
            return set()
        if "records" not in pinned:  # the pinned run raised
            return set(range(len(out.records)))
        got = self.pinnable(out)
        if len(got["records"]) != len(pinned["records"]) or got["summary"] != pinned["summary"]:
            return set(range(len(out.records)))
        return {i for i, (a, b) in enumerate(zip(got["records"], pinned["records"])) if a != b}

    def ipc(self, outs):
        """Simulated retired instructions per cycle of the fault-free program."""
        return self.golden.retired / self.golden.cycles


def _sweep_targets(kernel):
    targets = []
    for domain in (Domain.CORE, Domain.PERIPHERALS):
        for eid in kernel.cells_in_domain(domain):
            targets.extend((eid, bit) for bit in range(kernel.registry[eid].width))
    return targets


def _phase_bound(phase):
    return 1 if phase == MID_CYCLE else 2


class CampaignSweep(_Campaigns):
    """Every core and peripheral storage bit upset once, plus ~5% same-bit doubles.

    Single upsets alternate mid-cycle and edge-aligned at seeded cycles and run
    as isolated campaigns of ``sweep_chunk`` faults. Each double upset
    (``count=2``) is its own one-fault campaign, so a crash or hang inside
    ``run_campaign`` costs exactly that fault. ``max_cycles`` is a fixed
    multiple of the golden run, so a hang costs milliseconds.
    """

    name = "campaign-sweep"

    def __init__(self, seed, scale=FULL):
        super().__init__(seed, scale)
        rng = np.random.default_rng(seed)
        system = SystemConfig(image=self.image, max_cycles=scale.hang_factor * self.golden.cycles)
        targets = _sweep_targets(Kernel(system))[: scale.sweep_targets]
        window = self.golden.cycles - 25  # leave every single upset time to be repaired
        cycles = rng.integers(5, 5 + window, size=len(targets))
        replicas = rng.integers(3, size=len(targets))
        singles = [
            FaultSpec(at_cycle=int(cycles[i]), kind="cell", key=eid, replica=int(replicas[i]),
                      bit=bit, phase=MID_CYCLE if i % 2 == 0 else EDGE_ALIGNED)
            for i, (eid, bit) in enumerate(targets)
        ]
        doubles = []
        for _ in range(max(1, round(scale.double_share * len(targets)))):
            eid, bit = targets[int(rng.integers(len(targets)))]
            doubles.append(FaultSpec(
                at_cycle=int(rng.integers(5, 5 + window)), kind="cell", key=eid,
                replica=int(rng.integers(3)), bit=bit, count=2,
                phase=MID_CYCLE if rng.random() < 0.5 else EDGE_ALIGNED,
            ))
        chunks = [singles[i : i + scale.sweep_chunk]
                  for i in range(0, len(singles), scale.sweep_chunk)]
        self.configs = [CampaignConfig(system=system, faults=f, seed=seed)
                        for f in chunks + [[d] for d in doubles]]
        for config in self.configs:
            config.validate()
        self.jobs = [int(j) for j in rng.permutation(len(self.configs))]
        self.trace_jobs = self.jobs[: -(-len(self.jobs) // 8)]  # the first eighth
        self.double_jobs = list(range(len(chunks), len(self.configs)))

    def check(self, job, out):
        faults = self.configs[job].faults
        n = len(faults)
        double = faults[0].count > 1
        if isinstance(out, Exception):
            # A double upset that crashes or hangs the core aborts its campaign:
            # the known campaign-abort defect, counted as aborted, not failed.
            # It fails, as a wrong answer, if the pinned run completed or raised
            # something else. A single upset must never raise.
            error = (f"{type(out).__name__}: {out}",)
            pinned = self.pinned[job] if self.pinned is not None else None
            if double and (pinned is None or pinned == self.pinnable(out)):
                return Outcome(n, aborted=n, errors=error)
            return Outcome(n, n, n, errors=error)
        if len(out.records) != n or out.golden != self.golden_sig:
            return Outcome(n, n, n, errors=("wrong record count or golden signature",))
        errors = []
        bad = self._pinned_mismatches(job, out)
        if bad:
            errors.append("records differ from the pinned run")
        if not double:
            # A double upset may corrupt a counter cell itself, so only single
            # upsets must keep the counters consistent.
            bad.update(i for i, (spec, rec) in enumerate(zip(faults, out.records))
                       if not _single_ok(rec, spec.phase))
            if not counter_crosscheck(out):
                errors.append("counter_crosscheck failed")
                bad.update(range(n))
        if bad and not errors:
            errors.append("single upset not detected and corrected in time")
        good = n - len(bad)
        return Outcome(n, len(bad), len(bad), sim_cycles=good * self.golden.cycles,
                       faults=good, errors=tuple(errors))


def _single_ok(rec, phase):
    latency = rec["correction_latency_cycles"]
    return (
        rec["detected"]
        and latency is not None
        and latency <= _phase_bound(phase)
        and not rec["uncorrectable"]
        and not rec["diverged"]
    )


# ---------------------------------------------------------------------------


class ScrubSoak(_Campaigns):
    """Accumulate campaigns under a Poisson upset-rate model over sram, core and periph.

    Each job is one campaign of ``soak_cycles`` cycles on the acceptance
    program with golden compare on; the program halts at cycle 229, so almost
    every cycle is post-halt. Jobs differ only in their campaign seed.
    """

    name = "scrub-soak"

    def __init__(self, seed, scale=FULL):
        super().__init__(seed, scale)
        self.run_cycles = scale.soak_cycles
        system = SystemConfig(image=self.image)
        seeds = np.random.default_rng(seed).integers(1 << 31, size=scale.soak_campaigns)
        self.configs = [
            CampaignConfig(system=system, rates=SOAK_RATES, run_cycles=self.run_cycles,
                           mode="accumulate", seed=int(s), edge_aligned_fraction=0.5)
            for s in seeds
        ]
        for config in self.configs:
            config.validate()
        self.jobs = list(range(len(self.configs)))
        self.trace_jobs = self.jobs[:1]
        Kernel(system)  # set-up ends with the first Kernel(...)

    def check(self, job, out):
        if isinstance(out, Exception):
            # The upsets were never resolved, so the campaign counts as one operation.
            return Outcome(1, 1, 1, errors=(f"{type(out).__name__}: {out}",))
        records = out.records
        n = len(records)
        errors = []
        bad = self._pinned_mismatches(job, out)
        if bad:
            errors.append("records differ from the pinned run")
        n_sram = sum(1 for r in records if r["kind"] == "sram")
        sram_bound = worst_case_correction_cycles(SRAM_ROWS, n_sram)
        bad.update(i for i, rec in enumerate(records) if not self._soak_ok(rec, sram_bound))
        if out.summary.get("run_diverged") is not False:
            errors.append("soak run diverged from golden")
            bad.update(range(n))
        if not counter_crosscheck(out):
            errors.append("counter_crosscheck failed")
            bad.update(range(n))
        if bad and not errors:
            errors.append("upset not corrected within its bound")
        return Outcome(max(n, 1), len(bad), len(bad),
                       sim_cycles=0 if bad else self.run_cycles,
                       faults=n - len(bad), errors=tuple(errors))

    def _soak_ok(self, rec, sram_bound):
        if rec["uncorrectable"]:
            return False
        latency = rec["correction_latency_cycles"]
        if rec["kind"] == "sram":
            bound = sram_bound  # a row the core overwrites first may go undetected
        else:
            bound = _phase_bound(rec["phase"])
            if not rec["detected"]:
                return False
        if latency is None:
            # Only an upset too close to the end of the run may still be open.
            return rec["at_cycle"] + bound >= self.run_cycles
        return latency <= bound


WORKLOADS = {w.name: w for w in (KernelLoop, CampaignSweep, ScrubSoak)}
