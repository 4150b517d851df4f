"""Deterministic fault injection: targeted or stochastic upsets, campaigns, reports.

Two injection timing flavors model where an upset lands relative to the clock:

* ``mid-cycle``: the flip happens between edges; the voter masks it immediately and
  the feedback path repairs the replicas at the next edge (latency 1 cycle).
* ``edge-aligned``: the pulse coincides with the edge that closes the scheduled
  cycle, so the corrupted value is latched and survives one full cycle before the
  following edge repairs it (latency 2 cycles).

SRAM rows have no feedback path, so their injections are phase-independent; a row
is repaired when the scrubber writes it back or the core overwrites it. SRAM
correction latency is counted inclusively, from the injection cycle through the
repair cycle, so the analytic single-upset worst case is rows + 1 scrub steps.

Every run keeps its kernel's event stream (``Kernel.sink``), and each fault is
classified from its run's stream in one pass after the run, with no per-cycle probe:

* ``detected``: some discrepancy on the fault's (domain, element) at or after its
  injection cycle;
* ``uncorrectable``: some flip of the fault's target changed its voted value at
  any time in the run, whichever fault it belonged to;
* the target re-equalizes in the first cycle at or after the fault lands (one
  cycle after ``at_cycle`` for an edge-aligned upset) at whose end it is clean,
  as replayed from its flips and repairs; an uncorrectable fault has no latency.

Golden and every faulted run are driven by ``Kernel._advance``, the one run loop:
it stops at a given cycle and says once the run is over, at the program's halt or
after ``run_cycles`` cycles.

Every faulted run starts from a checkpoint of the fault-free golden run
(``Kernel.checkpoint``, resumed with ``Kernel.resume``): up to its first injection
cycle a faulted run is golden's run, so it is not simulated again. Campaigns run
in one of two modes. ``accumulate`` injects every fault into one run, for
upset-accumulation experiments: golden runs to the first injection cycle and takes
its checkpoint there, runs on to its end only for ``golden_compare``, and then
golden's kernel resumes that checkpoint and runs the faulted run with every fault
scheduled, so the campaign builds one kernel. The run schedules its faults in cycle
order (faults of one cycle in fault order), so no flip reorders the kernel's
schedule; its records stay in fault order. ``isolated`` classifies each fault on
its own against golden. Its records are those of one run from reset per fault, but
it does not simulate that way:

* Golden runs once, stopping only at each distinct injection cycle and at its
  end. At each stop, every fault of that cycle resumes golden's checkpoint in
  turn, in the one fork kernel, and runs before the next fault starts.
* A fork whose upset hits one replica of one cell steps until the upset is
  resolved: no cell or SRAM row is dirty, no counter increment is pending and no
  flip is queued or scheduled (so its target has re-equalized). Such an upset
  changes no vote, and every read of a cell is voted, so from there on the fork
  runs as golden does, apart from its counters and event totals; those change only
  on a discrepancy, which golden never has, so its record is final and it is
  recorded as a match. The counters feed back only when the core reads the SEU
  counter block, which is why a match keeps golden's count of those reads at the
  injection cycle: a read in the fork's steps is golden's read too.
* Every other fork runs to its own end and keeps its own final state, even one
  whose state equals golden's long before.
* A fault due at or after the cycle where golden's run ends never lands. It is
  recorded from golden's final state and stream, which holds no upset, as a fork
  that matched golden there, so no kernel is forked or run for it.
* Each fault has one result: the record and final state of a run that ran out,
  the record of a run that matched golden, or the exception its run raised (the
  simulated core crashed or hung). Once every fork has run, the results are
  settled in fault order, and golden runs on to its end if ``golden_compare`` or a
  match needs it. A match after which golden read the SEU counters is run again
  from reset there, and a match takes what golden raised, if golden raised. The
  first exception met is raised, as when the runs go one after another; otherwise
  every result becomes its record.

Both modes build records through one path, ``_records``, from a kernel's final
state and its own event stream: the accumulate run's kernel, the fork kernel for
each isolated fault, and golden's for faults that never land.

Before any simulation, ``resolve_faults`` turns every spec into one target,
replica, bit and phase, drawing from the campaign seed what the spec leaves open.
Which upsets are valid (the element exists; an SRAM row is in range and its
upset is mid-cycle) is decided in one place, ``Kernel._flip_target``, which
``Kernel.schedule_flip`` applies too.

Everything is deterministic given the seed; reports serialize to byte-stable JSON
lines.
"""

import dataclasses
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from .errors import ConfigError, SimError
from .kernel import EDGE_ALIGNED, MID_CYCLE, Discrepancy, Flip, Kernel, Repair, SystemConfig
from .memory import SramArray
from .peripherals import COUNTER_SATURATION
from .scrubber import Scrubber
from .tmr import DOMAIN_NAMES, Domain

_DOMAIN_BY_NAME = {name: dom for dom, name in DOMAIN_NAMES.items()}
_INT64_MAX = int(np.iinfo(np.int64).max)
# the largest mean numpy's Generator.poisson draws from
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


@dataclass
class FaultSpec:
    """One injection: where (explicit element/row, or random within a domain),
    when, with which clock-edge relationship, and how many same-bit flips.

    ``count`` > 1 flips the same bit position in ``count`` consecutive replicas
    starting at ``replica`` - the instance-group double-fault construction.
    Random targets (``kind="random"``, ``key`` = domain name) are resolved from
    the campaign seed before the run starts.
    """

    at_cycle: int
    kind: str  # "cell" | "sram" | "random"
    key: object = None  # element id, SRAM row, or domain name for "random"
    replica: int | None = 0
    bit: int | None = 0
    phase: str = MID_CYCLE
    count: int = 1

    def validate(self):
        if type(self.at_cycle) is not int or self.at_cycle < 0:
            raise ConfigError(f"at_cycle must be a non-negative integer, got {self.at_cycle!r}")
        if self.kind not in ("cell", "sram", "random"):
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.kind == "random" and not (
            isinstance(self.key, str) and self.key in _DOMAIN_BY_NAME
        ):
            raise ConfigError(f"random fault domain must be one of {sorted(_DOMAIN_BY_NAME)}")
        if self.kind == "cell" and not isinstance(self.key, str):
            raise ConfigError(f"cell fault key must be an element id, got {self.key!r}")
        if self.kind == "sram" and type(self.key) is not int:
            raise ConfigError(f"sram fault key must be a row number, got {self.key!r}")
        if self.phase not in (MID_CYCLE, EDGE_ALIGNED):
            raise ConfigError(f"unknown fault phase {self.phase!r}")
        if type(self.count) is not int or not 1 <= self.count <= 3:
            raise ConfigError("count must be 1..3 (flips within one instance group)")
        replica = self.replica
        if not (replica is None or type(replica) is int and 0 <= replica <= 2):
            raise ConfigError(f"replica must be None or 0..2, got {replica!r}")
        if not (self.bit is None or type(self.bit) is int):
            raise ConfigError(f"bit must be None or an integer, got {self.bit!r}")


@dataclass
class CampaignConfig:
    """A fault campaign: the system to run, the upsets to inject, and the mode."""

    system: SystemConfig
    faults: list = field(default_factory=list)
    rates: dict | None = None  # domain name -> expected upsets per cycle (Poisson)
    run_cycles: int | None = None  # fixed run length; default: run to program halt
    mode: str = "isolated"  # or "accumulate"
    golden_compare: bool = True
    seed: int = 0
    edge_aligned_fraction: float = 0.0  # phase mix for randomly resolved cell faults

    def validate(self):
        if self.mode not in ("isolated", "accumulate"):
            raise ConfigError(f"unknown campaign mode {self.mode!r}")
        if not (self.rates is None or isinstance(self.rates, dict)):
            raise ConfigError(f"rates must be null or an object of domain rates, got {self.rates!r}")
        if self.rates:
            if self.mode != "accumulate":
                raise ConfigError("rate-model campaigns require accumulate mode")
            if self.run_cycles is None:
                raise ConfigError("rate-model campaigns require run_cycles")
            for name, rate in self.rates.items():
                if name not in _DOMAIN_BY_NAME:
                    raise ConfigError(f"unknown rate domain {name!r}")
                if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0 <= rate <= 1:
                    raise ConfigError(f"rates must be numbers in [0, 1], got {name}: {rate!r}")
        cycles = self.run_cycles
        if not (cycles is None or type(cycles) is int and cycles >= 0):
            raise ConfigError(f"run_cycles must be a non-negative integer, got {cycles!r}")
        if self.rates and cycles > _INT64_MAX:  # _poisson_specs draws cycles as int64
            raise ConfigError(f"run_cycles of a rate model must be below 2^63, got {cycles}")
        for name, rate in (self.rates or {}).items():
            if rate * cycles > _POISSON_LAM_MAX:
                raise ConfigError(f"rates: {name}: {rate!r} per cycle over {cycles} cycles "
                                  f"is a Poisson mean above numpy's {_POISSON_LAM_MAX:.6g}")
        fraction = self.edge_aligned_fraction
        if not isinstance(fraction, (int, float)) or isinstance(fraction, bool) or not (
            0.0 <= fraction <= 1.0
        ):
            raise ConfigError(f"edge_aligned_fraction must be within [0, 1], got {fraction!r}")
        if not isinstance(self.golden_compare, bool):
            raise ConfigError(f"golden_compare must be true or false, got {self.golden_compare!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for spec in self.faults:
            spec.validate()

    def to_dict(self):
        """The config as ``from_dict`` takes it: ``version`` and one key per field."""
        return {
            "version": 1,
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
            "system": self.system.to_dict(),
            "faults": [dataclasses.asdict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"campaign config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        version = d.pop("version", 1)
        if version != 1:
            raise ConfigError(f"unsupported campaign config version {version}")
        if "system" in d:
            d["system"] = SystemConfig.from_dict(d["system"])
        try:
            d["faults"] = [FaultSpec(**f) for f in d.get("faults", [])]
            cfg = cls(**d)
        except TypeError as exc:  # the message names an unknown or missing field
            raise ConfigError(f"campaign config: {exc}") from None
        cfg.validate()
        return cfg


@dataclass
class ResolvedFault:
    """A fault with every random choice pinned down."""

    index: int
    at_cycle: int
    kind: str  # "cell" | "sram"
    key: object
    domain: Domain
    replica: int
    bit: int
    phase: str
    count: int


def resolve_faults(config, registry_kernel, rng=None):
    """Pin down every random choice and check every target; deterministic given the seed.
    ``rng`` defaults to a generator seeded with the campaign seed, built only if some
    spec or the rate model leaves something to draw."""
    config.validate()  # before any draw
    if rng is None and (config.rates or any(
        spec.kind == "random" or spec.replica is None or spec.bit is None
        for spec in config.faults
    )):
        rng = np.random.default_rng(config.seed)
    resolved = []
    specs = list(config.faults)
    if config.rates:
        specs += _poisson_specs(config, rng)
    for index, spec in enumerate(specs):
        kind, key, replica, bit, phase = spec.kind, spec.key, spec.replica, spec.bit, spec.phase
        if kind == "random":  # draw the target; replica and bit are drawn below
            if key == "sram":
                kind, key, phase = "sram", int(rng.integers(registry_kernel.sram.rows)), MID_CYCLE
            else:
                cells = registry_kernel.cells_in_domain(_DOMAIN_BY_NAME[key])
                kind, key = "cell", cells[int(rng.integers(len(cells)))]
            replica = bit = None
        domain, width = registry_kernel._flip_target(kind, key, phase)
        if replica is None:
            replica = int(rng.integers(3))
        if bit is None:
            bit = int(rng.integers(width))
        if not 0 <= bit < width:
            raise ConfigError(f"bit {bit} out of range for {key!r} (width {width})")
        fraction = config.edge_aligned_fraction if spec.kind == "random" and kind == "cell" else 0
        if phase == MID_CYCLE and fraction and rng.random() < fraction:
            phase = EDGE_ALIGNED
        resolved.append(ResolvedFault(index, spec.at_cycle, kind, key, domain, replica, bit,
                                      phase, spec.count))
    return resolved


def _poisson_specs(config, rng):
    """Expand a per-domain rate model into random FaultSpecs (arrival times first)."""
    specs = []
    horizon = config.run_cycles
    for name in ("core", "sram", "periph"):
        rate = config.rates.get(name, 0.0)
        if rate <= 0:
            continue
        n = int(rng.poisson(rate * horizon))
        cycles = sorted(int(c) for c in rng.integers(0, horizon, n))
        for c in cycles:
            specs.append(FaultSpec(at_cycle=c, kind="random", key=name))
    return specs


def _schedule(kernel, fault):
    for i in range(fault.count):
        kernel.schedule_flip(
            fault.at_cycle, fault.kind, fault.key, (fault.replica + i) % 3, fault.bit,
            phase=fault.phase,
        )


def _record(fault, outcome, diverged, counters, totals):
    """One fault's record; ``counters`` and ``totals`` are its run's, built once per run."""
    detected, latency, uncorrectable = outcome
    return {
        "index": fault.index,
        "kind": fault.kind,
        "target": fault.key,
        "domain": DOMAIN_NAMES[fault.domain],
        "replica": fault.replica,
        "bit": fault.bit,
        "count": fault.count,
        "phase": fault.phase,
        "at_cycle": fault.at_cycle,
        "detected": detected,
        "correction_latency_cycles": latency,
        "uncorrectable": uncorrectable,
        "diverged": diverged,
        "counters": list(counters),
        "event_totals": dict(totals),
    }


@dataclass
class CampaignReport:
    config: CampaignConfig
    golden: dict | None
    records: list
    summary: dict

    def to_jsonl(self):
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def latency_histogram(self):
        hist = {}
        for r in self.records:
            lat = r["correction_latency_cycles"]
            if lat is not None:
                hist[lat] = hist.get(lat, 0) + 1
        return dict(sorted(hist.items()))


def _classify(stream, faults, end):
    """(detected, correction latency, uncorrectable) of each fault, from one run's stream.

    ``end`` is the cycle the run has reached; see the module docstring for the rules.
    """
    last_seen = {}  # (domain, element) -> the last cycle it was discrepant
    changes = {}  # target -> [(cycle, clean afterwards)], in stream order
    vote_changed = set()  # targets that some flip changed the vote of
    for rec in stream:
        kind = type(rec)
        if kind is Discrepancy:
            last_seen[rec.domain, rec.element] = rec.cycle
        elif kind is Flip:
            changes.setdefault(rec.target, []).append((rec.cycle, False))
            if rec.vote_changed:
                vote_changed.add(rec.target)
        elif kind is Repair:
            changes.setdefault(rec.target, []).append((rec.cycle, True))
    outcomes = []
    for fault in faults:
        detected = last_seen.get((fault.domain, fault.key), -1) >= fault.at_cycle
        uncorrectable = fault.key in vote_changed
        latency = None
        if not uncorrectable:
            landing = fault.at_cycle + (1 if fault.phase == EDGE_ALIGNED else 0)
            requal = _requal_cycle(changes.get(fault.key, ()), landing, end)
            if requal is not None:
                # SRAM latency counts the injection cycle too
                latency = requal - fault.at_cycle + (1 if fault.kind == "sram" else 0)
        outcomes.append((detected, latency, uncorrectable))
    return outcomes


def _requal_cycle(changes, landing, end):
    """The first cycle >= ``landing`` and < ``end`` at whose end the target was clean.

    ``changes`` are the target's (cycle, clean afterwards) from its flips and
    repairs, in cycle order; the target is clean before the first. The changes up
    to the landing cycle only give the state there, so the walk starts after them.
    """
    i = bisect_right(changes, landing, key=itemgetter(0))
    # the state at the end of cycles since .. next change - 1
    clean, since = changes[i - 1][1] if i else True, landing
    for j in range(i, len(changes)):
        cycle, now_clean = changes[j]
        if clean and since < cycle:
            return since
        clean, since = now_clean, cycle
    return since if clean and since < end else None


def _records(kernel, faults):
    """The record of each fault, from the kernel's final state and its event stream.

    The event totals are those of the increments that landed by the run's end, as the
    counters are: an increment counted in the last cycle is still pending."""
    outcomes = _classify(kernel.sink, faults, kernel.cycle)
    bank = kernel.counters
    counters = bank.values()
    totals = {DOMAIN_NAMES[d]: n - bank.pending.get(d, 0) for d, n in bank.totals.items()}
    return [
        _record(fault, outcome, None, counters, totals) for fault, outcome in zip(faults, outcomes)
    ]


class _ForkedCampaign:
    """The isolated-mode engine (see the module docstring): one fork at a time, each
    run to its end unless its upset changed no vote."""

    def __init__(self, golden, length, golden_compare):
        self.golden = golden
        self.length = length
        self.golden_compare = golden_compare
        self.golden_error = None  # what golden raised, when golden_compare is off
        # fault index -> its one result: (record, final signature, None) for a run that
        # ran out, (record, None, golden's counter reads at the match) for one that
        # matched golden, or the exception its run raised
        self.results = {}
        self.kernel = None  # the fork kernel, resumed by every fork in turn

    def run(self, faults):
        """Return (golden signature or None, records in fault order).

        Raises what the faulted runs, one after another, would have raised. Once it
        returns or raises, the engine holds no exception: a traceback holds the
        engine, so a kept one would keep every kernel alive until a garbage collection.
        """
        golden, results = self.golden, self.results
        try:
            due = {}
            for fault in faults:
                due.setdefault(fault.at_cycle, []).append(fault)
            cycles = sorted(due, reverse=True)
            while cycles and not self._golden_to(cycles[-1]):
                checkpoint = golden.checkpoint()
                for fault in due[cycles.pop()]:
                    self._fork(checkpoint, fault)
            # a fault due at or after golden's end never lands: its run is golden's
            leftover = [fault for cycle in cycles for fault in due[cycle]]
            for record in _records(golden, leftover):
                results[record["index"]] = (record, None, golden.counters.reads)

            golden_sig = None
            if self.golden_compare:
                self._golden_to(math.inf)
                golden_sig = golden.architectural_signature()
            # Settle in fault order, so the first exception met is the one raised.
            reset = None
            records = []
            for fault in faults:
                entry = results[fault.index]
                if not isinstance(entry, SimError) and entry[2] is not None:  # matched golden
                    self._golden_to(math.inf)  # golden runs to its end only if some fork matched
                    if entry[2] != golden.counters.reads:
                        # golden reads the SEU counters after the match: rerun from reset
                        reset = reset or Kernel(golden.config).checkpoint()
                        self._fork(reset, fault, to_end=True)
                        entry = results[fault.index]
                    elif self.golden_error is not None:
                        entry = self.golden_error
                if isinstance(entry, SimError):
                    raise entry
                record, sig, _ = entry
                if golden_sig is not None:
                    record["diverged"] = sig is not None and sig != golden_sig
                records.append(record)
            return golden_sig, records
        finally:  # a raised exception's traceback holds this frame and the engine
            results.clear()
            self.golden_error = entry = None

    def _golden_to(self, target):
        """Advance golden to ``target``; True once its run is over, by its end or by raising."""
        if self.golden_error is not None:
            return True
        try:
            return self.golden._advance(target, self.length)
        except SimError as exc:
            if self.golden_compare:
                raise
            self.golden_error = exc
            return True

    def _fork(self, checkpoint, fault, to_end=False):
        """Run ``fault`` from ``checkpoint`` in the fork kernel and write its result.

        Unless ``to_end``, a single-replica cell upset steps until it is resolved and is
        recorded there as a match. Every other run goes on to its end, or until it raises.
        """
        if self.kernel is None:
            self.kernel = Kernel(self.golden.config)
        kernel, length = self.kernel, self.length
        kernel.resume(checkpoint)
        _schedule(kernel, fault)
        try:
            if not to_end and fault.kind == "cell" and fault.count == 1:  # no vote changed
                over = False
                while not (over or kernel.settled()):
                    over = kernel._advance(kernel.cycle + 1, length)
                if not over:
                    reads = self.golden.counters.reads
                    self.results[fault.index] = (*_records(kernel, [fault]), None, reads)
                    return
            kernel._advance(end=length)
        except SimError as exc:
            self.results[fault.index] = exc
            return
        sig = kernel.architectural_signature() if self.golden_compare else None
        self.results[fault.index] = (*_records(kernel, [fault]), sig, None)


def run_campaign(config):
    """Execute a fault campaign; deterministic given the config (incl. seed)."""
    golden = Kernel(config.system)
    resolved = resolve_faults(config, golden)  # validates the config first
    length = config.run_cycles
    if config.mode == "isolated":
        golden_sig, records = _ForkedCampaign(golden, length, config.golden_compare).run(resolved)
        summary = _summarize(records, config)
    else:
        golden._advance(min((f.at_cycle for f in resolved), default=math.inf), length)
        checkpoint = golden.checkpoint()
        golden_sig = None
        if config.golden_compare:
            golden._advance(end=length)
            golden_sig = golden.architectural_signature()
        golden.resume(checkpoint)  # golden's kernel runs the faulted run
        for fault in sorted(resolved, key=attrgetter("at_cycle")):  # cycle order: no rebuilds
            _schedule(golden, fault)
        golden._advance(end=length)
        records = _records(golden, resolved)
        summary = _summarize(records, config)
        if golden_sig is not None:
            summary["run_diverged"] = golden.architectural_signature() != golden_sig
    return CampaignReport(config=config, golden=golden_sig, records=records, summary=summary)


def _summarize(records, config):
    corrected = [r for r in records if r["correction_latency_cycles"] is not None]
    latencies = [r["correction_latency_cycles"] for r in corrected]
    summary = {
        "mode": config.mode,
        "seed": config.seed,
        "faults": len(records),
        "detected": sum(1 for r in records if r["detected"]),
        "corrected": len(corrected),
        "uncorrectable": sum(1 for r in records if r["uncorrectable"]),
        "diverged": sum(1 for r in records if r.get("diverged")),
        "max_latency_cycles": max(latencies) if latencies else None,
        "mean_latency_cycles": (sum(latencies) / len(latencies)) if latencies else None,
    }
    return summary


def counter_crosscheck(report):
    """True iff, in every record, each domain's memory-mapped counter equals the
    number of distinct detected discrepancy events for that domain, saturated."""
    for rec in report.records:
        totals = rec["event_totals"]
        expected = [min(totals[DOMAIN_NAMES[d]], COUNTER_SATURATION) for d in Domain]
        if list(rec["counters"]) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# standalone SRAM scrub-latency experiments (no core activity)
# ---------------------------------------------------------------------------


def scrub_latency_samples(rows=8192, samples=10_000, seed=0):
    """Measure single-upset correction latencies against the real scrubber FSM.

    One continuous simulation; each sample injects one bit flip into a clean row at
    a known phase offset from the scan pointer and steps the FSM until the row is
    written back, counting cycles inclusively. With ``samples >= rows`` the first
    ``rows`` offsets form a seeded random permutation of all phase offsets (so the
    worst case is realized); the rest, and every offset otherwise, are uniform.
    """
    rng = np.random.default_rng(seed)
    sram = SramArray(rows)
    scrub = Scrubber(rows)
    if samples >= rows:
        offsets = list(rng.permutation(rows))
        offsets += list(rng.integers(0, rows, samples - rows))
    else:
        offsets = list(rng.integers(0, rows, samples))
    replicas = rng.integers(0, 3, samples)
    bits = rng.integers(0, 32, samples)

    latencies = []
    step = scrub.step
    for i in range(samples):
        offset = int(offsets[i])
        row = (scrub.row_ptr.value + offset) % rows
        sram.flip(row, int(replicas[i]), int(bits[i]))
        # clean rows ahead of the upset are skipped; the dirty row is stepped
        elapsed = scrub.skip_clean(sram, 0, rows + 2)
        while True:
            elapsed += 1
            if step(sram, None) == row:
                break
            if elapsed > rows + 2:
                raise AssertionError("scrubber failed to correct within its bound")
        latencies.append(elapsed)
    return latencies

