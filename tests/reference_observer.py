"""A per-cycle campaign observer: the reference for the event-stream classifier.

``observed_run`` watches a faulted run with one monitor per fault, called after
every simulated cycle, a wrapper around ``Kernel._do_flip`` that compares the
target's vote before and after each flip, and a log of every cycle's distinct
discrepancies, single-stepping the kernel. ``run_campaign`` must classify every
fault as it does, from the event stream alone.
"""

import math

import numpy as np

from tmrv32 import seu
from tmrv32.errors import SimError, SimTimeout
from tmrv32.kernel import EDGE_ALIGNED, Kernel
from tmrv32.seu import CampaignReport


class TargetMonitor:
    """Watches one injection target: vote change at flip time, replica re-equality."""

    def __init__(self, kernel, fault):
        self.fault = fault
        self.landing = fault.at_cycle + (1 if fault.phase == EDGE_ALIGNED else 0)
        self.vote_changed = False
        self.requal_cycle = None
        self.cell = kernel.registry[fault.key] if fault.kind == "cell" else None

    def observe_flip(self, kind, key, vote_before, vote_after):
        if kind == self.fault.kind and key == self.fault.key and vote_after != vote_before:
            self.vote_changed = True

    def on_cycle(self, kernel):
        if self.requal_cycle is not None:
            return
        completed = kernel.cycle - 1
        if completed < self.landing:
            return
        if self.cell is not None:
            equal = not self.cell.discrepancy
        else:
            a, b, c = kernel.sram.scrub_read(self.fault.key)
            equal = a == b == c
        if equal:
            self.requal_cycle = completed

    def latency(self):
        if self.requal_cycle is None or self.vote_changed:
            return None
        if self.fault.kind == "sram":
            return self.requal_cycle - self.fault.at_cycle + 1
        return self.requal_cycle - self.fault.at_cycle


def _vote(kernel, kind, key):
    if kind == "cell":
        return kernel.registry[key].value
    a, b, c = kernel.sram.scrub_read(key)
    return (a & b) | (a & c) | (b & c)


def detected(log, fault):
    """Whether ``log`` holds a discrepancy on the fault's element at or after its cycle."""
    dom = int(fault.domain)
    return any(
        cycle >= fault.at_cycle and domain == dom and element == fault.key
        for cycle, domain, element in log
    )


def observed_run(system, length, faults):
    """Run ``faults`` in one kernel from reset, observed cycle by cycle.

    Returns (kernel, monitors, log); ``log`` holds (cycle, domain, element) per
    distinct discrepancy of each cycle. The run ends at the halt (raising
    SimTimeout at ``max_cycles``) with ``length`` None, else after ``length`` cycles.
    """
    kernel = Kernel(system)
    monitors = []
    for fault in faults:
        seu._schedule(kernel, fault)
        monitors.append(TargetMonitor(kernel, fault))

    def observing_do_flip(kind, key, replica, bit):
        before = _vote(kernel, kind, key)
        Kernel._do_flip(kernel, kind, key, replica, bit)
        after = _vote(kernel, kind, key)
        for monitor in monitors:
            monitor.observe_flip(kind, key, before, after)

    kernel._do_flip = observing_do_flip
    log = []
    end = math.inf if length is None else length
    while kernel.cycle < end:
        if length is None:
            if kernel.halted is not None:
                break
            if kernel.cycle >= kernel.config.max_cycles:
                raise SimTimeout(kernel.config.max_cycles)
        kernel.step_cycle()
        cycle = kernel.cycle - 1
        for domain, element in sorted(set(kernel.bus.events), key=repr):
            log.append((cycle, int(domain), element))
        for monitor in monitors:
            monitor.on_cycle(kernel)
    return kernel, monitors, log


def observed_record(fault, monitor, log, diverged, kernel):
    classified = (detected(log, fault), monitor.latency(), monitor.vote_changed)
    return seu._record(
        fault, classified, diverged, kernel.counters.values(), seu._totals_dict(kernel)
    )


def _golden_signature(config):
    golden = Kernel(config.system)
    if config.run_cycles is None:
        golden.run()
    else:
        golden.run_cycles(config.run_cycles)
    return golden.architectural_signature()


def _resolve(config):
    config.validate()
    rng = np.random.default_rng(config.seed)
    return seu.resolve_faults(config, Kernel(config.system), rng)


def reference_isolated(config):
    """An isolated campaign with every fault observed from cycle 0 to the end in its own run."""
    resolved = _resolve(config)
    golden_sig = _golden_signature(config) if config.golden_compare else None
    records = []
    for fault in resolved:
        kernel, (monitor,), log = observed_run(config.system, config.run_cycles, [fault])
        diverged = None
        if golden_sig is not None:
            diverged = kernel.architectural_signature() != golden_sig
        records.append(observed_record(fault, monitor, log, diverged, kernel))
    summary = seu._summarize(records, config)
    return CampaignReport(config=config, golden=golden_sig, records=records, summary=summary)


def reference_accumulate(config):
    """An accumulate campaign with all faults observed in one single-stepped run."""
    resolved = _resolve(config)
    golden_sig = _golden_signature(config) if config.golden_compare else None
    kernel, monitors, log = observed_run(config.system, config.run_cycles, resolved)
    records = [
        observed_record(fault, monitor, log, None, kernel)
        for fault, monitor in zip(resolved, monitors)
    ]
    summary = seu._summarize(records, config)
    if golden_sig is not None:
        summary["run_diverged"] = kernel.architectural_signature() != golden_sig
    return CampaignReport(config=config, golden=golden_sig, records=records, summary=summary)


def outcome(engine, config):
    """What ``engine(config)`` gives: (records JSONL, summary, golden), or what it raised."""
    try:
        report = engine(config)
    except SimError as exc:
        return ("raises", type(exc).__name__, str(exc))
    return (report.to_jsonl(), report.summary, report.golden)
