#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload at a tiny size, untraced and traced, and checks that the
metrics are exactly those BENCHMARK.json names. It then corrupts one output of
each workload and checks that the corruption is counted as a failed, wrong
operation, and that a crash of a double upset is counted as aborted, neither
failed nor wrong. Exits non-zero at the first check that does not hold.
"""

import dataclasses
import json
import sys
from pathlib import Path

import run as bench  # noqa: E402  (run.py sits beside this file)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(bench.SRC))

import workloads  # noqa: E402
from tmrv32 import BusFault  # noqa: E402


def expect(ok, what):
    if not ok:
        sys.exit(f"smoke: FAIL: {what}")
    print(f"smoke: ok: {what}")


def _outcome(wl, job, out):
    o = wl.check(job, out)
    return o.attempted, o.failed, o.wrong, o.aborted


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in bench.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, tot, _ = bench.run(name, 3, 0.2, trace, scale=workloads.TINY)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: unit for k, (_, unit) in metrics.items()}
            expect(got == want, f"{name} trace={trace} reports the {key} metrics of BENCHMARK.json")
            expect(tot["attempted"] >= 1 and tot["failed"] == 0,
                   f"{name} trace={trace} attempted {tot['attempted']} ops, none failed")


def check_corruption():
    wl = workloads.KernelLoop(3, workloads.TINY)
    result, sig = wl.run(0)
    expect(_outcome(wl, 0, (result, sig)) == (1, 0, 0, 0), "kernel-loop run passes its check")
    bad = dataclasses.replace(result, retired=result.retired + 1)
    expect(_outcome(wl, 0, (bad, sig)) == (1, 1, 1, 0),
           "kernel-loop: a changed RunResult field fails")
    expect(_outcome(wl, 0, (result, dict(sig, regs=(0,) * 32)))[2] == 1,
           "kernel-loop: a wrong checksum register fails")

    wl = workloads.CampaignSweep(3, workloads.TINY)
    single = next(j for j in wl.jobs if wl.configs[j].faults[0].count == 1)
    double = next(j for j in wl.jobs if wl.configs[j].faults[0].count == 2)
    report = wl.run(single)
    n = len(report.records)
    expect(_outcome(wl, single, report) == (n, 0, 0, 0), "campaign-sweep single upsets pass")
    report.records[0]["detected"] = False
    expect(_outcome(wl, single, report) == (n, 1, 1, 0),
           "campaign-sweep: one changed record field fails")
    crash = BusFault(0x40000000, "read from unmapped address")
    expect(_outcome(wl, double, crash) == (1, 0, 0, 1),
           "campaign-sweep: a crashing double upset is aborted, neither failed nor wrong")
    expect(_outcome(wl, single, crash) == (n, n, n, 0),
           "campaign-sweep: a crashing single upset is wrong")

    wl = workloads.ScrubSoak(3, workloads.TINY)
    report = wl.run(0)
    n = len(report.records)
    expect(n > 0 and _outcome(wl, 0, report) == (n, 0, 0, 0), "scrub-soak campaign passes")
    report.records[-1]["uncorrectable"] = True
    expect(_outcome(wl, 0, report) == (n, 1, 1, 0), "scrub-soak: one changed record field fails")

    # At the default seed, a field no invariant covers is caught by the pinned digests.
    wl = workloads.CampaignSweep(workloads.DEFAULT_SEED)
    single = next(j for j in wl.jobs if wl.configs[j].faults[0].count == 1)
    report = wl.run(single)
    n = len(report.records)
    expect(_outcome(wl, single, report) == (n, 0, 0, 0), "campaign-sweep matches its pinned records")
    report.records[1]["counters"] = [9, 9, 9]
    expect(_outcome(wl, single, report)[1] >= 1,
           "campaign-sweep: a record differing from pinned fails")
    completed = next(j for j in wl.jobs
                     if wl.configs[j].faults[0].count == 2 and "records" in wl.pinned[j])
    expect(_outcome(wl, completed, crash) == (1, 1, 1, 0),
           "campaign-sweep: a double upset that raises where the pinned run completed is wrong")


if __name__ == "__main__":
    check_metric_names()
    check_corruption()
