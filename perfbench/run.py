#!/usr/bin/env python3
"""The tmrv32 benchmark: host time per simulated cycle and per injected fault.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernel-loop --seed 0 --seconds 30 --trace 0

It imports the simulator from ``src/`` beside this directory, builds the
workload's inputs from ``--seed`` (timed as ``setup_s``), runs the workload's
jobs for ``--seconds`` seconds in one process and one thread, checks every
output, and prints each metric with its unit, a provenance line, and finally
one JSON object. ``--trace 1`` instead profiles one fixed unit of the workload
and prints the per-layer metrics. See README.md in this directory.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import model

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The names of workloads.WORKLOADS, known before that module's timed import.
WORKLOAD_NAMES = ("kernel-loop", "campaign-sweep", "scrub-soak")
SETUP_REPEATS = 11


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed, seconds, trace):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
    }


def _totals(outcomes):
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "wrong": sum(o.wrong for o in outcomes),
        "aborted": sum(o.aborted for o in outcomes),
        "sim_cycles": sum(o.sim_cycles for o in outcomes),
        "faults": sum(o.faults for o in outcomes),
        "errors": [e for o in outcomes for e in o.errors],
    }


def _fresh_workloads():
    """Import the workloads module anew, together with tmrv32 and the modules it uses."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("tmrv32", "workloads", "programs"):
            del sys.modules[name]
    return importlib.import_module("workloads")


def run(name, seed, seconds, trace, scale=None):
    """Set up, measure and check one workload; return (metrics, totals, metrics to print).

    Set-up (importing tmrv32 and the benchmark modules anew, then building
    the workload) runs ``SETUP_REPEATS`` times; ``setup_s`` is the median.
    numpy stays imported after the first repetition, so its import cost falls
    outside the median.

    Times and rates are normalized to a host on which
    ``model.reference_work()`` takes ``model.REF_HOST_S``. The reference runs
    after each set-up and between jobs; a time is scaled by ``REF_HOST_S``
    over the mean reference time measured next to it, and a rate is work over
    the sum of normalized job times. Other tenants of a shared host slow the
    benchmark down by up to half, in bursts of seconds to minutes; the
    reference, pure Python like the simulator, slows down with it.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workloads = _fresh_workloads()
        wl = workloads.WORKLOADS[name](seed, workloads.FULL if scale is None else scale)
        setups.append(time.perf_counter() - t)
        refs.append(model.reference_time())
    setup_raw = statistics.median(setups)
    setup_s = setup_raw * model.REF_HOST_S / statistics.median(refs)

    if trace:
        return _traced(wl)

    # Jobs run back to back until the deadline, cycling through the job list.
    # Between jobs the reference runs for REF_SHARE of the last job's time (see
    # model.normalized); a job's host time is normalized by the mean of the
    # reference times before and after it.
    outcomes, busy, normalized = [], 0.0, 0.0
    ref_before = model.reference_time()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        job = wl.jobs[i % len(wl.jobs)]
        i += 1
        t = time.perf_counter()
        out = wl.run(job)
        elapsed = time.perf_counter() - t
        outcomes.append(wl.check(job, out))
        ref_after = model.reference_time(model.REF_SHARE * elapsed)
        busy += elapsed
        normalized += elapsed * model.REF_HOST_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        if time.perf_counter() >= deadline:
            break
    tot = _totals(outcomes)

    metrics = {
        "sim_cycles_per_s": (tot["sim_cycles"] / normalized, "cycles/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = dict(metrics)
    if wl.injects_faults:
        shown["faults_per_s"] = (tot["faults"] / normalized, "faults/s")
    shown["ops_failed_frac"] = (tot["failed"] / tot["attempted"], "fraction")
    if wl.injects_faults:
        shown["ops_aborted_frac, known defect"] = (tot["aborted"] / tot["attempted"], "fraction")
    shown["sim_cycles_per_s, not normalized"] = (tot["sim_cycles"] / busy, "cycles/s")
    shown["setup_s, not normalized"] = (setup_raw, "s")
    shown["host slowdown, reference time / REF_HOST_S"] = (busy / normalized, "ratio")
    return metrics, tot, shown


def _traced(wl):
    import layers

    costs = layers.per_call_costs()
    unit = wl.trace_jobs

    def run_unit():
        return [(job, wl.run(job)) for job in unit]

    t = time.perf_counter()
    plain = run_unit()
    untraced = model.normalized(time.perf_counter() - t)
    traced, wall, self_s, calls = layers.profile(run_unit)
    overhead = model.normalized(wall) / untraced
    outcomes = [wl.check(job, out) for job, out in plain + traced]
    faults = sum(o.attempted for o in outcomes[len(plain):]) if wl.injects_faults else 0
    ipc = wl.ipc([out for _, out in plain])
    metrics = layers.layer_metrics(wall, overhead, self_s, calls, faults, ipc)
    # Every double upset of the workload runs once more, untraced, to measure
    # how many the known campaign-abort defect ends.
    doubles = [wl.check(job, wl.run(job)) for job in wl.double_jobs]
    tot = _totals(outcomes + doubles)
    metrics["seu.aborted_frac"] = (
        sum(o.aborted for o in doubles) / len(doubles) if doubles else 0.0, "fraction")
    metrics.update(costs)
    shown = dict(metrics)
    shown["reference_work, host time"] = (model.reference_time() * 1e3, "ms")
    return metrics, tot, shown


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tmrv32" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}/tmrv32", file=sys.stderr)
        return 2

    metrics, tot, shown = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    print(f"  ops attempted {tot['attempted']}, failed {tot['failed']}, wrong {tot['wrong']}, "
          f"aborted by the known defect {tot['aborted']}")
    for error in sorted(set(tot["errors"]))[:20]:
        print(f"  error: {error}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds,
                                                args.trace), sort_keys=True))
    result = {
        "correct": tot["wrong"] == 0,
        "attempted": tot["attempted"],
        "failed": tot["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
