#!/usr/bin/env python3
"""Regenerate pinned.json: every job's output at the default seed and full scale.

Run from the root of a checkout, only after a change that is meant to alter
simulated results (a speed-only change must leave this file identical):

    python3 perfbench/pin.py

Each output must pass the workload's invariant check before it is pinned.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    pinned = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED)
        wl.pinned = None  # check invariants only, never against the file being rewritten
        entries = []
        for job in sorted(wl.jobs):
            out = wl.run(job)
            outcome = wl.check(job, out)
            if outcome.wrong:
                sys.exit(f"{name} job {job} fails its output check: {outcome.errors}")
            entries.append(wl.pinnable(out))
        pinned[name] = entries[0] if name == "kernel-loop" else entries
        print(f"{name}: pinned {len(entries)} jobs", file=sys.stderr)
    workloads.PINNED_PATH.write_text(json.dumps(pinned, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
