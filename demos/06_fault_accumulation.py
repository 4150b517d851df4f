"""Why scrubbing exists: upset accumulation defeats the voters without it.

A Poisson rain of SRAM upsets falls on an idle system. With the scrubber off,
mismatched rows pile up until two hits land on the same row and bit in
different replicas: from then on the voted data is wrong. With the scrubber on
at the same rate, the standing damage stays at a handful of rows in flight.
"""

import numpy as np

from tmrv32.kernel import Kernel, SystemConfig
from tmrv32 import encode as E


def rain(scrub_enabled, cycles=60_000, rate=0.005, seed=31):
    """Drop ~rate upsets/cycle into random SRAM bits; report standing damage."""
    p = E.Program()
    p.emit(E.ebreak())  # idle core: the memory just sits there, as live data does
    kernel = Kernel(SystemConfig(image=p.assemble(), scrub_enabled=scrub_enabled))
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * cycles))
    for _ in range(n):
        kernel.schedule_flip(
            int(rng.integers(cycles)), "sram",
            int(rng.integers(8192)), int(rng.integers(3)), int(rng.integers(32)),
        )
    kernel.run_cycles(cycles)
    dirty = sorted(kernel.sram.dirty)
    voted = np.frombuffer(kernel.sram.voted_bytes(), dtype="<u4")
    corrupted_words = int(np.count_nonzero(voted))  # memory started all-zero
    return n, len(dirty), corrupted_words, kernel.counters.values()


cycles = 60_000
print(f"raining upsets on 32 kB of SRAM for {cycles} cycles (1.2 ms at 50 MHz)...")
print()
for enabled in (False, True):
    injected, dirty, corrupted, counters = rain(enabled)
    label = "scrubber ON " if enabled else "scrubber OFF"
    print(f"{label}: {injected} upsets injected")
    print(f"   rows still mismatched at the end: {dirty}")
    print(f"   words whose *voted* value is corrupted: {corrupted}")
    print(f"   SEU counters (core/sram/periph): {counters}")
    print()
print("the scrubber cannot prevent every double hit (two upsets inside one scan")
print("pass can still collide), but it removes the unbounded accumulation that")
print("makes collisions inevitable over time")
