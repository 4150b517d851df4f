"""Scrub FSM: clean pass, detect/write-back, conflict skip, wrap, analytic bound."""

import numpy as np
import pytest

from tmrv32 import encode as E
from tmrv32.kernel import Discrepancy, Kernel, SystemConfig
from tmrv32.memory import SramArray
from tmrv32.scrubber import PHASE_READ, PHASE_WRITEBACK, Scrubber, worst_case_correction_cycles
from tmrv32.seu import scrub_latency_samples


def test_clean_full_pass_no_writes():
    sram = SramArray(8)
    scrub = Scrubber(8)
    writes = [scrub.step(sram, None) for _ in range(8)]
    assert writes == [None] * 8
    assert scrub.row_ptr.value == 0  # wrapped back to the start
    assert scrub.phase.value == PHASE_READ


def test_single_flip_detect_then_writeback():
    # hand-stepped on a 4-row toy: read rows 0,1 clean; read row 2 dirty (no
    # advance); write back row 2; continue at row 3
    sram = SramArray(4)
    for row in range(4):
        sram.write_masked(row, 0x1111 * (row + 1), 0xFFFFFFFF)
    sram.flip(2, 0, 4)
    scrub = Scrubber(4)
    assert scrub.step(sram, None) is None  # row 0 clean
    assert scrub.step(sram, None) is None  # row 1 clean
    assert scrub.step(sram, None) is None  # row 2 mismatch: vote, hold position
    assert scrub.phase.value == PHASE_WRITEBACK
    assert scrub.row_ptr.value == 2
    assert scrub.step(sram, None) == 2  # write-back
    assert sram.scrub_read(2) == (0x3333, 0x3333, 0x3333)
    assert scrub.row_ptr.value == 3
    assert scrub.phase.value == PHASE_READ


def test_upset_row_pointer_past_the_last_row_raises():
    # a 5-row toy keeps a 3-bit pointer, so an upset can leave it at rows 5..7
    sram = SramArray(5)
    scrub = Scrubber(5)
    scrub.row_ptr.write(6)
    with pytest.raises(ValueError):
        scrub.step(sram, None)


def test_conflict_skip_keeps_core_data():
    sram = SramArray(4)
    sram.write_masked(1, 0xAAAA, 0xFFFFFFFF)
    sram.flip(1, 2, 0)
    scrub = Scrubber(4)
    scrub.step(sram, None)  # row 0 clean
    scrub.step(sram, None)  # row 1 mismatch -> write-back pending
    assert scrub.phase.value == PHASE_WRITEBACK
    # core writes row 1 in the write-back cycle: scrub write is skipped
    sram.write_masked(1, 0xBBBB, 0xFFFFFFFF)
    assert scrub.step(sram, core_write_row=1) is None
    assert sram.scrub_read(1) == (0xBBBB, 0xBBBB, 0xBBBB)  # core value everywhere
    assert scrub.row_ptr.value == 2  # scan moved on
    assert scrub.phase.value == PHASE_READ


def test_a_store_merged_before_the_writeback_is_kept():
    # a slowed scrubber: the core stores into the pending row on a cycle without a step
    sram = SramArray(4)
    sram.write_masked(1, 0xAAAA, 0xFFFFFFFF)
    sram.flip(1, 2, 0)
    sram.flip(1, 0, 20)
    scrub = Scrubber(4)
    scrub.step(sram, None)  # row 0 clean
    scrub.step(sram, None)  # row 1 mismatch -> write-back pending
    scrub.merge_store(sram, 2)  # another row: the pending word stays
    assert scrub.pending_word.value == 0xAAAA
    sram.write_masked(1, 0xCC00, 0xFF00)  # a byte store; bit 20 of replica 0 stays upset
    scrub.merge_store(sram, 1)
    assert scrub.pending_word.value == 0xCCAA
    assert scrub.step(sram, None) == 1
    assert sram.scrub_read(1) == (0xCCAA, 0xCCAA, 0xCCAA)
    assert not sram.dirty


def _store_between_spins(passes):
    """``passes`` turns of a countdown loop, one ``sw`` of 0x5A5 to row 50, 100 more
    turns, then ``lw x4`` from row 50 and ``ebreak``."""
    p = E.Program()
    p.emit(E.addi(2, 0, 0x5A5), E.addi(3, 0, passes))
    p.label("first")
    p.emit(E.addi(3, 3, -1))
    p.branch(E.bne, 3, 0, "first")
    p.emit(E.sw(2, 0, 200), E.addi(3, 0, 100))
    p.label("second")
    p.emit(E.addi(3, 3, -1))
    p.branch(E.bne, 3, 0, "second")
    p.emit(E.lw(4, 0, 200), E.ebreak())
    return p.assemble()


# (scrub_divider, passes): the store lands between the read of row 50 and its
# write-back, on a cycle without a scrub step
@pytest.mark.parametrize("divider, passes", [(2, 33), (3, 50), (4, 67), (8, 133), (8, 135)])
def test_a_slowed_scrubber_keeps_a_store_made_before_its_writeback(divider, passes):
    kernel = Kernel(SystemConfig(image=_store_between_spins(passes), scrub_divider=divider))
    kernel.schedule_flip(0, "sram", 50, 1, 3)  # one upset, which TMR masks
    kernel.run()
    assert [(r.element, r.source) for r in kernel.sink if type(r) is Discrepancy] == [
        (50, "scrub")  # the write-back; the load reads a clean row
    ]
    assert kernel.arch.reg_values()[4] == 0x5A5
    assert kernel.sram.scrub_read(50) == (0x5A5, 0x5A5, 0x5A5)


def test_writeback_proceeds_when_core_writes_other_row():
    sram = SramArray(4)
    sram.flip(1, 0, 3)
    scrub = Scrubber(4)
    scrub.step(sram, None)
    scrub.step(sram, None)  # detects row 1
    assert scrub.step(sram, core_write_row=3) == 1  # conflict is row-granular
    assert sram.scrub_read(1) == (0, 0, 0)


def test_row_pointer_wraps():
    sram = SramArray(3)
    scrub = Scrubber(3)
    seen = [scrub.row_ptr.value for _ in range(7) if scrub.step(sram, None) or True]
    assert scrub.row_ptr.value == 7 % 3


def test_scrubber_state_is_tmr_protected():
    # a flip in the row-pointer replica does not derail the scan
    sram = SramArray(8)
    sram.flip(6, 1, 12)
    scrub = Scrubber(8)
    scrub.step(sram, None)  # row 0
    scrub.row_ptr.flip(0, 2)  # upset one replica of the pointer (would point at 5)
    for cell in scrub.cells():
        cell.refresh()  # the feedback path repairs it at the next edge
    assert scrub.row_ptr.value == 1
    writes = [scrub.step(sram, None) for _ in range(8)]
    assert 6 in writes  # coverage preserved, upset row still corrected
    assert sram.scrub_read(6) == (0, 0, 0)


def test_worst_case_formula():
    assert worst_case_correction_cycles(1) == 2
    assert worst_case_correction_cycles(4) == 5
    assert worst_case_correction_cycles(8192) == 8193
    assert worst_case_correction_cycles(4, other_dirty_rows=2) == 7
    with pytest.raises(ValueError):
        worst_case_correction_cycles(0)


def test_single_row_memory_latency_two_cycles():
    sram = SramArray(1)
    sram.flip(0, 0, 0)
    scrub = Scrubber(1)
    assert scrub.step(sram, None) is None  # read detects
    assert scrub.step(sram, None) == 0  # write-back
    assert sram.scrub_read(0) == (0, 0, 0)


def test_exhaustive_toy_all_offsets_and_rows():
    results = exhaustive_toy_scrub_latency(rows=4)
    assert len(results) == 16
    for offset, row, measured, expected in results:
        assert measured == expected == offset + 2
    assert max(m for _, _, m, _ in results) == worst_case_correction_cycles(4)


def test_exhaustive_toy_16_rows():
    results = exhaustive_toy_scrub_latency(rows=16)
    assert all(measured == expected for _, _, measured, expected in results)
    assert max(m for _, _, m, _ in results) == 17


def test_latency_samples_bounded_small():
    latencies = scrub_latency_samples(rows=64, samples=200, seed=3)
    assert len(latencies) == 200
    assert max(latencies) <= worst_case_correction_cycles(64)
    assert min(latencies) >= 2


def test_multiple_dirty_rows_each_add_one_writeback():
    # 3 dirty rows on an 8-row toy: the scan pays one extra cycle per write-back
    sram = SramArray(8)
    for row in (2, 4, 6):
        sram.flip(row, 0, 1)
    scrub = Scrubber(8)
    cycles = 0
    fixed = []
    while len(fixed) < 3:
        row = scrub.step(sram, None)
        cycles += 1
        if row is not None:
            fixed.append(row)
        assert cycles <= worst_case_correction_cycles(8, other_dirty_rows=2)
    assert fixed == [2, 4, 6]


def _state(sram, scrub):
    return [bank.tobytes() for bank in sram.banks], [cell.replicas for cell in scrub.cells()]


@pytest.mark.parametrize("rows", [16, 256])
@pytest.mark.parametrize("divider", [1, 3])
def test_skip_clean_matches_single_steps(rows, divider):
    # seeded flips (some same-row, some same-bit) against one step per due cycle
    rng = np.random.default_rng(rows + divider)
    total = 6 * rows * divider
    flips = {}
    for cycle in rng.choice(total, size=24, replace=False):
        flips[int(cycle)] = (int(rng.integers(rows)), int(rng.integers(3)), int(rng.integers(4)))

    def plain_run():
        sram, scrub = SramArray(rows), Scrubber(rows)
        writes = []
        for cycle in range(total):
            if cycle in flips:
                sram.flip(*flips[cycle])
            if cycle % divider == 0 and scrub.step(sram, None) is not None:
                writes.append(cycle)
        return writes, _state(sram, scrub)

    def fast_run():
        sram, scrub = SramArray(rows), Scrubber(rows)
        writes = []
        cycle = 0
        while cycle < total:
            next_flip = min((c for c in flips if c >= cycle), default=total)
            stop = scrub.skip_clean(sram, cycle, next_flip, divider)
            assert cycle <= stop <= next_flip
            cycle = stop
            if cycle >= total:
                break
            if cycle in flips:
                sram.flip(*flips[cycle])
            if cycle % divider == 0 and scrub.step(sram, None) is not None:
                writes.append(cycle)
            cycle += 1
        return writes, _state(sram, scrub)

    plain_writes, plain_state = plain_run()
    fast_writes, fast_state = fast_run()
    assert plain_writes  # the schedule really exercises write-backs
    assert fast_writes == plain_writes
    assert fast_state == plain_state


def test_skip_clean_stops_before_writeback_and_bad_pointer():
    sram = SramArray(8)
    sram.flip(3, 0, 0)
    scrub = Scrubber(8)
    assert scrub.skip_clean(sram, 0, 100) == 3  # pointer parked on the dirty row
    assert scrub.row_ptr.value == 3
    scrub.step(sram, None)  # detect: write-back pending
    sram.flip(3, 0, 0)  # the row is clean again, but the write-back is still due
    assert scrub.skip_clean(sram, 4, 100) == 4
    assert scrub.phase.value == PHASE_WRITEBACK
    odd = Scrubber(5)
    odd.row_ptr.write(7)  # out of range: only step() may act (and raise)
    assert odd.skip_clean(SramArray(5), 0, 10) == 0


def _plain_latency_samples(rows, samples, seed):
    """The single-step reference for scrub_latency_samples: no clean-row skipping."""
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
    for i in range(samples):
        row = (scrub.row_ptr.value + int(offsets[i])) % rows
        sram.flip(row, int(replicas[i]), int(bits[i]))
        elapsed = 1
        while scrub.step(sram, None) != row:
            elapsed += 1
            assert elapsed <= rows + 2
        latencies.append(elapsed)
    return latencies


def exhaustive_toy_scrub_latency(rows=16):
    """Every (phase offset, row) on a toy memory: measured latency vs. the analytic FSM count.

    Returns a list of (offset, row, measured, expected) with expected = offset + 2,
    all bounded by ``worst_case_correction_cycles(rows)``.
    """
    out = []
    for offset in range(rows):
        for row0 in range(rows):
            sram = SramArray(rows)
            scrub = Scrubber(rows)
            # advance the scan so the pointer sits at row0
            for _ in range(row0):
                scrub.step(sram, None)
            row = (row0 + offset) % rows
            sram.flip(row, 1, 7)
            elapsed = 0
            while True:
                elapsed += 1
                if scrub.step(sram, None) == row:
                    break
                if elapsed > rows + 2:
                    raise AssertionError("toy scrub failed to correct within its bound")
            out.append((offset, row, elapsed, offset + 2))
    assert all(m <= worst_case_correction_cycles(rows) for _, _, m, _ in out)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_latency_samples_match_single_step_reference(seed):
    fast = scrub_latency_samples(rows=256, samples=2000, seed=seed)
    assert fast == _plain_latency_samples(256, 2000, seed)
    assert max(fast) == worst_case_correction_cycles(256)


def test_latency_samples_unstratified_match_reference():
    # fewer samples than rows: every phase offset is drawn uniformly
    fast = scrub_latency_samples(rows=256, samples=200, seed=5)
    assert fast == _plain_latency_samples(256, 200, 5)
