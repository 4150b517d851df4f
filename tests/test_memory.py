"""Triplicated SRAM, voted core port, scrubber port, bus routing, memory map."""

from array import array

import numpy as np
import pytest

from tmrv32.errors import AlignmentFault, BusFault
from tmrv32.memory import (
    M32,
    SEU_COUNTER_BASE,
    SRAM_ROWS,
    SramArray,
    SystemBus,
)
from tmrv32.isa import ArchState
from tmrv32.peripherals import GpioBank, SeuCounterBank, UartModel
from tmrv32.tmr import Domain


def test_row_count_is_8k():
    assert SRAM_ROWS == 8192  # 32 kB / 4-byte rows


def test_clean_read_no_event():
    sram = SramArray()
    bus = SystemBus(sram)
    bus.write(0x100, 0xDEADBEEF, 4)
    assert bus.read(0x100, 4) == 0xDEADBEEF
    assert bus.events == []


def test_single_replica_flip_is_masked_and_reported():
    sram = SramArray()
    bus = SystemBus(sram)
    bus.write(0x100, 0xDEADBEEF, 4)
    sram.flip(0x100 >> 2, 2, 31)
    assert bus.read(0x100, 4) == 0xDEADBEEF
    assert bus.events == [(Domain.SRAM, 0x100 >> 2)]


def test_seu_counter_addresses():
    bank = SeuCounterBank()
    bank.apply_increments({Domain.SRAM: 7})
    bus = SystemBus(SramArray(), (GpioBank(ArchState()), UartModel(ArchState()), bank))
    assert SEU_COUNTER_BASE == 0x1000_2000
    assert bus.read(0x1000_2004, 4) == 7  # domain index 1
    assert bus.read(0x1000_2000, 4) == 0
    with pytest.raises(BusFault):
        bus.write(0x1000_2000, 1, 4)  # read-only block


def test_word_write_read_roundtrip_all_replicas():
    sram = SramArray()
    bus = SystemBus(sram)
    bus.write(0x200, 0x12345678, 4)
    assert sram.scrub_read(0x80) == (0x12345678, 0x12345678, 0x12345678)


def test_byte_write_modifies_only_enabled_byte():
    sram = SramArray()
    bus = SystemBus(sram)
    bus.write(0x200, 0xAABBCCDD, 4)
    bus.write(0x201, 0x11, 1)
    assert bus.read(0x200, 4) == 0xAABB11DD
    assert sram.scrub_read(0x80) == (0xAABB11DD, 0xAABB11DD, 0xAABB11DD)


def test_halfword_access():
    bus = SystemBus(SramArray())
    bus.write(0x300, 0xBEEF, 2)
    bus.write(0x302, 0xCAFE, 2)
    assert bus.read(0x300, 4) == 0xCAFEBEEF
    assert bus.read(0x302, 2) == 0xCAFEBEEF  # the word; the core selects the lanes


def test_scrub_port_raw_and_writeback():
    sram = SramArray()
    sram.write_masked(5, 0xFF00FF00, 0xFFFFFFFF)
    assert sram.scrub_read(5) == (0xFF00FF00, 0xFF00FF00, 0xFF00FF00)
    sram.flip(5, 1, 0)
    a, b, c = sram.scrub_read(5)
    assert (a, c) == (0xFF00FF00, 0xFF00FF00) and b == 0xFF00FF01
    sram.scrub_write(5, 0xFF00FF00)
    assert sram.scrub_read(5) == (0xFF00FF00, 0xFF00FF00, 0xFF00FF00)


def test_scrub_port_row_bounds():
    sram = SramArray()
    with pytest.raises(ValueError):
        sram.scrub_read(8192)
    with pytest.raises(ValueError):
        sram.scrub_write(8192, 0)


def test_unmapped_and_alignment_faults():
    bus = SystemBus(SramArray())
    with pytest.raises(BusFault):
        bus.read(0x2000_0000, 4)
    with pytest.raises(BusFault):
        bus.write(0x9000, 1, 4)  # beyond the 32 kB SRAM, nothing mapped
    with pytest.raises(AlignmentFault):
        bus.read(0x102, 4)
    with pytest.raises(AlignmentFault):
        bus.write(0x101, 0, 2)


def test_fetch_window_spanning_rows():
    sram = SramArray()
    bus = SystemBus(sram)
    # place a 32-bit encoding at offset 2 of row 0, spanning into row 1
    word0 = (0x0093 << 16) | 0x9002  # low half of "addi x1,x0,0" after a c.ebreak
    word1 = 0x0010  # high half
    bus.write(0, word0, 4)
    bus.write(4, word1, 4)
    assert bus.fetch_window(2) == 0x00100093
    assert bus.fetch_window(0) & 0xFFFF == 0x9002


def test_fetch_window_reports_discrepancies_per_row():
    sram = SramArray()
    bus = SystemBus(sram)
    bus.write(0, 0x00B3 << 16, 4)  # 32-bit encoding split across rows 0 and 1
    bus.write(4, 0x0000, 4)
    sram.flip(0, 0, 5)
    sram.flip(1, 1, 9)
    bus.fetch_window(2)
    assert (Domain.SRAM, 0) in bus.events and (Domain.SRAM, 1) in bus.events


def test_fetch_outside_sram_faults():
    bus = SystemBus(SramArray())
    with pytest.raises(BusFault):
        bus.fetch_window(0x1000_0000)
    with pytest.raises(AlignmentFault):
        bus.fetch_window(0x101)


def test_32_bit_fetch_from_the_last_half_word_of_sram_faults():
    sram = SramArray()
    bus = SystemBus(sram)
    bus.write(0x7FFC, 0x0013 << 16, 4)  # the low half of ``addi x0, x0, 0`` at 0x7FFE
    with pytest.raises(BusFault, match="32-bit instruction fetch past end of SRAM"):
        bus.fetch_window(0x7FFE)
    bus.write(0x7FFC, 0x0001 << 16, 4)  # ``c.nop`` there is fetched
    assert bus.fetch_window(0x7FFE) == 0x0001


def test_single_upset_transparency_random():
    # any single flip in any replica never changes what the core observes
    rng = np.random.default_rng(7)
    sram = SramArray()
    bus = SystemBus(sram)
    for addr in range(0, 0x400, 4):
        bus.write(addr, int(rng.integers(1 << 32)), 4)
    reference = [bus.read(a, 4) for a in range(0, 0x400, 4)]
    for _ in range(500):
        row = int(rng.integers(0x100))
        replica = int(rng.integers(3))
        bit = int(rng.integers(32))
        sram.flip(row, replica, bit)
        assert bus.read(row * 4, 4) == reference[row]
        sram.flip(row, replica, bit)  # undo


def test_port_independence():
    # interleaved scrubber reads never disturb core-visible values
    rng = np.random.default_rng(8)
    sram = SramArray()
    bus = SystemBus(sram)
    values = {}
    for addr in range(0, 0x200, 4):
        v = int(rng.integers(1 << 32))
        bus.write(addr, v, 4)
        values[addr] = v
    for addr in range(0, 0x200, 4):
        sram.scrub_read(addr >> 2)
        assert bus.read(addr, 4) == values[addr]


def test_image_loading_and_voted_bytes():
    sram = SramArray()
    sram.load_bytes(0x10, bytes(range(16)))
    assert sram.voted_bytes()[0x10:0x20] == bytes(range(16))
    with pytest.raises(ValueError):
        sram.load_bytes(0x7FFC, bytes(16))  # spills past the end
    with pytest.raises(ValueError):
        sram.load_bytes(0, bytes(33 * 1024))  # 33 kB image


def _brute_mismatched(sram):
    b0, b1, b2 = sram.banks
    return [r for r in range(sram.rows) if not b0[r] == b1[r] == b2[r]]


def _brute_voted(sram):
    b0, b1, b2 = sram.banks
    return array("I", [(a & b) | (a & c) | (b & c) for a, b, c in zip(b0, b1, b2)]).tobytes()


def _check_dirty_set(sram, rng):
    assert sorted(sram.dirty) == _brute_mismatched(sram)
    assert sram.voted_bytes() == _brute_voted(sram)
    voted = array("I", _brute_voted(sram))
    mismatched = set(_brute_mismatched(sram))
    for row in list(mismatched) + [int(r) for r in rng.integers(0, sram.rows, 4)]:
        assert sram.read_voted(row) == (voted[row], row in mismatched)


def test_dirty_set_named_cases():
    sram = SramArray(16)
    sram.write_masked(3, 0x1234_5678, M32)
    sram.flip(3, 1, 20)
    assert sorted(sram.dirty) == [3]
    sram.write_masked(3, 0xAB, 0xFF)  # masked write misses bit 20: still dirty
    assert sorted(sram.dirty) == [3]
    assert sram.read_voted(3) == (0x1234_56AB, True)
    sram.flip(3, 1, 20)  # the same bit again: replicas agree, clean
    assert sorted(sram.dirty) == []
    assert sram.read_voted(3) == (0x1234_56AB, False)
    sram.flip(5, 0, 0)
    sram.write_masked(5, 0, 0xFF)  # masked write covering the upset bit: clean
    assert sorted(sram.dirty) == []
    sram.flip(6, 2, 31)
    sram.write_masked(6, 7, M32)  # full-word write: clean
    sram.flip(7, 0, 1)
    sram.scrub_write(7, 0)
    assert sorted(sram.dirty) == []


def test_dirty_set_matches_brute_force_under_random_ops():
    rng = np.random.default_rng(21)
    rows = 64
    sram = SramArray(rows)
    masks = [M32, 0xFF, 0xFF00, 0xFF0000, 0xFF000000, 0xFFFF, 0xFFFF0000]
    for _ in range(3000):
        op = int(rng.integers(10))
        row = int(rng.integers(rows))
        if op < 5:
            sram.flip(row, int(rng.integers(3)), int(rng.integers(8)))
        elif op < 8:
            mask = masks[int(rng.integers(len(masks)))]
            sram.write_masked(row, int(rng.integers(1 << 32)) & mask, mask)
        elif op == 8:
            sram.scrub_write(row, int(rng.integers(1 << 32)))
        else:
            offset = int(rng.integers(rows * 4 - 16))
            sram.load_bytes(offset, rng.bytes(int(rng.integers(1, 17))))
            assert sorted(sram.dirty) == []  # a load settles every row
        _check_dirty_set(sram, rng)
    # a restore from raw banks rebuilds the same set
    clone = SramArray(rows)
    clone.restore_banks([bank.tobytes() for bank in sram.banks])
    assert sorted(clone.dirty) == _brute_mismatched(sram)
    assert clone.voted_bytes() == sram.voted_bytes()
