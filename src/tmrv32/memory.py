"""Triplicated dual-port SRAM, the memory bridge's address routing, and the memory map.

The 32 kB SRAM is stored three times; the core-side port returns the bitwise majority
of the three banks per row and reports a discrepancy event whenever the banks disagree
on an accessed row. The scrubber-side port exposes raw (unvoted) replica contents and
a voted write-back. Both "ports" are sequential accesses within one simulated cycle
with a fixed order (core first, then scrubber), which makes write-conflict detection
deterministic.

Memory map (invented for this simulator, conventional bare-metal layout):

  0x0000_0000 .. 0x0000_7FFF   SRAM (code + data, no enforced partition)
  0x1000_0000 .. 0x1000_0FFF   GPIO block   (DIR @ +0x0, OUT @ +0x4, IN @ +0x8)
  0x1000_1000 .. 0x1000_1FFF   UART         (TX @ +0x0, RX @ +0x4, STATUS @ +0x8)
  0x1000_2000 .. 0x1000_2FFF   SEU counters (core @ +0x0, sram @ +0x4, periph @ +0x8),
                               read-only from the core

Peripheral registers are word-granular: only aligned 4-byte accesses are accepted.
"""

from array import array

from .errors import AlignmentFault, BusFault
from .tmr import Domain, vote3

SRAM_BASE = 0x0000_0000
SRAM_SIZE = 0x8000
SRAM_ROWS = SRAM_SIZE // 4

GPIO_BASE = 0x1000_0000
UART_BASE = 0x1000_1000
SEU_COUNTER_BASE = 0x1000_2000
PERIPH_BLOCK_SIZE = 0x1000

M32 = 0xFFFFFFFF


class SramArray:
    """Three replica banks of 32-bit rows with a core port and a scrubber port.

    ``dirty`` is the set of rows whose replicas disagree. Every port keeps it exact,
    so clean rows are read without voting and bulk images cost a copy, not a vote.
    When ``repaired`` is a list, the core and scrubber ports append each row they
    take out of ``dirty`` to it, in order; its owner drains it.
    """

    def __init__(self, rows=SRAM_ROWS):
        if rows < 1:
            raise ValueError("SRAM needs at least one row")
        self.rows = rows
        self.banks = [array("I", [0]) * rows for _ in range(3)]
        self.dirty = set()
        self.repaired = None

    def _mark_clean(self, row):
        self.dirty.discard(row)
        if self.repaired is not None:
            self.repaired.append(row)

    def _vote_row(self, row):
        b0, b1, b2 = self.banks
        return vote3(b0[row], b1[row], b2[row])

    def read_voted(self, row):
        """Core port read: (bitwise-majority word, replicas-disagree flag)."""
        if row in self.dirty:
            return self._vote_row(row), True
        return self.banks[0][row], False

    def write_masked(self, row, value, mask):
        """Core port write: update the enabled bits of all three banks identically."""
        b0, b1, b2 = self.banks
        if mask == M32:
            b0[row] = b1[row] = b2[row] = value
            if row in self.dirty:
                self._mark_clean(row)
        else:
            value &= mask
            inv = ~mask & M32
            for bank in self.banks:
                bank[row] = (bank[row] & inv) | value
            if row in self.dirty and b0[row] == b1[row] == b2[row]:
                self._mark_clean(row)

    def scrub_read(self, row):
        """Scrubber port read: the three raw replica words, unvoted."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range 0..{self.rows - 1}")
        return self.banks[0][row], self.banks[1][row], self.banks[2][row]

    def scrub_write(self, row, word):
        """Scrubber port write-back: set all replicas of a row to the voted word."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range 0..{self.rows - 1}")
        self.banks[0][row] = word
        self.banks[1][row] = word
        self.banks[2][row] = word
        if row in self.dirty:
            self._mark_clean(row)

    def flip(self, row, replica, bit):
        """Invert one bit of one replica bank (an injected upset)."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range 0..{self.rows - 1}")
        if replica not in (0, 1, 2):
            raise ValueError(f"replica must be 0..2, got {replica}")
        if not 0 <= bit < 32:
            raise ValueError(f"bit must be 0..31, got {bit}")
        b0, b1, b2 = self.banks
        self.banks[replica][row] ^= 1 << bit
        if b0[row] == b1[row] == b2[row]:
            self.dirty.discard(row)
        else:
            self.dirty.add(row)

    def load_bytes(self, offset, data):
        """Write a byte image identically into all three banks.

        Rows outside the image keep their voted contents, so every row ends clean.
        """
        if offset < 0 or offset + len(data) > self.rows * 4:
            raise ValueError(
                f"image of {len(data)} bytes at offset 0x{offset:x} exceeds "
                f"{self.rows * 4} bytes of SRAM"
            )
        for row in list(self.dirty):
            self.scrub_write(row, self._vote_row(row))
        for bank in self.banks:
            with memoryview(bank).cast("B") as raw:
                raw[offset : offset + len(data)] = data

    def voted_bytes(self):
        """The full memory image as the core would observe it (little-endian)."""
        if not self.dirty:
            return self.banks[0].tobytes()
        words = self.banks[0][:]
        for row in self.dirty:
            words[row] = self._vote_row(row)
        return words.tobytes()

    def restore_banks(self, raw_banks):
        """Set the three replica banks from raw bytes (checkpoint support); rebuilds ``dirty``."""
        for bank, raw in zip(self.banks, raw_banks):
            with memoryview(bank).cast("B") as view:
                view[:] = raw
        self.dirty.clear()
        r0, r1, r2 = raw_banks
        if not r0 == r1 == r2:
            b0, b1, b2 = self.banks
            self.dirty.update(
                r for r in range(self.rows) if not b0[r] == b1[r] == b2[r]
            )

class SystemBus:
    """Routes core-side accesses to SRAM and the peripheral blocks.

    Discrepancy events observed on reads are appended to ``events`` as
    ``(domain, element_key)`` tuples; the kernel drains them once per cycle.
    ``last_store_row`` records the SRAM row written by the core in the current
    cycle (the scrubber's write-conflict input); the kernel clears it each cycle.
    """

    def __init__(self, sram, events=None):
        self.sram = sram
        self.devices = []  # (base, size, device) triples
        self.events = events if events is not None else []
        self.last_store_row = None

    def add_device(self, base, size, device):
        self.devices.append((base, size, device))

    def _device_at(self, addr):
        for base, size, device in self.devices:
            if base <= addr < base + size:
                return device, addr - base
        return None, 0

    def fetch_window(self, addr):
        """Instruction fetch: a 32-bit window at ``addr`` (reads 1-2 SRAM rows).

        The second row is only read when the low 16 bits select a 32-bit encoding,
        so a compressed instruction at the end of SRAM does not fault.
        """
        if addr & 1:
            raise AlignmentFault(addr, 2)
        if not SRAM_BASE <= addr < SRAM_BASE + self.sram.rows * 4:
            raise BusFault(addr, "instruction fetch outside SRAM")
        row = (addr - SRAM_BASE) >> 2
        word, mismatch = self.sram.read_voted(row)
        if mismatch:
            self.events.append((Domain.SRAM, row))
        if addr & 2:
            low = word >> 16
            if low & 3 != 3:
                return low
            if row + 1 >= self.sram.rows:
                raise BusFault(addr, "32-bit instruction fetch past end of SRAM")
            word2, mismatch2 = self.sram.read_voted(row + 1)
            if mismatch2:
                self.events.append((Domain.SRAM, row + 1))
            return low | ((word2 & 0xFFFF) << 16)
        return word

    def read(self, addr, width):
        """Data read; returns the raw unsigned value of ``width`` bytes."""
        if addr % width:
            raise AlignmentFault(addr, width)
        if SRAM_BASE <= addr < SRAM_BASE + self.sram.rows * 4:
            row = (addr - SRAM_BASE) >> 2
            word, mismatch = self.sram.read_voted(row)
            if mismatch:
                self.events.append((Domain.SRAM, row))
            if width == 4:
                return word
            shift = 8 * (addr & 3)
            return (word >> shift) & ((1 << (8 * width)) - 1)
        device, offset = self._device_at(addr)
        if device is None:
            raise BusFault(addr, "read from unmapped address")
        if width != 4:
            raise BusFault(addr, "peripheral registers require word access")
        try:
            return device.read(offset)
        except BusFault as exc:  # a device names the offset in its block
            raise BusFault(addr, exc.detail) from None

    def write(self, addr, value, width):
        """Data write; sub-word SRAM stores update only the enabled bytes."""
        if addr % width:
            raise AlignmentFault(addr, width)
        if SRAM_BASE <= addr < SRAM_BASE + self.sram.rows * 4:
            row = (addr - SRAM_BASE) >> 2
            if width == 4:
                self.sram.write_masked(row, value & M32, M32)
            else:
                shift = 8 * (addr & 3)
                mask = ((1 << (8 * width)) - 1) << shift
                self.sram.write_masked(row, (value << shift) & M32, mask)
            self.last_store_row = row
            return
        device, offset = self._device_at(addr)
        if device is None:
            raise BusFault(addr, "write to unmapped address")
        if width != 4:
            raise BusFault(addr, "peripheral registers require word access")
        try:
            device.write(offset, value & M32)
        except BusFault as exc:
            raise BusFault(addr, exc.detail) from None
