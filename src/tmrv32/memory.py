"""Triplicated dual-port SRAM, the memory bridge's address routing, and the memory map.

The 32 kB SRAM is stored three times; the core-side port returns the bitwise majority
of the three banks per row and reports a discrepancy event whenever the banks disagree
on an accessed row. The scrubber-side port exposes raw (unvoted) replica contents and
a voted write-back. Both "ports" are sequential accesses within one simulated cycle
with a fixed order (core first, then scrubber), which makes write-conflict detection
deterministic.

Memory map (invented for this simulator, conventional bare-metal layout). ``SystemBus``
holds it, as its SRAM bound and its table of peripheral blocks:

  0x0000_0000 .. 0x0000_7FFF   SRAM (code + data, no enforced partition)
  0x1000_0000 .. 0x1000_0FFF   GPIO block   (DIR @ +0x0, OUT @ +0x4, IN @ +0x8)
  0x1000_1000 .. 0x1000_1FFF   UART         (TX @ +0x0, RX @ +0x4, STATUS @ +0x8)
  0x1000_2000 .. 0x1000_2FFF   SEU counters (core @ +0x0, sram @ +0x4, periph @ +0x8),
                               read-only from the core

Every other address is unmapped. Peripheral registers are word-granular: only
aligned 4-byte accesses are accepted.
"""

from array import array

from .errors import AlignmentFault, BusFault
from .tmr import Domain, vote3

SRAM_SIZE = 0x8000
SRAM_ROWS = SRAM_SIZE // 4

GPIO_BASE = 0x1000_0000
PERIPH_BLOCK_SIZE = 0x1000
UART_BASE = GPIO_BASE + PERIPH_BLOCK_SIZE
SEU_COUNTER_BASE = GPIO_BASE + 2 * PERIPH_BLOCK_SIZE

M32 = 0xFFFFFFFF


class SramArray:
    """Three replica banks of 32-bit rows with a core port and a scrubber port.

    ``dirty`` is the set of rows whose replicas disagree. Every port keeps it exact,
    so clean rows are read without voting and bulk images cost a copy, not a vote.
    The array reports nothing else: a port that repairs a row only takes it out of
    ``dirty``, so an owner that needs repairs compares its size around an access.

    The three ``banks`` may be one array, shared while no replica differs: :meth:`flip`
    gives banks 1 and 2 copies of their own before it upsets one, and
    :meth:`restore_banks` shares bank 0 again for equal replicas. Every other write
    stores one word in all three.
    """

    def __init__(self, rows=SRAM_ROWS):
        if rows < 1:
            raise ValueError("SRAM needs at least one row")
        self.rows = rows
        self.banks = [array("I", [0]) * rows] * 3  # one array until a replica differs
        self.dirty = set()

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
            self.dirty.discard(row)
        else:
            value &= mask
            inv = ~mask & M32
            for bank in self.banks:
                bank[row] = (bank[row] & inv) | value
            if row in self.dirty and b0[row] == b1[row] == b2[row]:
                self.dirty.discard(row)

    def scrub_read(self, row):
        """Scrubber port read: the three raw replica words, unvoted."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range 0..{self.rows - 1}")
        return self.banks[0][row], self.banks[1][row], self.banks[2][row]

    def scrub_write(self, row, word):
        """Scrubber port write-back: set all replicas of a row to the voted word."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range 0..{self.rows - 1}")
        self.write_masked(row, word, M32)

    def flip(self, row, replica, bit):
        """Invert one bit of one replica bank (an injected upset)."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range 0..{self.rows - 1}")
        if replica not in (0, 1, 2):
            raise ValueError(f"replica must be 0..2, got {replica}")
        if not 0 <= bit < 32:
            raise ValueError(f"bit must be 0..31, got {bit}")
        b0, b1, b2 = self.banks
        if b1 is b0:  # the banks are one array: give replicas 1 and 2 their own
            self.banks[1:] = b1, b2 = b0[:], b0[:]
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
        """Set the three replica banks from raw bytes (checkpoint support); rebuilds ``dirty``.
        Three equal byte strings (a clean checkpoint holds one three times) are copied
        once, into bank 0, which the other two banks then share."""
        b0 = self.banks[0]
        with memoryview(b0).cast("B") as view:
            view[:] = raw_banks[0]
        self.dirty.clear()
        r0, r1, r2 = raw_banks
        if r0 == r1 == r2:
            self.banks[1:] = b0, b0
            return
        self.banks[1:] = b1, b2 = array("I", r1), array("I", r2)
        self.dirty.update(r for r in range(self.rows) if not b0[r] == b1[r] == b2[r])


class SystemBus:
    """Routes core-side accesses to SRAM and the peripheral blocks: the memory map.

    SRAM spans addresses 0 .. ``end - 1``. ``devices`` are the 4 kB blocks from
    ``GPIO_BASE`` on, in address order; every other address is unmapped.
    The bus owns ``events``: each discrepancy a read observes is appended to it as a
    ``(domain, element_key)`` tuple, and the kernel reads and clears it once per cycle.
    ``last_store_row`` records the SRAM row written by the core in the current
    cycle (the scrubber's write-conflict input); the kernel clears it each cycle.
    """

    def __init__(self, sram, devices=()):
        self.sram = sram
        self.end = sram.rows * 4
        self.devices = tuple(devices)
        self.events = []
        self.last_store_row = None

    def _device(self, addr, width, access):
        """The device whose block holds ``addr`` and the offset in it. ``access`` is
        "read from" or "write to", for the message of an unmapped address."""
        index, offset = divmod(addr - GPIO_BASE, PERIPH_BLOCK_SIZE)
        if not 0 <= index < len(self.devices):
            raise BusFault(addr, f"{access} unmapped address")
        if width != 4:
            raise BusFault(addr, "peripheral registers require word access")
        return self.devices[index], offset

    def fetch_window(self, addr):
        """Instruction fetch: a 32-bit window at ``addr`` (reads 1-2 SRAM rows).

        The second row is only read when the low 16 bits select a 32-bit encoding,
        so a compressed instruction at the end of SRAM does not fault.
        """
        if addr & 1:
            raise AlignmentFault(addr, 2)
        if not 0 <= addr < self.end:
            raise BusFault(addr, "instruction fetch outside SRAM")
        row = addr >> 2
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
        """Data read; returns the 32-bit word that holds the ``width`` bytes at ``addr``."""
        if addr % width:
            raise AlignmentFault(addr, width)
        if 0 <= addr < self.end:
            row = addr >> 2
            word, mismatch = self.sram.read_voted(row)
            if mismatch:
                self.events.append((Domain.SRAM, row))
            return word
        device, offset = self._device(addr, width, "read from")
        try:
            return device.read(offset)
        except BusFault as exc:  # a device names the offset in its block
            raise BusFault(addr, exc.detail) from None

    def write(self, addr, value, width):
        """Data write; sub-word SRAM stores update only the enabled bytes."""
        if addr % width:
            raise AlignmentFault(addr, width)
        if 0 <= addr < self.end:
            row = addr >> 2
            if width == 4:
                self.sram.write_masked(row, value & M32, M32)
            else:
                shift = 8 * (addr & 3)
                mask = ((1 << (8 * width)) - 1) << shift
                self.sram.write_masked(row, (value << shift) & M32, mask)
            self.last_store_row = row
            return
        device, offset = self._device(addr, width, "write to")
        try:
            device.write(offset, value & M32)
        except BusFault as exc:
            raise BusFault(addr, exc.detail) from None
