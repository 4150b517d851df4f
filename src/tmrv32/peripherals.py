"""Peripheral domain: GPIO bank, byte-level UART, and the per-domain SEU counters.

All peripheral storage registers are TMR cells, so injected upsets are masked and
repaired under the same 1-2 cycle contract as the core's sequential elements. Host
interaction is deterministic: GPIO input levels and UART receive bytes come from
cycle-stamped stimulus events given to each device when it is built, and UART
transmit bytes are captured with their cycle of occurrence, read from the clock each
device is given: the kernel's ``arch.cycle``, the cycle it is simulating.

Each device delivers its own stimulus, lazily: ``tick(cycle)`` leaves it as ticking
once per cycle up to ``cycle`` would, and every read first catches up to the clock's
cycle. The SEU counter block keeps its own books in the same way: the kernel hands
it each cycle's discrepancy events and tells it when a clock edge comes.

Register offsets within each block are defined here; the block base addresses are
in :mod:`tmrv32.memory`. A device names the offset in its block when it raises
``BusFault``; ``SystemBus`` reports the full bus address instead.
"""

from operator import itemgetter

from .errors import BusFault
from .tmr import Domain, TmrCell

GPIO_PINS = 27
GPIO_PIN_MASK = (1 << GPIO_PINS) - 1

GPIO_REG_DIR = 0x0
GPIO_REG_OUT = 0x4
GPIO_REG_IN = 0x8

UART_REG_TX = 0x0
UART_REG_RX = 0x4
UART_REG_STATUS = 0x8
UART_RX_EMPTY = 0x8000_0000
UART_STATUS_TX_READY = 0x1
UART_STATUS_RX_AVAIL = 0x2

COUNTER_SATURATION = 0xFFFF_FFFF


class GpioBank:
    """27 configurable pins: a direction register and an output-value register.

    Bit i of each register controls pin i (1 = output in DIR). Reading IN returns
    the driven value for output pins and the host-supplied level for input pins.
    The upper 5 bits of each 32-bit register are unused and read as zero.

    ``inputs`` is the host-side stimulus, ``(cycle, pin, level)`` events (``SystemConfig``
    checks the pins); events of one cycle drive their pins in the order given.
    """

    def __init__(self, clock, inputs=()):
        self.clock = clock
        self.direction = TmrCell("periph.gpio_dir", Domain.PERIPHERALS, GPIO_PINS, 0)
        self.out = TmrCell("periph.gpio_out", Domain.PERIPHERALS, GPIO_PINS, 0)
        self.input_levels = 0  # host-side stimulus, not a storage element
        # sorted by cycle, stably; those before cursor are driven
        self.inputs = sorted(inputs, key=itemgetter(0))
        self.cursor = 0

    def tick(self, cycle):
        """Drive every input due by ``cycle``, in order."""
        inputs, i, levels = self.inputs, self.cursor, self.input_levels
        while i < len(inputs) and inputs[i][0] <= cycle:
            _, pin, level = inputs[i]
            levels = levels | 1 << pin if level else levels & ~(1 << pin)
            i += 1
        self.cursor, self.input_levels = i, levels

    def read(self, offset):
        self.tick(self.clock.cycle)
        if offset == GPIO_REG_DIR:
            return self.direction.value
        if offset == GPIO_REG_OUT:
            return self.out.value
        if offset == GPIO_REG_IN:
            d = self.direction.value
            return (self.out.value & d) | (self.input_levels & ~d & GPIO_PIN_MASK)
        raise BusFault(offset, "unmapped GPIO register")

    def write(self, offset, value):
        if offset == GPIO_REG_DIR:
            self.direction.write(value & GPIO_PIN_MASK)
        elif offset == GPIO_REG_OUT:
            self.out.write(value & GPIO_PIN_MASK)
        else:
            raise BusFault(offset, "GPIO register not writable")

    def cells(self):
        return self.direction, self.out


class UartModel:
    """Byte-level UART: no baud timing, in-order delivery, no loss.

    TX: a write to the TX register captures (``clock.cycle``, byte) on the host sink.
    RX: ``rx`` is the host-side stimulus, ``(cycle, byte)`` events; a byte becomes
    readable at its cycle, after the bytes given before it for the same cycle. The
    byte at the head of the queue sits in a TMR-protected holding register until
    software reads it. A read with nothing available returns the empty marker (bit
    31 set).
    """

    def __init__(self, clock, rx=()):
        self.clock = clock
        self.tx_data = TmrCell("periph.uart_tx_data", Domain.PERIPHERALS, 8, 0)
        self.rx_data = TmrCell("periph.uart_rx_data", Domain.PERIPHERALS, 8, 0)
        self.rx_valid = TmrCell("periph.uart_rx_valid", Domain.PERIPHERALS, 1, 0)
        self.tx_log = []  # (cycle, byte) in transmission order
        self.rx_pending = sorted(rx, key=itemgetter(0))  # stably; consumed as cycles pass
        self.rx_cursor = 0
        self.last_read = -1  # the cycle of the read that last emptied the register

    def tick(self, cycle):
        """Deliver the next byte if it is due by ``cycle``, the holding register is
        empty and the read that emptied it came before ``cycle``."""
        if self.rx_cursor < len(self.rx_pending) and not self.rx_valid.value:
            due_cycle, byte = self.rx_pending[self.rx_cursor]
            if due_cycle <= cycle and self.last_read < cycle:
                self.rx_data.write(byte)
                self.rx_valid.write(1)
                self.rx_cursor += 1

    def read(self, offset):
        self.tick(self.clock.cycle)
        if offset == UART_REG_RX:
            if self.rx_valid.value:
                byte = self.rx_data.value
                self.rx_valid.write(0)
                self.last_read = self.clock.cycle
                return byte
            return UART_RX_EMPTY
        if offset == UART_REG_STATUS:
            status = UART_STATUS_TX_READY
            if self.rx_valid.value:
                status |= UART_STATUS_RX_AVAIL
            return status
        if offset == UART_REG_TX:
            return 0
        raise BusFault(offset, "unmapped UART register")

    def write(self, offset, value):
        if offset == UART_REG_TX:
            byte = value & 0xFF
            self.tx_data.write(byte)
            self.tx_log.append((self.clock.cycle, byte))
        else:
            raise BusFault(offset, "UART register not writable")

    def tx_bytes(self):
        return bytes(b for _, b in self.tx_log)

    def cells(self):
        return self.tx_data, self.rx_data, self.rx_valid


class SeuCounterBank:
    """Three memory-mapped 32-bit counters, one per domain, read-only from the core.

    Each counter increments once per cycle per discrepancy-asserting voter in its
    domain (multiple observations of the same element in one cycle count once).
    :meth:`count` holds one cycle's increments in ``pending``, and :meth:`edge` lands
    them at the following clock edge, like a synchronous counter, saturating at
    2^32-1 instead of wrapping. ``totals`` holds every increment counted, pending
    ones too, unsaturated; it and ``pending`` travel in checkpoints.

    ``reads`` counts the core's reads of the block. It is instrumentation, not
    machine state: campaigns use it to learn whether a run reads the counters
    after a given cycle.
    """

    def __init__(self):
        self.counters = [
            TmrCell("periph.seu_count_core", Domain.PERIPHERALS, 32, 0),
            TmrCell("periph.seu_count_sram", Domain.PERIPHERALS, 32, 0),
            TmrCell("periph.seu_count_periph", Domain.PERIPHERALS, 32, 0),
        ]
        self.pending = {}  # Domain -> increments landing at the next edge
        self.totals = {Domain.CORE: 0, Domain.SRAM: 0, Domain.PERIPHERALS: 0}
        self.reads = 0

    def read(self, offset):
        self.reads += 1
        index = offset >> 2
        if offset & 3 or not 0 <= index < 3:
            raise BusFault(offset, "unmapped SEU counter register")
        return self.counters[index].value

    def write(self, offset, value):
        raise BusFault(offset, "SEU counters are read-only")

    def count(self, events):
        """Count one cycle's discrepancy events, ``(domain, element)`` tuples; the same
        element observed by several voter evaluations counts once."""
        pending = {}
        for domain, _ in set(events):
            pending[domain] = pending.get(domain, 0) + 1
        totals = self.totals
        for domain, n in pending.items():
            totals[domain] += n
        self.pending = pending

    def edge(self):
        """The clock edge: land the pending increments, saturating."""
        if self.pending:
            for domain, n in self.pending.items():
                cell = self.counters[domain]
                cell.write(min(cell.value + n, COUNTER_SATURATION))
            self.pending = {}

    def values(self):
        return tuple([cell.value for cell in self.counters])

    def cells(self):
        return tuple(self.counters)
