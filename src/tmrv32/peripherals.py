"""Peripheral domain: GPIO bank, byte-level UART, and the per-domain SEU counters.

All peripheral storage registers are TMR cells, so injected upsets are masked and
repaired under the same 1-2 cycle contract as the core's sequential elements. Host
interaction is deterministic: GPIO input levels and UART receive bytes come from
cycle-stamped stimulus events supplied up front, and UART transmit bytes are captured
with their cycle of occurrence, read from the clock each device is given: the kernel's
``arch.cycle``, the cycle it is simulating.

Each device delivers its own stimulus, lazily: ``tick(cycle)`` leaves it as ticking
once per cycle up to ``cycle`` would, and every read first catches up to the clock's
cycle.

Register offsets within each block are defined here; the block base addresses are
in :mod:`tmrv32.memory`. A device names the offset in its block when it raises
``BusFault``; ``SystemBus`` reports the full bus address instead.
"""

from bisect import insort
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
    """

    def __init__(self, clock):
        self.clock = clock
        self.direction = TmrCell("periph.gpio_dir", Domain.PERIPHERALS, GPIO_PINS, 0)
        self.out = TmrCell("periph.gpio_out", Domain.PERIPHERALS, GPIO_PINS, 0)
        self.input_levels = 0  # host-side stimulus, not a storage element
        self.inputs = []  # (cycle, pin, level), sorted; those before cursor are driven
        self.cursor = 0

    def queue_input(self, cycle, pin, level):
        """Host-side stimulus: drive a pin at ``cycle``, after inputs queued before."""
        insort(self.inputs, (cycle, pin, level), key=itemgetter(0))

    def tick(self, cycle):
        """Drive every input due by ``cycle``, in order."""
        while self.cursor < len(self.inputs) and self.inputs[self.cursor][0] <= cycle:
            self.set_input(*self.inputs[self.cursor][1:])
            self.cursor += 1

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

    def set_input(self, pin, level):
        """Host-side stimulus: drive one input pin."""
        if not 0 <= pin < GPIO_PINS:
            raise BusFault(pin, f"no such GPIO pin (0..{GPIO_PINS - 1})")
        if level:
            self.input_levels |= 1 << pin
        else:
            self.input_levels &= ~(1 << pin)

    def cells(self):
        yield self.direction
        yield self.out


class UartModel:
    """Byte-level UART: no baud timing, in-order delivery, no loss.

    TX: a write to the TX register captures (``clock.cycle``, byte) on the host sink.
    RX: host bytes become readable in stimulus order; the byte at the head of the
    queue sits in a TMR-protected holding register until software reads it. A read
    with nothing available returns the empty marker (bit 31 set).
    """

    def __init__(self, clock):
        self.clock = clock
        self.tx_data = TmrCell("periph.uart_tx_data", Domain.PERIPHERALS, 8, 0)
        self.rx_data = TmrCell("periph.uart_rx_data", Domain.PERIPHERALS, 8, 0)
        self.rx_valid = TmrCell("periph.uart_rx_valid", Domain.PERIPHERALS, 1, 0)
        self.tx_log = []  # (cycle, byte) in transmission order
        self.rx_pending = []  # (cycle, byte), sorted; consumed as cycles pass
        self.rx_cursor = 0
        self.last_read = -1  # the cycle of the read that last emptied the register

    def queue_rx(self, cycle, byte):
        """Host-side stimulus: make a byte available for reading at ``cycle``, after
        any byte queued before it for the same cycle."""
        insort(self.rx_pending, (cycle, byte), key=itemgetter(0))

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
        yield self.tx_data
        yield self.rx_data
        yield self.rx_valid


class SeuCounterBank:
    """Three memory-mapped 32-bit counters, one per domain, read-only from the core.

    Each counter increments once per cycle per discrepancy-asserting voter in its
    domain (multiple observations of the same element in one cycle count once).
    Increments land at the following clock edge, like a synchronous counter, and
    saturate at 2^32-1 instead of wrapping.

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
        self.reads = 0

    def read(self, offset):
        self.reads += 1
        index = offset >> 2
        if offset & 3 or not 0 <= index < 3:
            raise BusFault(offset, "unmapped SEU counter register")
        return self.counters[index].value

    def write(self, offset, value):
        raise BusFault(offset, "SEU counters are read-only")

    def apply_increments(self, increments):
        """Add per-domain increments (computed last cycle), saturating."""
        for domain, n in increments.items():
            cell = self.counters[domain]
            cell.write(min(cell.value + n, COUNTER_SATURATION))

    def values(self):
        return tuple(c.value for c in self.counters)

    def cells(self):
        yield from self.counters


def aggregate_discrepancies(events_this_cycle):
    """Per-domain counter increments for one cycle of discrepancy events.

    ``events_this_cycle`` holds ``(domain, element_key)`` tuples; the same element
    observed by several voter evaluations within the cycle counts once.
    """
    seen = set(events_this_cycle)
    increments = {}
    for domain, _ in seen:
        increments[domain] = increments.get(domain, 0) + 1
    return increments
