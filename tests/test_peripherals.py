"""GPIO bank, UART byte model, SEU counters, discrepancy aggregation."""

import pytest

from conftest import make_kernel, uart_hello_program

from tmrv32 import encode as E
from tmrv32.errors import BusFault
from tmrv32.isa import ArchState
from tmrv32.peripherals import (
    GPIO_REG_DIR,
    GPIO_REG_IN,
    GPIO_REG_OUT,
    UART_REG_RX,
    UART_REG_STATUS,
    UART_REG_TX,
    UART_RX_EMPTY,
    UART_STATUS_RX_AVAIL,
    UART_STATUS_TX_READY,
    GpioBank,
    SeuCounterBank,
    UartModel,
)
from tmrv32.tmr import Domain


def test_gpio_output_pin_reads_driven_value():
    gpio = GpioBank(ArchState())
    gpio.write(GPIO_REG_DIR, 1 << 3)
    gpio.write(GPIO_REG_OUT, 1 << 3)
    assert (gpio.read(GPIO_REG_IN) >> 3) & 1 == 1
    gpio.write(GPIO_REG_OUT, 0)
    assert (gpio.read(GPIO_REG_IN) >> 3) & 1 == 0


def test_gpio_input_pin_reflects_stimulus():
    clock = ArchState()
    gpio = GpioBank(clock, [(0, 5, 1), (1, 5, 0)])
    assert (gpio.read(GPIO_REG_IN) >> 5) & 1 == 1
    assert gpio.read(GPIO_REG_IN) & (1 << 5)
    clock.cycle = 1
    assert (gpio.read(GPIO_REG_IN) >> 5) & 1 == 0


def test_gpio_direction_masks_input():
    gpio = GpioBank(ArchState(), [(0, 2, 1)])
    gpio.write(GPIO_REG_DIR, 1 << 2)  # output now; stimulus no longer visible
    assert (gpio.read(GPIO_REG_IN) >> 2) & 1 == 0
    assert gpio.read(GPIO_REG_DIR) == 1 << 2


def test_gpio_unused_register_bits_read_zero():
    gpio = GpioBank(ArchState())
    gpio.write(GPIO_REG_OUT, 0xFFFFFFFF)
    assert gpio.read(GPIO_REG_OUT) == (1 << 27) - 1


def test_gpio_unmapped_offset_faults():
    gpio = GpioBank(ArchState())
    with pytest.raises(BusFault):
        gpio.read(0x0C)
    with pytest.raises(BusFault):
        gpio.write(GPIO_REG_IN, 1)


def test_uart_tx_stream_in_order():
    clock = ArchState()
    uart = UartModel(clock)
    clock.cycle = 10
    uart.write(UART_REG_TX, 0x4F)
    clock.cycle = 11
    uart.write(UART_REG_TX, 0x4B)
    assert uart.tx_bytes() == b"OK"
    assert uart.tx_log == [(10, 0x4F), (11, 0x4B)]
    assert uart.read(UART_REG_TX) == 0  # TX reads as zero


def test_uart_rx_queue_and_status():
    uart = UartModel(ArchState(), [(5, 0x42)])
    assert uart.read(UART_REG_STATUS) == UART_STATUS_TX_READY
    assert uart.read(UART_REG_RX) == UART_RX_EMPTY
    uart.tick(4)
    assert uart.read(UART_REG_RX) == UART_RX_EMPTY  # not due yet
    uart.tick(5)
    assert uart.read(UART_REG_STATUS) & UART_STATUS_RX_AVAIL
    assert uart.read(UART_REG_RX) == 0x42
    assert uart.read(UART_REG_RX) == UART_RX_EMPTY


def test_a_read_holds_the_next_byte_until_the_next_cycle():
    clock = ArchState()
    uart = UartModel(clock, [(3, 0x41), (3, 0x42)])
    clock.cycle = 7
    assert uart.read(UART_REG_RX) == 0x41  # the read catches up first
    uart.tick(7)
    assert uart.read(UART_REG_STATUS) == UART_STATUS_TX_READY  # emptied at cycle 7
    uart.tick(8)
    assert uart.read(UART_REG_STATUS) & UART_STATUS_RX_AVAIL
    clock.cycle = 8
    assert uart.read(UART_REG_RX) == 0x42
    assert uart.read(UART_REG_RX) == UART_RX_EMPTY


def test_gpio_tick_drives_every_due_input_in_listed_order():
    clock = ArchState()
    gpio = GpioBank(clock, [(5, 3, 1), (9, 1, 1), (5, 3, 0), (4, 2, 1), (5, 4, 1)])
    gpio.tick(3)
    assert gpio.input_levels == 0
    gpio.tick(5)
    assert gpio.input_levels == 1 << 2 | 1 << 4  # pin 3 went high, then low
    clock.cycle = 9
    assert gpio.read(GPIO_REG_IN) == 1 << 1 | 1 << 2 | 1 << 4  # the read catches up


def test_uart_loopback_256_values():
    uart = UartModel(ArchState(), [(i, i) for i in range(256)])
    got = []
    for cycle in range(256):
        uart.tick(cycle)
        value = uart.read(UART_REG_RX)
        assert value != UART_RX_EMPTY
        uart.write(UART_REG_TX, value)
        got.append(value)
    assert got == list(range(256))
    assert uart.tx_bytes() == bytes(range(256))


def test_uart_program_hello():
    kernel = make_kernel(uart_hello_program(b"OK"))
    kernel.run()
    assert kernel.uart.tx_bytes() == b"\x4f\x4b"


def test_uart_rx_program_reads_stimulus():
    # poll status, then read one byte and echo it
    p = E.Program()
    p.emit(E.lui(10, 0x10001))
    p.label("poll")
    p.emit(E.lw(11, 10, UART_REG_STATUS))
    p.emit(E.andi(11, 11, UART_STATUS_RX_AVAIL))
    p.branch(E.beq, 11, 0, "poll")
    p.emit(E.lw(12, 10, UART_REG_RX))
    p.emit(E.sw(12, 10, UART_REG_TX))
    p.emit(E.ebreak())
    kernel = make_kernel(p, stimulus=(("uart-rx", 20, 0x5A),))
    kernel.run()
    assert kernel.uart.tx_bytes() == b"\x5a"


def test_gpio_stimulus_program():
    p = E.Program()
    p.emit(E.lui(10, 0x10000))
    p.emit(E.addi(11, 0, 0))  # all pins inputs
    p.emit(E.sw(11, 10, GPIO_REG_DIR))
    p.label("poll")
    p.emit(E.lw(12, 10, GPIO_REG_IN))
    p.branch(E.beq, 12, 0, "poll")
    p.emit(E.ebreak())
    kernel = make_kernel(p, stimulus=(("gpio-in", 30, 4, 1),))
    kernel.run()
    assert kernel.arch.read_reg(12) == 1 << 4


def test_counters_saturate():
    bank = SeuCounterBank()
    bank.counters[0].write(0xFFFFFFFE)
    bank.count([(Domain.CORE, f"core.x{i}") for i in range(1, 6)])
    bank.edge()
    assert bank.values()[0] == 0xFFFFFFFF
    assert bank.totals[Domain.CORE] == 5  # the totals do not saturate


def test_counter_offsets_and_readonly():
    bank = SeuCounterBank()
    bank.count([(Domain.CORE, "core.x1"), (Domain.SRAM, 1), (Domain.SRAM, 2)]
               + [(Domain.PERIPHERALS, f"periph.{i}") for i in range(3)])
    bank.edge()
    assert bank.read(0x0) == 1
    assert bank.read(0x4) == 2
    assert bank.read(0x8) == 3
    with pytest.raises(BusFault):
        bank.read(0xC)
    with pytest.raises(BusFault):
        bank.write(0x0, 9)


def _peripheral_access_program(addr, encoder):
    """Base x1 and a signed 12-bit offset to ``addr``; loads write x2, stores store it."""
    low = ((addr & 0xFFF) ^ 0x800) - 0x800
    p = E.Program()
    p.emit(E.lui(1, (addr - low) >> 12))
    p.emit(encoder(2, 1, low))
    p.emit(E.ebreak())
    return p


PERIPHERAL_FAULTS = [
    pytest.param(0x1000000C, E.lw, "unmapped GPIO register", id="gpio-load"),
    pytest.param(0x10002000, E.sw, "SEU counters are read-only", id="counter-store"),
    pytest.param(0x10001004, E.sw, "UART register not writable", id="uart-store"),
    pytest.param(0x1000100C, E.lw, "unmapped UART register", id="uart-load"),
    # the map's edges: the gap below GPIO_BASE is not the counter block
    pytest.param(0x0FFFFFFC, E.lw, "read from unmapped address", id="below-gpio-load"),
    pytest.param(0x00008000, E.lw, "read from unmapped address", id="past-sram-load"),
    pytest.param(0x10002FFC, E.lw, "unmapped SEU counter register", id="counter-block-end-load"),
    pytest.param(0x10003000, E.sw, "write to unmapped address", id="past-counters-store"),
    pytest.param(0x10000008, E.lh, "peripheral registers require word access", id="gpio-lh"),
    pytest.param(0x10001000, E.sb, "peripheral registers require word access", id="uart-sb"),
    # an unmapped address faults before the width check
    pytest.param(0x10004002, E.lh, "read from unmapped address", id="unmapped-lh"),
]


@pytest.mark.parametrize("addr, encoder, detail", PERIPHERAL_FAULTS)
def test_peripheral_bus_fault_names_the_bus_address(addr, encoder, detail):
    kernel = make_kernel(_peripheral_access_program(addr, encoder))
    with pytest.raises(BusFault) as info:
        kernel.run()
    assert type(info.value) is BusFault
    assert info.value.addr == addr
    assert str(info.value) == f"bus fault at 0x{addr:08x}: {detail}"


def test_aggregate_no_events():
    bank = SeuCounterBank()
    bank.count([])
    bank.edge()
    assert bank.pending == {} and bank.values() == (0, 0, 0)
    assert bank.totals == {Domain.CORE: 0, Domain.SRAM: 0, Domain.PERIPHERALS: 0}


def test_aggregate_counts_per_voter():
    events = [
        (Domain.CORE, "core.x1"),
        (Domain.CORE, "core.x2"),
        (Domain.CORE, "core.pc"),
        (Domain.SRAM, 17),
    ]
    bank = SeuCounterBank()
    bank.count(events)
    assert bank.pending == {Domain.CORE: 3, Domain.SRAM: 1}
    assert bank.totals == {Domain.CORE: 3, Domain.SRAM: 1, Domain.PERIPHERALS: 0}
    assert bank.values() == (0, 0, 0)  # the increments land at the next edge
    bank.edge()
    assert bank.pending == {} and bank.values() == (3, 1, 0)


def test_aggregate_dedups_same_element_same_cycle():
    # one row observed by a core read and the scrubber in the same cycle: one count
    bank = SeuCounterBank()
    bank.count([(Domain.SRAM, 17), (Domain.SRAM, 17)])
    assert bank.pending == {Domain.SRAM: 1}
