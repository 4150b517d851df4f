"""Kernel: reset state, determinism, snapshot round-trips, image loading, timing."""

import collections
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    SCRATCH_BASE,
    acceptance_program,
    alu_block_program,
    gen_random_program,
    make_kernel,
    mini_elf,
    run_kernel,
    run_reference,
    uart_hello_program,
)

from tmrv32 import encode as E
from tmrv32 import pipeline, regions
from tmrv32.errors import (
    AlignmentFault,
    BusFault,
    ConfigError,
    IllegalInstruction,
    SimError,
    SimTimeout,
)
from tmrv32.isa import CSR_CYCLE, CSR_CYCLEH, CSR_INSTRET
from tmrv32.kernel import (
    EDGE_ALIGNED,
    MID_CYCLE,
    SNAPSHOT_MAGIC,
    Flip,
    Kernel,
    Retire,
    SystemConfig,
    load_image,
    parse_stimulus,
)
from tmrv32.memory import SramArray, SystemBus
from tmrv32.peripherals import GPIO_REG_IN
from tmrv32.scrubber import Scrubber
from tmrv32.tmr import Domain, TmrCell


def test_reset_state():
    kernel = Kernel(SystemConfig())
    assert kernel.arch.pc.value == 0
    assert kernel.arch.reg_values() == [0] * 32
    assert kernel.counters.values() == (0, 0, 0)
    assert kernel.scrubber.row_ptr.value == 0
    for cell in kernel.registry.values():
        assert not cell.discrepancy


def test_registry_covers_all_domains():
    kernel = Kernel(SystemConfig())
    core = kernel.cells_in_domain(Domain.CORE)
    periph = kernel.cells_in_domain(Domain.PERIPHERALS)
    sram = kernel.cells_in_domain(Domain.SRAM)
    assert "core.pc" in core and "core.x31" in core and "core.fetch_raw" in core
    assert "periph.gpio_dir" in periph and "periph.seu_count_core" in periph
    assert "sram.scrub_row_ptr" in sram
    assert len(core) == 33 + 6  # pc + 32 regs + 6 pipeline latch cells


def test_deterministic_replay():
    config = SystemConfig(image=acceptance_program().assemble(), record_events=True)
    a = Kernel(config)
    ra = a.run()
    b = Kernel(config)
    rb = b.run()
    assert ra == rb
    assert a.architectural_signature() == b.architectural_signature()
    assert a.snapshot() == b.snapshot()


def test_snapshot_resume_equals_straight_run():
    image = acceptance_program().assemble()
    config = SystemConfig(image=image)
    straight = Kernel(config)
    straight.run()

    first = Kernel(config)
    first.run_cycles(60)
    blob = first.snapshot()
    resumed = Kernel.from_snapshot(blob)
    resumed.run()
    assert resumed.architectural_signature() == straight.architectural_signature()
    assert resumed.result() == straight.result()


def test_snapshot_rejects_garbage():
    with pytest.raises(ConfigError):
        Kernel.from_snapshot(b"not a snapshot at all")
    for _, data in _malformed_snapshots(_snapshot_at_cycle_40()):
        with pytest.raises(ConfigError):
            Kernel.from_snapshot(data)


def test_snapshot_roundtrip_preserves_faulted_state():
    kernel = make_kernel(alu_block_program(40).assemble())
    kernel.schedule_flip(10, "cell", "core.x1", 1, 3)
    kernel.run_cycles(11)  # flip applied, not yet refreshed
    assert kernel.registry["core.x1"].discrepancy
    clone = Kernel.from_snapshot(kernel.snapshot())
    assert clone.registry["core.x1"].replicas == kernel.registry["core.x1"].replicas
    kernel.run()
    clone.run()
    assert clone.architectural_signature() == kernel.architectural_signature()


def test_snapshot_stores_each_cells_replicas_in_order():
    # docs/formats.md: per cell, in registry order, replicas r0, r1, r2 (u32 each)
    kernel = make_kernel(alu_block_program(40).assemble())
    kernel.schedule_flip(10, "cell", "core.x1", 0, 3)
    kernel.schedule_flip(10, "cell", "core.wb_value", 2, 5)
    kernel.run_cycles(11)
    blob = kernel.snapshot()
    (cfg_len,) = struct.unpack_from("<I", blob, 18)
    (n,) = struct.unpack_from("<I", blob, 22 + cfg_len)
    words = struct.unpack_from(f"<{3 * n}I", blob, 26 + cfg_len)
    cells = list(kernel.registry.values())
    assert [words[3 * i : 3 * i + 3] for i in range(n)] == [c.replicas for c in cells]
    x1 = kernel.registry["core.x1"]
    assert x1.replicas == (x1.value ^ 8, x1.value, x1.value)


# sha256 over every snapshot of the run below. Snapshot version 2 is a file
# format, so this digest changes only with a new version.
PINNED_SNAPSHOT_DIGEST = "df766a3b99ee1a820804ad3379f991323bfaf87aaa0a3f854500bd3a54f3c302"


def test_snapshot_bytes_are_pinned():
    # The run has dirty cells (mid-cycle flips, edge-aligned flips into latches),
    # a code row the scrubber repairs, a data row a store repairs and one that
    # stays dirty.
    kernel = make_kernel(acceptance_program())
    kernel.schedule_flip(12, "cell", "core.x6", 1, 4)
    kernel.schedule_flip(12, "cell", "core.wb_value", 0, 7, phase=EDGE_ALIGNED)
    kernel.schedule_flip(31, "cell", "core.fetch_pc", 2, 3, phase=EDGE_ALIGNED)
    kernel.schedule_flip(40, "cell", "periph.gpio_dir", 1, 0)
    kernel.schedule_flip(5, "sram", 8, 2, 11)
    kernel.schedule_flip(20, "sram", SCRATCH_BASE // 4, 0, 30)
    kernel.schedule_flip(25, "sram", SCRATCH_BASE // 4 + 64, 1, 2)
    digest = hashlib.sha256()
    while kernel.halted is None or kernel.cycle < 260:
        kernel.step_cycle()
        digest.update(kernel.snapshot())
    assert kernel.sram.dirty == {SCRATCH_BASE // 4 + 64}
    blob = kernel.snapshot()
    misc = json.loads(blob[_misc_offset(blob) + 4 :])
    assert misc["retired"] == misc["arch_retired"] == kernel.result().retired
    assert digest.hexdigest() == PINNED_SNAPSHOT_DIGEST


def test_timeout_raises():
    p = E.Program()
    p.label("spin")
    p.branch(E.beq, 0, 0, "spin")
    kernel = make_kernel(p, max_cycles=500)
    with pytest.raises(SimTimeout):
        kernel.run()


def _cycle_csr_program():
    p = E.Program()
    p.emit(E.csrrs(1, CSR_CYCLE))
    p.emit(E.addi(5, 0, 7))
    p.emit(E.lw(6, 0, 0))
    p.emit(E.csrrs(2, CSR_CYCLE))
    p.emit(E.csrrs(3, CSR_CYCLEH))
    p.emit(E.csrrs(4, CSR_INSTRET))
    p.emit(E.ebreak())
    return p


def test_cycle_csrs_read_the_current_cycle():
    kernel = make_kernel(_cycle_csr_program())
    assert kernel.run().cycles == 9
    assert [kernel.arch.read_reg(i) for i in (1, 2, 3, 4)] == [1, 5, 0, 5]
    assert kernel.arch.cycle == 8
    # idle fast-forward after the halt keeps the cycle CSR's source current too
    kernel.run_cycles(5000)
    assert kernel.arch.cycle == kernel.cycle - 1 == 5008


def test_run_cycles_is_exact():
    kernel = make_kernel(alu_block_program(200).assemble())
    kernel.run_cycles(50)
    assert kernel.cycle == 50


def test_raw_image_round_trip():
    segments, entry = load_image(b"\x01\x02\x03\x04", base=0x40)
    assert segments == ((0x40, b"\x01\x02\x03\x04"),)
    assert entry == 0x40


def test_elf_with_two_load_segments():
    blob = mini_elf(
        [(0x0, E.ebreak().to_bytes(4, "little"), 4), (0x4000, b"\xbe\xba\xfe\xca", 4)],
        entry=0x0,
    )
    segments, entry = load_image(blob)
    assert entry == 0
    assert segments[0][0] == 0 and segments[1] == (0x4000, b"\xbe\xba\xfe\xca")
    kernel = Kernel(SystemConfig(image=blob))
    kernel.run()
    assert kernel.bus.read(0x4000, 4) == 0xCAFEBABE


def test_elf_bss_zero_fill():
    blob = mini_elf([(0x100, b"\xaa\xbb", 8)], entry=0x100)
    segments, _ = load_image(blob)
    assert segments[0][1] == b"\xaa\xbb\x00\x00\x00\x00\x00\x00"


def _with_header_field(blob, fmt, offset, value):
    blob = bytearray(blob)
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


def test_elf_errors():
    with pytest.raises(ConfigError):
        load_image(b"\x7fELF" + bytes(60))  # wrong class/endianness
    blob = mini_elf([(0x0, b"\x00\x00\x00\x00", 4)], entry=0)
    wrong_machine = bytearray(blob)
    wrong_machine[18] = 62  # x86-64
    with pytest.raises(ConfigError):
        load_image(bytes(wrong_machine))
    with pytest.raises(ConfigError, match="program headers extend past end of file"):
        load_image(blob[:52 + 16])  # the header table is cut off
    with pytest.raises(ConfigError, match="program headers extend past end of file"):
        load_image(blob[:30] + b"\xff\xff" + blob[32:])  # e_phoff 0xffff0034
    with pytest.raises(ConfigError, match="4 bytes in memory, 8 in the file"):
        load_image(mini_elf([(0x0, bytes(8), 4)], entry=0))
    # refused before the zero-fill: a p_memsz of up to 4 GiB allocates nothing
    for memsz in (0x8004, 0x10000):
        with pytest.raises(ConfigError, match=f"{memsz} bytes in memory"):
            load_image(mini_elf([(0x0, b"", memsz)], entry=0))
    with pytest.raises(ConfigError, match="outside SRAM"):
        Kernel(SystemConfig(image=mini_elf([(0x4, b"", 0x8000)], entry=0)))
    with pytest.raises(ConfigError, match="truncated ELF header"):
        load_image(blob[:51])
    with pytest.raises(ConfigError, match="unexpected ELF program header size"):
        load_image(_with_header_field(blob, "<H", 42, 40))  # e_phentsize
    with pytest.raises(ConfigError, match="segment data extends past end of file"):
        load_image(blob[:-1])
    with pytest.raises(ConfigError, match="no loadable segments"):
        load_image(_with_header_field(blob, "<I", 52, 4))  # p_type PT_NOTE


def test_a_segment_other_than_pt_load_is_skipped():
    two = mini_elf([(0x0, b"\x11" * 4, 4), (0x10, E.ebreak().to_bytes(4, "little"), 4)], 0x10)
    segments, entry = load_image(_with_header_field(two, "<I", 52, 4))  # the first is skipped
    assert segments == ((0x10, E.ebreak().to_bytes(4, "little")),) and entry == 0x10


def test_entry_pc_without_an_image():
    kernel = Kernel(SystemConfig(entry_pc=0x40))
    assert kernel.arch.pc.value == 0x40
    with pytest.raises(IllegalInstruction) as info:  # SRAM is all zeros there
        kernel.run()
    assert info.value.pc == 0x40


def test_oversize_image_rejected():
    with pytest.raises(ConfigError):
        Kernel(SystemConfig(image=bytes(33 * 1024)))
    with pytest.raises(ConfigError):
        Kernel(SystemConfig(image=bytes(0x100), image_base=0x7FFF))


def test_segment_outside_sram_rejected():
    blob = mini_elf([(0x9000, b"\x00\x00\x00\x00", 4)], entry=0)
    with pytest.raises(ConfigError):
        Kernel(SystemConfig(image=blob))


def test_parse_stimulus():
    events = parse_stimulus(
        """
        # comment
        120 uart-rx 0x4F
        30 gpio-in 5 1
        """
    )
    assert events == (("gpio-in", 30, 5, 1), ("uart-rx", 120, 0x4F))
    with pytest.raises(ConfigError):
        parse_stimulus("12 bogus-kind 1")


def test_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(freq_mhz=0)
    with pytest.raises(ConfigError):
        SystemConfig(scrub_divider=0)
    with pytest.raises(ConfigError):
        SystemConfig(max_cycles=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("image", 5),
        ("image", ["73001000"]),
        ("image_base", "0x10"),
        ("image_base", -1),
        ("image_base", 16.0),
        ("entry_pc", "0"),
        ("entry_pc", -4),
        ("entry_pc", 1 << 32),
        ("entry_pc", 4.0),
    ],
)
def test_wrong_typed_image_fields_are_config_errors(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        SystemConfig(**{"image": b"\x73\x00\x10\x00", field: value})


def test_image_fields_take_their_whole_range(tmp_path):
    path = tmp_path / "ebreak.bin"
    path.write_bytes(E.ebreak().to_bytes(4, "little"))
    for image in (path, str(path), path.read_bytes()):
        kernel = Kernel(SystemConfig(image=image, image_base=0x100, entry_pc=0x100))
        assert kernel.run().halt == "ebreak" and kernel.sram.voted_bytes()[0x100] == 0x73
    assert SystemConfig(entry_pc=0xFFFFFFFF).entry_pc == 0xFFFFFFFF


def test_stimulus_gpio_pin_out_of_range_is_a_config_error():
    for pin in (27, 40, -1):
        with pytest.raises(ConfigError, match="no such GPIO pin"):
            SystemConfig(stimulus=(("gpio-in", 5, pin, 1),))
    kernel = make_kernel(alu_block_program(), stimulus=(("gpio-in", 5, 26, 1),))  # the last pin
    kernel.run_cycles(10)
    assert (kernel.gpio.read(GPIO_REG_IN) >> 26) & 1


@pytest.mark.parametrize("event, what", [
    (("gpio-in", 30, 5, 2), "level is not 0 or 1"),
    (("gpio-in", 30, 5, -1), "level is not 0 or 1"),
    (("uart-rx", 5, 256), "byte is not in 0..255"),
    (("uart-rx", 5, -1), "byte is not in 0..255"),
])
def test_a_stimulus_level_or_byte_out_of_range_is_a_config_error(event, what):
    # a stimulus file and a config give the same event, and the same error
    line = " ".join(map(str, (event[1], event[0], *event[2:])))
    assert parse_stimulus(line) == (event,)
    for stimulus in (parse_stimulus(line), (event,)):
        with pytest.raises(ConfigError) as info:
            SystemConfig(stimulus=stimulus)
        assert str(info.value) == f"stimulus event {list(event)!r}: {what}"
    for event in (("gpio-in", 30, 5, 0), ("gpio-in", 30, 5, 1), ("uart-rx", 5, 0),
                  ("uart-rx", 5, 255)):  # the limits
        Kernel(SystemConfig(stimulus=(event,)))


def test_stimulus_before_cycle_0_is_a_config_error():
    # a GPIO input would never land, and a UART byte would land at cycle 0
    for event in (("gpio-in", -5, 3, 1), ("uart-rx", -5, 0x41)):
        with pytest.raises(ConfigError, match=r"stimulus event \[.*-5.*\]: cycle -5 is before 0"):
            SystemConfig(stimulus=(event,))
    kernel = make_kernel(alu_block_program(), stimulus=(("gpio-in", 0, 3, 1),))  # cycle 0 lands
    kernel.run_cycles(1)
    assert (kernel.gpio.read(GPIO_REG_IN) >> 3) & 1


@pytest.mark.parametrize("stimulus, message", [
    ((5,), "stimulus must be a list or tuple of lists or tuples, got (5,)"),
    ("gpio", "stimulus must be a list or tuple of lists or tuples, got 'gpio'"),
    ((("gpio", 5, 3, 1),), "unknown stimulus event kind 'gpio'"),
    (((),), "unknown stimulus event kind None"),
    ((("uart-rx", 5),), "stimulus event ['uart-rx', 5]: uart-rx takes 2 integers"),
    ((("gpio-in", 5, 3.0, 1),), "stimulus event ['gpio-in', 5, 3.0, 1]: gpio-in takes 3 integers"),
])
def test_a_malformed_stimulus_is_rejected_with_the_rest_of_the_config(stimulus, message):
    with pytest.raises(ConfigError) as info:
        SystemConfig(stimulus=stimulus)
    assert str(info.value) == message


def test_a_stimulus_of_lists_is_held_as_tuples():
    config = SystemConfig(stimulus=[["uart-rx", 9, 1], ("gpio-in", 3, 2, 1)])
    assert config.stimulus == (("uart-rx", 9, 1), ("gpio-in", 3, 2, 1))


def test_many_uart_rx_events_queue_in_stable_cycle_order():
    # Two bytes share each cycle, listed latest cycle first: the queue keeps each
    # cycle's bytes in the order given, and building it takes time near linear.
    events = tuple(("uart-rx", (40_000 - i) // 2, i & 0xFF) for i in range(40_000))
    began = time.perf_counter()
    kernel = Kernel(SystemConfig(stimulus=events))
    assert time.perf_counter() - began < 10
    assert kernel.uart.rx_pending == [(e[1], e[2]) for e in sorted(events, key=lambda e: e[1])]


def test_config_dict_round_trip():
    config = SystemConfig(
        image=b"\x73\x00\x10\x00", scrub_divider=4, stimulus=(("uart-rx", 9, 1),)
    )
    clone = SystemConfig.from_dict(config.to_dict())
    assert clone == config


@pytest.mark.parametrize("data", [[1], "config", None])
def test_system_config_from_a_non_object_is_a_config_error(data):
    with pytest.raises(ConfigError, match="system config must be a JSON object"):
        SystemConfig.from_dict(data)


def test_activity_cycles_split_the_run():
    kernel = make_kernel(acceptance_program())
    kernel.run()
    mix = kernel.activity_cycles()
    assert mix["sram"] == kernel.pipeline.dmem_cycles > 0
    assert mix["sram"] + mix["register"] == kernel.cycle


def test_uart_tx_capture_with_cycles():
    kernel = make_kernel(uart_hello_program(b"HI"))
    kernel.run()
    assert kernel.uart.tx_bytes() == b"HI"
    cycles = [c for c, _ in kernel.uart.tx_log]
    assert cycles == sorted(cycles)


def test_scrub_divider_slows_the_scan():
    fast = Kernel(SystemConfig(image=alu_block_program(100).assemble()))
    slow = Kernel(
        SystemConfig(image=alu_block_program(100).assemble(), scrub_divider=4)
    )
    fast.run()
    slow.run()
    assert fast.cycle == slow.cycle  # timing unaffected
    fast_ptr = fast.scrubber.row_ptr.value
    slow_ptr = slow.scrubber.row_ptr.value
    assert fast_ptr == fast.cycle % 8192
    assert slow_ptr == (slow.cycle + 3) // 4 % 8192


def test_scrub_disabled_means_no_scan():
    kernel = Kernel(
        SystemConfig(image=alu_block_program(20).assemble(), scrub_enabled=False)
    )
    kernel.run()
    assert kernel.scrubber.row_ptr.value == 0


# ---------------------------------------------------------------------------
# idle fast-forward vs. single-stepping, and snapshot v2
# ---------------------------------------------------------------------------


def _toy_kernel(rows, config):
    """A kernel whose SRAM and scrubber have ``rows`` rows (image loaded at 0)."""
    kernel = Kernel(dataclasses.replace(config, image=None))
    kernel.sram = SramArray(rows)
    kernel.bus = SystemBus(kernel.sram, kernel.bus.devices)
    kernel.scrubber = Scrubber(rows)
    kernel.registry.update((cell.element_id, cell) for cell in kernel.scrubber.cells())
    kernel.sram.load_bytes(0, config.image)
    return kernel


def _schedule_random_flips(kernel, seed, halt_cycle, end):
    """Seeded single upsets before the halt and arbitrary (double) upsets after it.

    Pre-halt upsets sit on distinct even cycles with distinct SRAM bits, so no two
    combine into an uncorrectable fault while the core still runs.
    """
    rng = np.random.default_rng(seed)
    names = list(kernel.registry)
    rows = kernel.sram.rows
    slots = np.arange(2, halt_cycle - 2, 2)
    for i, cycle in enumerate(rng.choice(slots, min(12, len(slots)), replace=False)):
        if i % 2:
            kernel.schedule_flip(int(cycle), "sram", int(rng.integers(rows)), i % 3, i)
        else:
            key = names[int(rng.integers(len(names)))]
            bit = int(rng.integers(kernel.registry[key].width))
            phase = EDGE_ALIGNED if i % 4 else MID_CYCLE
            kernel.schedule_flip(int(cycle), "cell", key, i % 3, bit, phase=phase)
    for cycle in rng.integers(halt_cycle + 1, end - end // 100, 16):
        cycle = int(cycle)
        count = int(rng.integers(1, 3))
        if rng.integers(2):
            row, bit = int(rng.integers(rows)), int(rng.integers(32))
            for r in range(count):
                kernel.schedule_flip(cycle, "sram", row, r, bit)
        else:
            key = names[int(rng.integers(len(names)))]
            bit = int(rng.integers(kernel.registry[key].width))
            phase = EDGE_ALIGNED if rng.integers(2) else MID_CYCLE
            for r in range(count):
                kernel.schedule_flip(cycle, "cell", key, r, bit, phase=phase)
    # the scrubber's own pointer, upset past the halt, must steer both paths alike
    cycle = (halt_cycle + end) // 3
    kernel.schedule_flip(cycle, "cell", "sram.scrub_row_ptr", 0, 2)
    kernel.schedule_flip(cycle, "cell", "sram.scrub_row_ptr", 1, 2)


def _plain_and_fast(make, seed, halt_cycle, n):
    plain, fast = make(), make()
    for kernel in (plain, fast):
        _schedule_random_flips(kernel, seed, halt_cycle, n)
    for _ in range(n):
        plain.step_cycle()
    steps = []
    fast_step = fast.step_cycle

    def counted_step():
        steps.append(fast.cycle)
        fast_step()

    fast.step_cycle = counted_step
    fast.run_cycles(n)
    assert len(steps) < n // 2  # the fast path really skipped
    return plain, fast


def _assert_same_run(plain, fast):
    assert fast.snapshot() == plain.snapshot()
    assert fast.result() == plain.result()
    assert fast.sink == plain.sink
    assert fast.arch.cycle == plain.arch.cycle  # the clock UART TX stamps read


FAST_FORWARD_CASES = {
    "divider-1": dict(),
    "divider-3": dict(scrub_divider=3),
    "scrub-off": dict(scrub_enabled=False),
    "stimulus": dict(
        stimulus=(
            ("gpio-in", 40, 3, 1),
            ("gpio-in", 3000, 3, 0),
            ("gpio-in", 9000, 7, 1),
            ("uart-rx", 29_990, 0x42),  # due after the last scheduled upset
        )
    ),
    "stimulus-out-of-order": dict(
        stimulus=(("gpio-in", 9000, 7, 1), ("gpio-in", 40, 3, 1), ("gpio-in", 3000, 3, 0))
    ),
}


@pytest.mark.parametrize("case", sorted(FAST_FORWARD_CASES))
def test_run_cycles_fast_forward_matches_single_steps(case):
    config = SystemConfig(
        image=acceptance_program().assemble(), record_events=True, **FAST_FORWARD_CASES[case]
    )
    halt_cycle = Kernel(config).run().cycles
    plain, fast = _plain_and_fast(lambda: Kernel(config), 7, halt_cycle, 30_000)
    assert plain.halted is not None
    _assert_same_run(plain, fast)


@pytest.mark.parametrize("rows", [16, 256])
@pytest.mark.parametrize("divider", [1, 3])
def test_run_cycles_fast_forward_toy_sram(rows, divider):
    config = SystemConfig(
        image=alu_block_program(14).assemble(), record_events=True, scrub_divider=divider
    )
    halt_cycle = _toy_kernel(rows, config).run().cycles
    plain, fast = _plain_and_fast(
        lambda: _toy_kernel(rows, config), rows + divider, halt_cycle, 40 * rows * divider
    )
    _assert_same_run(plain, fast)


def test_run_cycles_fast_forward_resumed_from_snapshot_mid_span():
    config = SystemConfig(image=acceptance_program().assemble(), scrub_divider=3)
    plain, first = Kernel(config), Kernel(config)
    for kernel in (plain, first):
        _schedule_random_flips(kernel, 11, 229, 30_000)
    for _ in range(30_000):
        plain.step_cycle()
    first.run_cycles(12_345)  # mid-span, with flips still scheduled ahead
    assert first.halted is not None and first._fault_schedule
    resumed = Kernel.from_snapshot(first.snapshot())
    resumed.run_cycles(30_000 - 12_345)
    assert resumed.snapshot() == plain.snapshot()
    assert resumed.result() == plain.result()


# ---------------------------------------------------------------------------
# Kernel._advance, the one run loop: chunks against one call and single steps
# ---------------------------------------------------------------------------


def _spin_program():
    p = E.Program()
    p.emit(E.addi(1, 0, 1))
    p.label("spin")
    p.emit(E.add(2, 2, 1))
    p.branch(E.beq, 0, 0, "spin")
    return p.assemble()


def _stepped_outcome(kernel, end):
    """Single steps as ``run()`` (``end`` None) or ``run_cycles`` to ``end`` would take
    them; (type, message, cycle) of what the run raised, or None."""
    try:
        if end is None:
            while kernel.halted is None:
                if kernel.cycle >= kernel.config.max_cycles:
                    raise SimTimeout(kernel.config.max_cycles)
                kernel.step_cycle()
        else:
            while kernel.cycle < end:
                kernel.step_cycle()
    except (SimError, ValueError) as exc:  # ValueError: a scrub pointer past the last row
        return type(exc), str(exc), kernel.cycle
    return None


def _fast_outcome(kernel, end):
    try:
        kernel.run() if end is None else kernel.run_cycles(end)
    except (SimError, ValueError) as exc:
        return type(exc), str(exc), kernel.cycle
    return None


def _run_in_chunks(kernel, end, targets, final, timeout):
    """``_advance`` to each target in turn, checking where each call stops and what it returns."""
    for i, target in enumerate(targets):
        try:
            over = kernel._advance(target, end)
        except SimTimeout:
            # only a call past max_cycles raises, never the one that reaches it
            assert end is None and kernel.cycle == kernel.config.max_cycles < target
            assert targets[i - 1] == kernel.cycle
            return kernel.cycle
        assert kernel.cycle == min(target, final)
        assert over == (kernel.cycle == final and timeout is None)
    return None


ADVANCE_CASES = {
    "acceptance": (lambda: acceptance_program().assemble(), {}, False),
    "spin": (_spin_program, {"max_cycles": 700}, False),
    "stimulus-and-flips": (
        lambda: acceptance_program().assemble(), FAST_FORWARD_CASES["stimulus"], True
    ),
}


@pytest.mark.parametrize("mode", ["to-halt", "to-end"])
@pytest.mark.parametrize("case", sorted(ADVANCE_CASES))
def test_advance_in_chunks_equals_one_call_and_single_steps(case, mode):
    program, overrides, flips = ADVANCE_CASES[case]
    config = SystemConfig(image=program(), record_events=True, **overrides)
    golden = Kernel(config)
    _fast_outcome(golden, None)
    end = None if mode == "to-halt" else golden.cycle + 6000

    def make():
        kernel = Kernel(config)
        if flips:
            _schedule_random_flips(kernel, 5, golden.cycle, golden.cycle + 6000)
        return kernel

    plain, single = make(), make()
    outcome = _stepped_outcome(plain, end)
    assert _fast_outcome(single, end) == outcome
    timeout = outcome and outcome[2]
    final = plain.cycle
    assert (timeout is not None) == (case == "spin" and mode == "to-halt")
    for seed in range(3):
        rng = np.random.default_rng(seed)
        horizon = final + 100
        targets = sorted([*map(int, rng.integers(0, horizon, 30)), config.max_cycles])
        chunked = make()
        assert _run_in_chunks(chunked, end, targets + [math.inf], final, timeout) == timeout
        for kernel in (single, chunked):
            assert kernel.snapshot() == plain.snapshot()
            assert kernel.result() == plain.result()
            assert kernel.sink == plain.sink


# ---------------------------------------------------------------------------
# quiet spans of a running core vs. single-stepping
# ---------------------------------------------------------------------------


def _loop_then(*tail, passes=40):
    """A GPIO-reading, UART-echoing store/load loop of ``passes`` passes, then ``tail``."""
    p = E.Program()
    p.emit(E.addi(20, 0, passes))
    p.emit(E.lui(28, SCRATCH_BASE >> 12))
    p.emit(E.lui(10, 0x10001))  # UART block
    p.emit(E.lui(11, 0x10000))  # GPIO block
    p.label("loop")
    p.emit(E.lw(5, 11, 8))  # GPIO IN
    p.emit(E.lw(6, 10, 4))  # UART RX, or the empty marker (negative)
    p.branch(E.blt, 6, 0, "no-byte")
    p.emit(E.sw(6, 10, 0))  # echo it
    p.label("no-byte")
    p.emit(E.add(7, 5, 20))
    p.emit(E.sw(7, 28, 0))
    p.emit(E.lw(8, 28, 0))
    p.emit(E.mul(9, 8, 20))
    p.emit(E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "loop")
    p.emit(*tail)
    return p.assemble()


def _csr_loop():
    """A loop that reads the cycle and instret CSRs each pass and stores what it read."""
    p = E.Program()
    p.emit(E.addi(20, 0, 40))
    p.emit(E.lui(28, SCRATCH_BASE >> 12))
    p.label("loop")
    p.emit(E.csrrs(5, CSR_CYCLE))
    p.emit(E.csrrs(6, CSR_INSTRET))
    p.emit(E.sub(7, 5, 6))
    p.emit(E.sw(7, 28, 0))
    p.emit(E.add(9, 9, 5))
    p.emit(E.sw(9, 28, 4))
    p.emit(E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def _looped_random(seed, passes=40):
    """A ``gen_random_program`` body, compressed encodings on, run ``passes`` times by
    a counted loop in x30 (the body's forward branches and jumps stay inside it)."""
    rng = np.random.default_rng(seed)
    body = gen_random_program(rng, n=int(rng.integers(12, 40)), compressed=True)[:-4]
    head = E.addi(30, 0, passes).to_bytes(4, "little")
    back = E.bne(30, 0, -(len(body) + 4)).to_bytes(4, "little")
    tail = E.addi(30, 30, -1).to_bytes(4, "little") + back + E.ebreak().to_bytes(4, "little")
    return head + body + tail


def _patching_loop(gap):
    """A 48-pass loop that rewrites one of its instructions each pass, toggling it
    between ``addi x7, x7, 1`` and ``addi x7, x7, 3``. The store comes ``gap``
    blocks before it, each ended by a branch: in the same block (0), in the block
    before (1), or further up (2)."""
    one, three = E.addi(7, 7, 1), E.addi(7, 7, 3)

    def build(site):
        p = E.Program()
        p.emit(E.addi(20, 0, 48), E.lui(28, SCRATCH_BASE >> 12), E.addi(21, 0, site))
        p.emit(E.li32(22, three), E.li32(23, one ^ three))
        p.label("loop")
        p.emit(E.sw(22, 21, 0), E.xor(22, 22, 23))
        for i in range(gap):
            if i:
                p.emit(E.add(10, 10, 20))
            p.branch(E.beq, 0, 0, f"next-{i}")
            p.label(f"next-{i}")
        p.emit(E.add(9, 9, 20))  # the fetch latch check sees a change to a block's head
        p.label("site")
        p.emit(one, E.add(8, 8, 7), E.sw(8, 28, 0), E.addi(20, 20, -1))
        p.branch(E.bne, 20, 0, "loop")
        p.emit(E.ebreak())
        return p

    return build(build(0).labels["site"]).assemble()


def _nested_loops():
    """A 24-pass outer loop around a 6-pass inner loop, with an if-then diamond
    taken on alternate passes, a ``jal`` over a block that never runs, and sub-word
    stores into the scratch word it reads back."""
    p = E.Program()
    p.emit(E.addi(20, 0, 24), E.lui(28, SCRATCH_BASE >> 12))
    p.label("outer")
    p.emit(E.addi(21, 0, 6))
    p.label("inner")
    p.emit(E.add(7, 7, 21), E.xor(8, 8, 7), E.addi(21, 21, -1))
    p.branch(E.bne, 21, 0, "inner")
    p.emit(E.andi(5, 20, 1))
    p.branch(E.beq, 5, 0, "join")
    p.emit(E.addi(9, 9, 3), E.slli(9, 9, 1))  # odd passes only
    p.label("join")
    p.emit(E.sb(7, 28, 1), E.sh(8, 28, 2))
    p.jump("over", rd=1)
    p.emit(E.addi(9, 9, 100))
    p.label("over")
    p.emit(E.lw(6, 28, 0), E.add(9, 9, 6), E.add(9, 9, 1), E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "outer")
    p.emit(E.ebreak())
    return p.assemble()


def _long_body(passes=40):
    """A counted loop whose straight-line body is longer than ``regions._MAX_BLOCK``."""
    p = E.Program()
    p.emit(E.addi(20, 0, passes), E.addi(5, 0, 1))
    p.label("loop")
    for i in range(regions._MAX_BLOCK + 8):
        rd, rs = 6 + i % 4, 6 + (i + 1) % 4
        p.emit((E.add(rd, rd, rs), E.xor(rd, rd, 5), E.addi(rd, rs, i))[i % 3])
    p.emit(E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def _mmio_loop():
    """A loop that writes UART TX and reads GPIO IN between SRAM work in its blocks."""
    p = E.Program()
    p.emit(E.addi(20, 0, 48), E.lui(28, SCRATCH_BASE >> 12))
    p.emit(E.lui(10, 0x10001), E.lui(11, 0x10000))  # UART and GPIO blocks
    p.label("loop")
    p.emit(E.add(7, 7, 20), E.andi(6, 7, 0x7F))
    p.emit(E.sw(6, 10, 0))  # UART TX
    p.emit(E.add(8, 8, 6))
    p.emit(E.lw(5, 11, 8))  # GPIO IN
    p.emit(E.add(8, 8, 5), E.sw(8, 28, 0), E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def _jalr_loop():
    """A loop that calls a subroutine through ``jalr`` and returns through it; the
    last call's target is outside SRAM, and its fetch raises."""

    def build(sub):
        p = E.Program()
        p.emit(E.addi(20, 0, 48), E.addi(3, 0, sub))
        p.label("loop")
        p.emit(E.addi(20, 20, -1))
        p.branch(E.bne, 20, 0, "call")
        p.emit(E.lui(3, 0x20000))
        p.label("call")
        p.emit(E.add(7, 7, 20), E.jalr(1, 3, 0))
        p.branch(E.beq, 0, 0, "loop")
        p.label("sub")
        p.emit(E.add(8, 8, 7), E.jalr(0, 1, 0))
        return p

    return build(build(0).labels["sub"]).assemble()


def _load_lanes(passes=40):
    """A loop that stores two words with the sign bit of every byte set, then loads
    the first back with ``lb``, ``lbu``, ``lh``, ``lhu`` and ``lw`` at every lane
    offset, and the second with ``lw``, summing what it loaded."""
    loads = [(E.lb, k) for k in range(4)] + [(E.lbu, k) for k in range(4)]
    loads += [(E.lh, 0), (E.lh, 2), (E.lhu, 0), (E.lhu, 2), (E.lw, 0), (E.lw, 4)]
    p = E.Program()
    p.emit(E.addi(31, 0, passes), E.lui(30, SCRATCH_BASE >> 12))
    p.emit(E.li32(29, 0x80808080), E.li32(27, 0x01010101), E.li32(26, 0x7F7F7F7F))
    p.label("loop")
    # every byte of x6 is 0x80 | pass, and every byte of x7 0xFF ^ pass
    p.emit(E.mul(6, 31, 27), E.or_(6, 6, 29), E.xor(7, 6, 26))
    p.emit(E.sw(6, 30, 0), E.sw(7, 30, 4))
    for rd, (load, offset) in enumerate(loads, start=10):
        p.emit(load(rd, 30, offset), E.add(9, 9, rd))
    p.emit(E.sw(9, 30, 8), E.addi(31, 31, -1))
    p.branch(E.bne, 31, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def _sram_end(passes=40):
    """A ``jal`` to a loop at 0x7FC0 whose closing ``bne`` is the last word of SRAM;
    the fetch after it, at 0x8000, raises."""
    loop = E.Program(base=0x7FC0)
    loop.label("loop")
    loop.emit(E.add(7, 7, 20), E.sw(7, 28, 0), E.lw(8, 28, 0), E.xor(9, 9, 8))
    while loop.here < 0x7FF8:
        loop.emit(E.add(9, 9, 7))
    loop.emit(E.addi(20, 20, -1))
    loop.branch(E.bne, 20, 0, "loop")
    head = (E.addi(20, 0, passes), E.lui(28, SCRATCH_BASE >> 12), E.jal(0, 0x7FC0 - 8))
    head = b"".join(ins.to_bytes(4, "little") for ins in head)
    return head.ljust(0x7FC0, b"\0") + loop.assemble()


# name -> (image, max_cycles, what a clean run raises)
QUIET_PROGRAMS = {
    "acceptance": (lambda: acceptance_program().assemble(), 3000, None),
    **{
        f"random-{seed}": (
            lambda seed=seed: gen_random_program(np.random.default_rng(seed)), 3000, None
        )
        for seed in range(3)
    },
    "loop": (lambda: _loop_then(E.ebreak()), 3000, None),
    "bus-fault": (lambda: _loop_then(E.lui(3, 0x20000), E.lw(4, 3, 0)), 3000, BusFault),
    "csr-reads": (_csr_loop, 3000, None),
    # the jump's target is fetched, mid-span, from outside SRAM
    "fetch-fault": (lambda: _loop_then(E.lui(3, 0x20000), E.jalr(0, 3, 0)), 3000, BusFault),
    "alignment-fault": (lambda: _loop_then(E.lw(4, 28, 2)), 3000, AlignmentFault),
    "illegal": (lambda: _loop_then(0x0000, 0x0000), 3000, IllegalInstruction),
    "timeout": (_spin_program, 700, SimTimeout),
    # hot loops, which run as translated regions where no Retire record is kept
    **{
        f"looped-random-{seed}": (lambda seed=seed: _looped_random(seed), 20000, None)
        for seed in range(3)
    },
    "patch-own-block": (lambda: _patching_loop(0), 3000, None),
    "patch-next-block": (lambda: _patching_loop(1), 3000, None),
    "patch-far-block": (lambda: _patching_loop(2), 3000, None),
    "nested-loops": (_nested_loops, 3000, None),
    # a block ends at the size cap, and the back edge leaves the second region
    "long-body": (_long_body, 12000, None),
    "mmio-in-block": (_mmio_loop, 3000, None),
    "jalr-leaves-sram": (_jalr_loop, 3000, BusFault),
    "load-lanes": (_load_lanes, 6000, None),
    # a region whose last fetch could fault, at the end of SRAM
    "sram-end": (_sram_end, 3000, BusFault),
}

QUIET_STIMULUS = (
    ("uart-rx", 5, 0x41),
    ("uart-rx", 6, 0x42),  # held until the core reads the first byte
    ("gpio-in", 30, 3, 1),
    ("uart-rx", 90, 0x43),
    ("gpio-in", 200, 3, 0),
    ("uart-rx", 400, 0x44),
)

# name -> (config overrides, whether upsets are scheduled)
QUIET_SETTINGS = {
    "sink": (dict(record_events=True), False),
    "no-sink": (dict(), False),
    "stimulus-no-sink": (dict(stimulus=QUIET_STIMULUS), False),  # regions run here
    "flips": (dict(record_events=True), True),
    "flips-no-sink": (dict(), True),
    "flips-scrub-off": (dict(scrub_enabled=False, record_events=True), True),
    "flips-divider-3": (dict(scrub_divider=3, record_events=True), True),
    "flips-stimulus": (dict(stimulus=QUIET_STIMULUS, record_events=True), True),
}


def _schedule_running_flips(kernel, rng, length):
    """Single and same-bit double upsets of random cells (both phases) and SRAM rows."""
    names = list(kernel.registry)
    for _ in range(10):
        cycle = int(rng.integers(length))
        count = 1 if rng.random() < 0.7 else 2
        if rng.random() < 0.6:
            key = names[int(rng.integers(len(names)))]
            kind, bit = "cell", int(rng.integers(kernel.registry[key].width))
            phase = EDGE_ALIGNED if rng.random() < 0.5 else MID_CYCLE
        else:  # a code row, the scratch row the loops use, or any row
            key = int(rng.choice([rng.integers(32), SCRATCH_BASE // 4, rng.integers(8192)]))
            kind, bit, phase = "sram", int(rng.integers(32)), MID_CYCLE
        replica = int(rng.integers(3))
        for i in range(count):
            kernel.schedule_flip(cycle, kind, key, (replica + i) % 3, bit, phase=phase)


@pytest.mark.parametrize("setting", sorted(QUIET_SETTINGS))
@pytest.mark.parametrize("program", sorted(QUIET_PROGRAMS))
def test_quiet_running_spans_match_single_steps(program, setting):
    image, max_cycles, raises = QUIET_PROGRAMS[program]
    overrides, flips = QUIET_SETTINGS[setting]
    config = SystemConfig(image=image(), max_cycles=max_cycles, **overrides)
    clean = Kernel(config)
    outcome = _stepped_outcome(clean, None)
    assert (outcome and outcome[0]) == raises
    length = clean.cycle
    # run(), and run_cycles to before the halt and across it in one call
    for end in (None, length * 2 // 3, length + 300):
        plain, fast = Kernel(config), Kernel(config)
        if flips:
            for kernel in (plain, fast):
                _schedule_running_flips(kernel, np.random.default_rng(length), length)
        assert _fast_outcome(fast, end) == _stepped_outcome(plain, end)
        _assert_same_run(plain, fast)
        assert fast.bus.last_store_row == plain.bus.last_store_row


@pytest.mark.parametrize(
    "rows, key, bit, raises",
    [(8192, "sram.scrub_phase", 0, None), (40, "sram.scrub_row_ptr", 5, ValueError)],
)
def test_an_upset_scrubber_keeps_a_running_core_single_stepping(rows, key, bit, raises):
    # A same-bit double upset at cycle 31 leaves the scrubber in its write-back
    # phase, or its pointer past the last row (11 -> 43), when the machine is
    # quiet again at the next due scrub step (cycle 33).
    config = SystemConfig(image=_spin_program(), scrub_divider=3, record_events=True)
    plain, fast = _toy_kernel(rows, config), _toy_kernel(rows, config)
    for kernel in (plain, fast):
        for replica in (0, 1):
            kernel.schedule_flip(31, "cell", key, replica, bit)
    outcome = _stepped_outcome(plain, 200)
    assert (outcome and outcome[0]) == raises
    assert _fast_outcome(fast, 200) == outcome
    _assert_same_run(plain, fast)


def test_a_resumed_upset_with_no_increment_pending_is_single_stepped():
    # Runs never leave a cell upset with no counter increment pending, but a
    # checkpoint may hold one; the quiet span must not start over it.
    kernel = make_kernel(_loop_then(E.ebreak()), record_events=True)
    kernel.schedule_flip(20, "cell", "core.x20", 0, 3)
    kernel.run_cycles(21)
    checkpoint = kernel.checkpoint()
    assert checkpoint.upsets and checkpoint.misc["pending_increments"]
    checkpoint.misc["pending_increments"] = {}
    plain, fast = make_kernel(_loop_then(E.ebreak()), record_events=True), kernel
    for k in (plain, fast):
        k.resume(checkpoint)
    assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
    _assert_same_run(plain, fast)


def test_a_fault_free_running_core_rarely_single_steps():
    image = _loop_then(E.ebreak(), passes=500)
    length = make_kernel(image).run().cycles
    for end in (None, length // 2, 10 * length):  # the last one runs on past the halt
        kernel = make_kernel(image)
        steps = []
        step = kernel.step_cycle

        def counted_step(step=step):
            steps.append(kernel.cycle)
            step()

        kernel.step_cycle = counted_step
        assert _fast_outcome(kernel, end) is None
        assert kernel.cycle == (length if end is None else end)
        assert len(steps) < kernel.cycle // 100


def _counted_loop(passes):
    """A loop that touches no device, three cycles a pass, then ``ebreak``."""
    p = E.Program()
    p.emit(E.addi(5, 0, passes))
    p.label("loop")
    p.emit(E.addi(5, 5, -1))
    p.branch(E.bne, 5, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def _count_steps(kernel):
    """Make ``kernel`` count its ``step_cycle`` calls into the returned list."""
    steps = []
    step = kernel.step_cycle

    def counted_step():
        steps.append(kernel.cycle)
        step()

    kernel.step_cycle = counted_step
    return steps


def test_a_held_uart_byte_does_not_make_a_running_core_single_step():
    # The core never reads the UART, so the byte due at cycle 10 stays held and the
    # one due at 11 never lands; no span has to stop for either.
    config = SystemConfig(
        image=_counted_loop(2000), stimulus=(("uart-rx", 10, 0x41), ("uart-rx", 11, 0x42))
    )
    plain, fast = Kernel(config), Kernel(config)
    steps = _count_steps(fast)
    assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
    assert fast.cycle > 6000 and len(steps) <= 4
    _assert_same_run(plain, fast)
    assert fast.uart.rx_cursor == 1 and fast.uart.rx_valid.value == 1


def test_short_spans_over_uart_reads_match_single_steps_at_every_boundary():
    # Some span ends on the cycle of a read that empties the holding register while
    # the next byte is due; that byte must not land before the next cycle.
    stimulus = (("uart-rx", 5, 0x41), ("uart-rx", 6, 0x42), ("uart-rx", 6, 0x43),
                ("gpio-in", 7, 2, 1), ("uart-rx", 60, 0x44), ("uart-rx", 61, 0x45))
    config = SystemConfig(image=_loop_then(E.ebreak(), passes=12), stimulus=stimulus)
    plain, fast = Kernel(config), Kernel(config)
    rng = np.random.default_rng(0)
    while fast.halted is None:
        fast.run_cycles(int(rng.integers(1, 4)))
        _stepped_outcome(plain, fast.cycle)
        _assert_same_run(plain, fast)
    assert fast.uart.tx_bytes() == b"ABCDE"


def test_a_halted_core_runs_past_due_stimulus_in_one_span():
    stimulus = (("gpio-in", 100, 3, 1), ("uart-rx", 150, 0x41), ("uart-rx", 150, 0x42),
                ("gpio-in", 150, 4, 1), ("gpio-in", 900, 3, 0), ("uart-rx", 2000, 0x43))
    config = SystemConfig(image=E.ebreak().to_bytes(4, "little"), stimulus=stimulus)
    plain, fast = Kernel(config), Kernel(config)
    for kernel in (plain, fast):
        kernel.run()
    assert fast.cycle < 100
    spans = []
    fast_forward = fast._fast_forward
    fast._fast_forward = lambda end: (spans.append(fast.cycle), fast_forward(end))
    steps = _count_steps(fast)
    fast.run_cycles(5000)
    _stepped_outcome(plain, fast.cycle)
    assert len(spans) == 1 and steps == []
    _assert_same_run(plain, fast)
    assert fast.gpio.input_levels == 1 << 4 and fast.uart.rx_cursor == 1


@pytest.mark.parametrize("due", [0, 1, 5])
def test_a_span_that_raises_where_stimulus_is_due_matches_single_steps(due):
    # The load after the loop faults at cycle r; a GPIO input and two UART bytes
    # are due ``due`` cycles before it, inside the span that raises.
    image = _counted_loop(30)[:-4] + b"".join(
        ins.to_bytes(4, "little") for ins in (E.lui(3, 0x20000), E.lw(4, 3, 0))
    )
    raised = Kernel(SystemConfig(image=image))
    assert _stepped_outcome(raised, None)[0] is BusFault
    r = raised.cycle - due
    stimulus = (("gpio-in", r, 6, 1), ("uart-rx", r, 0x41), ("uart-rx", r, 0x42))
    config = SystemConfig(image=image, stimulus=stimulus)
    plain, fast = Kernel(config), Kernel(config)
    steps = _count_steps(fast)
    outcome = _fast_outcome(fast, None)
    assert outcome == _stepped_outcome(plain, None) and outcome[0] is BusFault
    assert steps == []  # the raise came from a span
    _assert_same_run(plain, fast)
    assert fast.gpio.input_levels == 1 << 6 and fast.uart.rx_data.value == 0x41


def _site_loop(step, passes=48, tail=E.ebreak()):
    """A loop, then ``tail``. The loop's second instruction, at the returned pc, is
    ``addi x7, x7, step``; it stores to 0xF0, inside even a 64-row SRAM."""
    p = E.Program()
    p.emit(E.addi(20, 0, passes), E.addi(28, 0, 0xF0))
    p.label("loop")
    p.emit(E.add(9, 9, 20))
    p.label("site")
    p.emit(E.addi(7, 7, step), E.add(8, 8, 7), E.sw(8, 28, 0), E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "loop")
    p.emit(tail)
    return p.assemble(), p.labels["site"]


# A budget at least any region's need: a first block's longest path
_ANY_NEED = 2 * regions._MAX_BLOCK + 1


def _call(region, budget, regs, bank):
    """What ``region`` returns when called with ``budget``, copies of ``regs`` and three
    copies of ``bank``, which it may change."""
    return region(budget, [TmrCell("x", Domain.CORE, 32, r.value) for r in regs],
                  bank[:], bank[:], bank[:])


def _made_for(kernel, site):
    """Whether some cached region was made from ``kernel``'s code and covers ``site``:
    it has a first block, so it declines a budget of 0 even with the word at ``site``
    changed, and given its need, its entry check passes the SRAM words, but not with
    that word changed."""
    regs, bank = kernel.arch.regs, kernel.sram.banks[0]
    changed = bank[:]
    changed[site // 4] ^= 1
    return any(
        _call(region, 0, regs, changed) is None
        and _call(region, _ANY_NEED, regs, bank) is not False
        and _call(region, _ANY_NEED, regs, changed) is False
        for region in pipeline._blocks.values()
    )


def test_blocks_are_checked_against_each_kernels_code(monkeypatch):
    # The translation cache is shared by every kernel of the process and keyed
    # by pc; two images that differ at the loop's pc take turns in it, and so do
    # two that differ only in the instruction after the loop's exit branch, which
    # the region latches when it leaves.
    monkeypatch.setattr(pipeline, "_blocks", {})
    (one, site), (three, _) = _site_loop(1), _site_loop(3)
    ecall, _ = _site_loop(1, tail=E.ecall())
    for image in (one, ecall, one, ecall, one, three, one, three):
        plain, fast = make_kernel(image), make_kernel(image)
        assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
        _assert_same_run(plain, fast)
        assert _made_for(fast, site)
        assert fast.result().halt == ("ecall" if image is ecall else "ebreak")
    assert fast.arch.regs[7].value == 3 * 48


def test_kernels_make_a_region_from_their_entries_together(monkeypatch):
    # The acceptance program's loop makes 10 passes, fewer than _HOT_ENTRIES, so no
    # one kernel enters its head often enough; the second kernel's entries, added
    # to the first's, do.
    monkeypatch.setattr(pipeline, "_blocks", {})
    program = acceptance_program()
    image, site = program.assemble(), program.labels["loop"]
    assert 10 < pipeline._HOT_ENTRIES <= 2 * 10
    first = make_kernel(image)
    first.run()
    assert not _made_for(first, site)
    plain, fast = make_kernel(image), make_kernel(image)
    assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
    _assert_same_run(plain, fast)  # snapshot bytes (registers and SRAM too) and RunResult
    assert _made_for(fast, site)


def test_a_code_row_scrubbed_back_to_a_changed_word_is_retranslated(monkeypatch):
    # A same-bit double upset of bit 21 turns ``addi x7, x7, 1`` into
    # ``addi x7, x7, 3`` after the loop's blocks were made; the scrubber writes
    # the changed voted word back to all replicas.
    monkeypatch.setattr(pipeline, "_blocks", {})
    image, site = _site_loop(1, passes=200)
    config = SystemConfig(image=image)
    plain, fast = _toy_kernel(64, config), _toy_kernel(64, config)
    for kernel in (plain, fast):
        for replica in (0, 1):
            kernel.schedule_flip(300, "sram", site // 4, replica, 21)
    assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
    _assert_same_run(plain, fast)
    assert fast.sram.banks[2][site // 4] == E.addi(7, 7, 3)
    assert 200 < fast.arch.regs[7].value < 3 * 200
    assert _made_for(fast, site)


def test_one_cache_serves_kernels_of_two_sram_sizes(monkeypatch):
    # A 64-row kernel and a full one run the same image in turn. The words they hold
    # are the same, so only a region's size check tells them apart: a region made for
    # one size declines the other's banks as changed code, and each kernel gets its
    # own regions.
    monkeypatch.setattr(pipeline, "_blocks", {})
    image, site = _site_loop(1)
    config = SystemConfig(image=image)
    for make in (lambda: _toy_kernel(64, config), lambda: Kernel(config)) * 2:
        plain, fast = make(), make()
        assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
        _assert_same_run(plain, fast)
        assert _made_for(fast, site)
    toy, full = _toy_kernel(64, config), Kernel(config)
    for region in pipeline._blocks.values():
        declined = [
            _call(region, _ANY_NEED, kernel.arch.regs, kernel.sram.banks[0]) is False
            for kernel in (toy, full)
        ]
        assert sorted(declined) == [False, True]


def test_a_pc_where_no_block_can_start_is_translated_once_per_code(monkeypatch):
    # The loop head of ``_csr_loop`` is a CSR read, fetched after the back edge's
    # bubble on each of its 40 passes. Its region has no blocks and declines every
    # call while the word is unchanged, so three kernels translate it once. A store
    # that patches it to another CSR read makes it translated again.
    monkeypatch.setattr(pipeline, "_blocks", {})
    translated = collections.Counter()
    translate = regions.translate

    def counted(pc, bank):
        translated[pc] += 1
        return translate(pc, bank)

    monkeypatch.setattr(regions, "translate", counted)
    image, head = _csr_loop(), 8
    assert int.from_bytes(image[head:head + 4], "little") == E.csrrs(5, CSR_CYCLE)
    for patch in (None, None, None, E.csrrs(5, CSR_INSTRET)):
        plain, fast = make_kernel(image), make_kernel(image)
        if patch is not None:
            for kernel in (plain, fast):
                kernel.bus.write(head, patch, 4)
        assert _fast_outcome(fast, None) == _stepped_outcome(plain, None) is None
        _assert_same_run(plain, fast)
        if patch is None:
            assert translated[head] == 1
            assert set(translated.values()) == {1}  # no pc twice while its code is the same
    assert translated[head] == 2


def test_regions_are_compiled_as_block_functions_of_regions_py(monkeypatch):
    # so a profile shows region time in the translator's file, one function per region
    monkeypatch.setattr(pipeline, "_blocks", {})
    make_kernel(_nested_loops()).run()
    assert pipeline._blocks
    for pc, region in pipeline._blocks.items():
        assert os.path.basename(region.__code__.co_filename) == "regions.py"
        assert region.__code__.co_name == f"block_{pc:x}"


def test_the_translator_is_imported_at_the_first_translation():
    # The acceptance program's loop makes 10 passes, fewer than _HOT_ENTRIES, so one
    # run of it in a fresh process makes no region and compiles no translator; a
    # second run makes its loop's region.
    assert 10 < pipeline._HOT_ENTRIES <= 2 * 10
    image = acceptance_program().assemble().hex()
    code = (
        "import sys\n"
        "import tmrv32, tmrv32.seu, tmrv32.cli\n"
        "from tmrv32 import pipeline\n"
        "from tmrv32.kernel import Kernel, SystemConfig\n"
        f"config = SystemConfig(image=bytes.fromhex({image!r}))\n"
        "assert Kernel(config).run().halt == 'ebreak'\n"
        "assert 'tmrv32.regions' not in sys.modules, 'imported with no region made'\n"
        "assert Kernel(config).run().halt == 'ebreak'\n"
        "assert pipeline._blocks and 'tmrv32.regions' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _nested_region(monkeypatch):
    """The region of ``_nested_loops``, made by a run from an empty cache, its pc, and
    checkpoints at a cycle past 300 with X idle and its first instruction to be fetched
    (``pending``), and one cycle later with it latched (``start``)."""
    monkeypatch.setattr(pipeline, "_blocks", {})
    image = _nested_loops()
    make_kernel(image).run()  # makes the loop's region
    ((pc, region),) = pipeline._blocks.items()
    plain = make_kernel(image)
    while plain.cycle < 300 or plain.pipeline.fl_valid.value or plain.arch.pc.value != pc:
        plain.step_cycle()
    pending = plain.checkpoint()
    plain.step_cycle()
    assert plain.pipeline.fl_pc.value == pc
    return image, pc, region, pending, plain.checkpoint()


def _call_at(image, checkpoint, region, budget, banks=lambda banks: banks):
    """Call ``region`` with ``budget`` in a kernel resumed from ``checkpoint``, with
    ``banks`` of that kernel's SRAM banks."""
    kernel = make_kernel(image)
    kernel.resume(checkpoint)
    return region(budget, kernel.arch.regs, *banks(kernel.sram.banks))


def test_a_region_stops_at_every_span_end(monkeypatch):
    # With the cache warm, spans of every length over two outer passes stop the
    # region at each of its block entries in turn. They start at ``pending`` or at
    # ``start``, where no region starts: a region is entered only at the fetch after
    # an idle X. A call with a span its first block does not fit returns None at once,
    # and every other call runs cycles.
    image, pc, region, pending, start = _nested_region(monkeypatch)
    # the need: the smallest budget that runs from the start
    need = next(b for b in range(1, _ANY_NEED) if _call_at(image, start, region, b))

    def counted(budget, *args):
        calls.append((n, budget, region(budget, *args)))
        return calls[-1][2]

    pipeline._blocks[pc] = counted
    runs = {}
    for name, origin in (("pending", pending), ("start", start)):
        calls = runs[name] = []  # (span, budget, what the region returned)
        plain = make_kernel(image)
        plain.resume(origin)
        for n in range(1, 100):
            plain.step_cycle()
            fast = make_kernel(image)
            fast.resume(origin)
            fast.run_cycles(n)
            _assert_same_run(plain, fast)
        assert all(done if budget >= need else done is None for _, budget, done in calls)
    assert sum(budget >= need for _, budget, _ in runs["pending"]) > 90
    assert all(budget < n for n, budget, _ in runs["start"])  # never the span's first cycle


def test_a_region_checks_its_need_before_its_code(monkeypatch):
    # A budget one below the need returns None without a look at the banks, so a bank
    # of another SRAM size or a changed word makes no difference; at the need, the
    # region runs, and declines either bank as code it was not made from.
    image, _, region, _, start = _nested_region(monkeypatch)
    need = next(b for b in range(1, _ANY_NEED) if _call_at(image, start, region, b))

    def short(banks):
        return [bank[:64] for bank in banks]

    def changed(banks):
        banks[0][2] ^= 1  # in the loop's rows
        return banks

    for banks in (short, changed):
        assert _call_at(image, start, region, need - 1, banks) is None
        assert _call_at(image, start, region, need, banks) is False
    assert isinstance(_call_at(image, start, region, need), tuple)


class _CheckedBlocks(dict):
    """A translation cache whose regions check that a call that does not run changes
    no register and no SRAM word, and log each call's budget, what it returned and
    whether it stayed: it would run no cycle with a budget at least its need."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def __setitem__(self, pc, region):
        def checked(budget, regs, *banks):
            before = [r.value for r in regs], [bank[:] for bank in banks]
            stayed = _call(region, _ANY_NEED, regs, banks[0]) is None
            done = region(budget, regs, *banks)
            if not done:
                assert ([r.value for r in regs], [bank[:] for bank in banks]) == before
            self.calls.append((budget, done, stayed))
            return done

        super().__setitem__(pc, checked)


@pytest.mark.parametrize("program", sorted(QUIET_PROGRAMS))
def test_no_region_is_called_with_a_span_its_first_block_does_not_fit(monkeypatch, program):
    # A region called with such a span declines it: it returns None and changes
    # nothing (``_CheckedBlocks`` checks every call). Runs chopped into spans of 1 to
    # 12 cycles, with the cache warm from a whole run, make most such calls.
    image, max_cycles, raises = QUIET_PROGRAMS[program]
    config = SystemConfig(image=image(), max_cycles=max_cycles)
    blocks = _CheckedBlocks()
    monkeypatch.setattr(pipeline, "_blocks", blocks)
    outcome = _fast_outcome(Kernel(config), None)
    assert (outcome and outcome[0]) == raises
    if program == "mmio-in-block" or program.startswith("patch-"):
        # A region is entered only at the fetch after an idle X, never where another
        # stayed before an MMIO access or a store into its own rows, so in a whole
        # run none stays at once.
        assert blocks.calls and not any(stayed for _, _, stayed in blocks.calls)
    rng = np.random.default_rng(len(program))
    plain, fast = Kernel(config), Kernel(config)
    for n in rng.integers(1, 13, size=max_cycles):
        outcome = _fast_outcome(fast, int(n))
        assert _stepped_outcome(plain, plain.cycle + int(n)) == outcome
        if outcome or fast.halted is not None:
            break
    _assert_same_run(plain, fast)


# The hot loops of QUIET_PROGRAMS the reference model can run: "loop" touches GPIO.
REFERENCE_REGION_PROGRAMS = [
    *(f"looped-random-{seed}" for seed in range(3)),
    "patch-own-block", "patch-next-block", "patch-far-block",
    "nested-loops", "long-body", "load-lanes",
]


@pytest.mark.parametrize("program", REFERENCE_REGION_PROGRAMS)
def test_loads_in_a_region_match_the_reference_model(monkeypatch, program):
    # The per-cycle loop and regions take a load's result from one rule
    # (isa._LOAD), so only the independent model checks that rule where loads run
    # in a region.
    blocks = _CheckedBlocks()
    monkeypatch.setattr(pipeline, "_blocks", blocks)
    image = QUIET_PROGRAMS[program][0]()
    assert run_kernel(image) == run_reference(image)
    assert any(done for _, done, _ in blocks.calls)  # the loop ran as a region


def test_a_loop_closing_on_the_last_word_of_sram_takes_its_branch_in_its_region(monkeypatch):
    # The fetch after the closing ``bne`` at 0x7FFC would fault, so the region leaves
    # before that branch only when it is not taken; the per-cycle loop then runs it and
    # raises. Every taken pass runs in the region, so one call runs most of the run.
    blocks = _CheckedBlocks()
    monkeypatch.setattr(pipeline, "_blocks", blocks)
    image, max_cycles, raises = QUIET_PROGRAMS["sram-end"]
    config = SystemConfig(image=image(), max_cycles=max_cycles)
    plain, fast = Kernel(config), Kernel(config)
    outcome = _fast_outcome(fast, None)
    assert outcome == _stepped_outcome(plain, None)
    assert outcome[0] is raises and "0x00008000" in outcome[1]
    _assert_same_run(plain, fast)
    assert len(blocks.calls) <= 2
    assert sum(done[0] for _, done, _ in blocks.calls if done) > 450


# Programs whose upset runs leave no span a region can run, with or without a stream:
# the random programs halt after about 33 cycles with an upset every few cycles, and
# load-lanes' first upset dirties an SRAM row the scrubber reaches only after the
# run has crashed (a dirty row turns regions off).
NO_QUIET_SPAN_WITH_FLIPS = {"random-0", "random-1", "random-2", "load-lanes"}


@pytest.mark.parametrize("program", sorted(QUIET_PROGRAMS))
def test_a_default_run_keeps_the_stream_and_still_runs_regions(monkeypatch, program):
    # Every run keeps its event stream: a default run's is a recorded run's without
    # the Retire records, and keeping it costs the default run no region.
    image, max_cycles, _ = QUIET_PROGRAMS[program]
    blocks = _CheckedBlocks()
    monkeypatch.setattr(pipeline, "_blocks", blocks)
    for _ in range(pipeline._HOT_ENTRIES):  # straight-line code is entered once a run
        clean = Kernel(SystemConfig(image=image(), max_cycles=max_cycles))
        _fast_outcome(clean, None)
    runs = []
    for record_events in (False, True):
        blocks.calls.clear()
        config = SystemConfig(image=image(), max_cycles=max_cycles, record_events=record_events)
        kernel = Kernel(config)
        _schedule_running_flips(kernel, np.random.default_rng(clean.cycle), clean.cycle)
        runs.append((kernel, _fast_outcome(kernel, None), list(blocks.calls)))
    (default, outcome, calls), (recorded, recorded_outcome, recorded_calls) = runs
    assert outcome == recorded_outcome
    assert any(type(r) is not Retire for r in default.sink)
    assert default.sink == [r for r in recorded.sink if type(r) is not Retire]
    assert not recorded_calls  # Retire records keep every cycle on the per-cycle path
    if program not in NO_QUIET_SPAN_WITH_FLIPS:
        assert any(done for _, done, _ in calls)


class _NoBlocks(dict):
    def get(self, pc, default=None):
        raise AssertionError(f"a block was looked up at {pc:#x}")


def test_step_cycle_never_runs_a_block(monkeypatch):
    image, _ = _site_loop(1)
    make_kernel(image).run()  # makes the loop's blocks
    monkeypatch.setattr(pipeline, "_blocks", _NoBlocks())
    with pytest.raises(AssertionError, match="a block was looked up"):
        make_kernel(image).run()
    plain, stepped = make_kernel(image), make_kernel(image, record_events=True)
    for kernel in (plain, stepped):
        while kernel.halted is None:
            kernel.step_cycle()
    stepped.run_cycles(500)  # Retire records keep every span per cycle too
    assert plain.result().halt == "ebreak"


def test_a_flip_before_the_current_cycle_is_a_config_error():
    kernel = make_kernel(_loop_then(E.ebreak()))
    kernel.run_cycles(10)
    with pytest.raises(ConfigError, match="flip cycle 5 "):
        kernel.schedule_flip(5, "cell", "core.x7", 0, 3)
    assert kernel.settled()
    kernel.schedule_flip(10, "cell", "core.x7", 0, 3)  # due now: it lands
    kernel.run_cycles(5)
    assert kernel.sink[0] == Flip(10, "core.x7", 0, 3, False)
    assert kernel.settled()


def _with_misc(blob, **fields):
    """``blob`` with the named misc fields replaced."""
    off = _misc_offset(blob)
    misc = json.loads(blob[off + 4 :])
    raw = json.dumps({**misc, **fields}, sort_keys=True).encode()
    return blob[:off] + struct.pack("<I", len(raw)) + raw


@pytest.mark.parametrize(
    "entry, message",
    [
        ([5, "mid-cycle", "cell", "core.x7", 0, 3], "flip cycle 5 is before the current cycle 10"),
        ([15, "mid-cycle", "cell", "core.nope", 0, 3], "no such element 'core.nope'"),
        ([15, "edge-aligned", "sram", 9, 0, 3], "SRAM injections are phase-independent"),
        ([15, "mid-cycle", "cell", "core.x7", 0, 32], "bit 32 out of range"),
        ([15, "mid-cycle", "cell", "core.x7", 0], "missing 1 required"),  # no bit
    ],
)
def test_restore_rejects_a_flip_that_schedule_flip_rejects(entry, message):
    source = make_kernel(acceptance_program())
    source.schedule_flip(20, "cell", "core.x9", 1, 2)
    source.run_cycles(10)
    blob = source.snapshot()
    kernel = make_kernel(acceptance_program())
    kernel.schedule_flip(30, "sram", 44, 0, 1)
    kernel.run_cycles(25)
    before = kernel.snapshot()
    bad = _with_misc(blob, fault_schedule=[entry, [20, "mid-cycle", "cell", "core.x9", 1, 2]])
    with pytest.raises(ConfigError, match=r"snapshot fault_schedule entry \[") as info:
        kernel.restore(bad)
    assert message in str(info.value) and repr(entry[3]) in str(info.value)
    assert kernel.snapshot() == before
    with pytest.raises(ConfigError):
        Kernel.from_snapshot(bad)
    # a flip due at the snapshot's own cycle still lands
    kernel.restore(_with_misc(blob, fault_schedule=[[10, "mid-cycle", "cell", "core.x7", 0, 3]]))
    kernel.run_cycles(5)
    assert kernel.settled() and kernel.counters.totals[Domain.CORE] == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("edge_queue", [["cell", "core.nope", 0, 3]], "edge_queue entry .*no such element"),
        ("fetch_stalls", "x", "fetch_stalls"),
        ("gpio_inputs", None, "gpio_inputs"),
        ("uart_rx_cursor", -3, "uart_rx_cursor"),
        ("halted", 5, "halted"),
    ],
    ids=["edge-queue-target", "fetch-stalls", "gpio-inputs", "uart-rx-cursor", "halted"],
)
def test_restore_rejects_a_misc_value_that_snapshot_never_writes(field, value, message):
    source = make_kernel(acceptance_program())
    source.run_cycles(50)
    bad = _with_misc(source.snapshot(), **{field: value})
    kernel = make_kernel(acceptance_program())
    kernel.schedule_flip(30, "sram", 44, 0, 1)
    kernel.run_cycles(25)
    before = kernel.snapshot()
    with pytest.raises(ConfigError, match=message):
        kernel.restore(bad)
    assert kernel.snapshot() == before
    with pytest.raises(ConfigError):
        Kernel.from_snapshot(bad)


def test_restore_takes_an_edge_queue_and_misc_values_at_their_limits():
    source = make_kernel(acceptance_program(), stimulus=(("uart-rx", 5, 0x41),))
    source.run_cycles(50)
    blob = _with_misc(source.snapshot(), edge_queue=[["cell", "core.x7", 0, 3]],
                      uart_rx_cursor=1, gpio_inputs=(1 << 27) - 1, halted="ebreak")
    kernel = Kernel.from_snapshot(blob)
    assert kernel.halted == "ebreak" and kernel.gpio.input_levels == (1 << 27) - 1
    kernel.run_cycles(1)
    assert kernel.sink[0] == Flip(50, "core.x7", 0, 3, False)


def test_restore_takes_a_fault_schedule_in_any_order():
    straight = make_kernel(acceptance_program())
    straight.run_cycles(10)
    blob = straight.snapshot()
    straight.schedule_flip(30, "cell", "core.x7", 0, 3)
    straight.schedule_flip(15, "cell", "core.x8", 0, 3)
    straight.run_cycles(1000)
    kernel = make_kernel(acceptance_program())
    kernel.restore(_with_misc(blob, fault_schedule=[
        [30, "mid-cycle", "cell", "core.x7", 0, 3], [15, "mid-cycle", "cell", "core.x8", 0, 3],
    ]))
    kernel.run_cycles(1000)
    flips = [rec for rec in kernel.sink if type(rec) is Flip]
    assert [(f.cycle, f.target) for f in flips] == [(15, "core.x8"), (30, "core.x7")]
    assert kernel.settled()
    assert kernel.snapshot() == straight.snapshot()


def _schedule_around_200(kernel):
    kernel.schedule_flip(260, "cell", "core.x7", 0, 3)
    kernel.schedule_flip(120, "sram", 9, 1, 4)
    kernel.schedule_flip(220, "cell", "periph.gpio_out", 2, 1)
    kernel.schedule_flip(220, "cell", "core.x8", 1, 5, phase=EDGE_ALIGNED)


def test_resumed_schedules_hold_nothing_before_the_resume_cycle():
    gpio = (("gpio-in", 30, 3, 1), ("gpio-in", 150, 3, 0), ("gpio-in", 250, 4, 1))
    config = SystemConfig(image=acceptance_program().assemble(), stimulus=gpio)
    straight, source = Kernel(config), Kernel(config)
    for kernel in (straight, source):
        _schedule_around_200(kernel)
    straight.run_cycles(500)
    source.run_cycles(200)
    resumed, restored = Kernel(config), Kernel(config)
    resumed.resume(source.checkpoint())
    restored.restore(source.snapshot())
    for kernel in (resumed, restored):
        assert kernel.gpio.inputs[kernel.gpio.cursor :] == [(250, 4, 1)]
        assert [e[0] for e in kernel._fault_schedule] == [220, 220, 260]
        kernel.run_cycles(300)
        assert kernel.gpio.input_levels == straight.gpio.input_levels
        assert kernel.result() == straight.result()
        assert kernel.snapshot() == straight.snapshot()


def test_flips_scheduled_out_of_cycle_order_build_the_same_schedule():
    calls = [
        (220, "cell", "core.x9", 0, 2), (240, "sram", 9, 1, 4), (240, "cell", "core.x8", 2, 0),
        (240, "cell", "core.x8", 2, 0), (260, "cell", "core.x7", 0, 3),
    ]
    ascending, descending = make_kernel(acceptance_program()), make_kernel(acceptance_program())
    for call in calls:
        ascending.schedule_flip(*call)
    for cycle in sorted({call[0] for call in calls}, reverse=True):
        for call in calls:
            if call[0] == cycle:
                descending.schedule_flip(*call)
    fault_schedule = ascending._misc_state()["fault_schedule"]
    assert fault_schedule == descending._misc_state()["fault_schedule"]
    assert [e[0] for e in fault_schedule] == [220, 240, 240, 240, 260]
    assert fault_schedule[1:4] == tuple((240, MID_CYCLE, *call[1:]) for call in calls[1:4])


def test_snapshot_keeps_scheduled_flips():
    config = SystemConfig(image=acceptance_program().assemble())
    straight = Kernel(config)
    straight.schedule_flip(50, "cell", "core.x5", 0, 3)
    straight.run()
    first = Kernel(config)
    first.schedule_flip(50, "cell", "core.x5", 0, 3)
    first.run_cycles(10)
    resumed = Kernel.from_snapshot(first.snapshot())
    resumed.run()
    assert straight.counters.totals[Domain.CORE] == 1
    assert resumed.counters.totals[Domain.CORE] == 1
    assert resumed.snapshot() == straight.snapshot()


def test_snapshot_keeps_record_events():
    kernel = make_kernel(acceptance_program(), record_events=True)
    kernel.run_cycles(20)
    resumed = Kernel.from_snapshot(kernel.snapshot())
    assert resumed.config.record_events and resumed.sink == []
    assert resumed.snapshot() == kernel.snapshot()


def test_snapshot_config_stays_valid_when_resume_flips_record_events():
    recording = make_kernel(acceptance_program(), record_events=True)
    recording.run_cycles(20)
    quiet = make_kernel(acceptance_program())
    quiet.resume(recording.checkpoint())
    assert quiet.config.record_events
    blob = quiet.snapshot()
    (cfg_len,) = struct.unpack_from("<I", blob, 18)
    fresh = json.dumps(quiet.config.to_dict(include_image=False), sort_keys=True).encode()
    assert blob[22 : 22 + cfg_len] == fresh and blob == recording.snapshot()
    quiet.restore(recording.snapshot())
    assert quiet.snapshot() == recording.snapshot()
    recording.restore(make_kernel(acceptance_program()).snapshot())  # and the flag back off
    assert not recording.config.record_events


def _upset_kernel(config, cycles, flips):
    """A kernel run ``cycles`` cycles with ``flips``, (cycle, kind, key, replica, bit) each."""
    kernel = Kernel(config)
    for flip in flips:
        kernel.schedule_flip(*flip)
    kernel.run_cycles(cycles)
    return kernel


def test_resume_sets_banks_and_dirty_rows_as_restore_does():
    # A clean checkpoint holds one bytes object three times and a dirty one three, so
    # resume copies them differently; restore's banks are three slices of the bytes.
    config = SystemConfig(image=acceptance_program().assemble())
    clean = _upset_kernel(config, 40, [])
    dirty = _upset_kernel(config, 40, [(30, "sram", 700, 2, 9), (39, "cell", "core.x6", 1, 4)])
    assert not clean.sram.dirty and dirty.sram.dirty == {700} and dirty.dirty
    for source, upsets in (
        (clean, [(10, "sram", 800, 1, 1), (11, "sram", 801, 2, 3), (12, "cell", "core.x9", 2, 5)]),
        (dirty, []),
    ):
        checkpoint, blob = source.checkpoint(), source.snapshot()
        resumed, restored = (_upset_kernel(config, 13, upsets) for _ in range(2))
        assert bool(resumed.sram.dirty) == bool(resumed.dirty) == bool(upsets)
        resumed.resume(checkpoint)
        restored.restore(blob)
        banks = [bank.tobytes() for bank in source.sram.banks]
        assert [bank.tobytes() for bank in resumed.sram.banks] == banks
        assert [bank.tobytes() for bank in restored.sram.banks] == banks
        assert resumed.sram.dirty == restored.sram.dirty == source.sram.dirty
        assert resumed.snapshot() == restored.snapshot() == blob
        for kernel in (source, resumed, restored):  # each upset lands in one replica
            kernel.schedule_flip(kernel.cycle + 2, "sram", 701, 1, 3)
            kernel.run_cycles(30)
        assert resumed.snapshot() == restored.snapshot() == source.snapshot()


def _misc_offset(blob):
    """Offset of a snapshot's misc JSON length field (docs/formats.md)."""
    (cfg_len,) = struct.unpack_from("<I", blob, 18)
    off = 22 + cfg_len
    (cells,) = struct.unpack_from("<I", blob, off)
    off += 4 + 12 * cells
    (rows,) = struct.unpack_from("<I", blob, off)
    return off + 4 + 12 * rows


def _as_version_1(blob):
    """Rewrite a version-2 snapshot as version 1 (no schedule, no record flag)."""
    off = _misc_offset(blob)
    misc = json.loads(blob[off + 4 :])
    del misc["fault_schedule"], misc["record_events"]
    misc_blob = json.dumps(misc, sort_keys=True).encode()
    head = SNAPSHOT_MAGIC + struct.pack("<H", 1) + blob[10:off]
    return head + struct.pack("<I", len(misc_blob)) + misc_blob


def test_snapshot_version_1_still_reads():
    kernel = make_kernel(acceptance_program())
    kernel.schedule_flip(15, "sram", 9, 1, 4)
    kernel.run_cycles(40)
    blob = kernel.snapshot()
    assert struct.unpack_from("<H", blob, 8) == (2,)
    old = Kernel.from_snapshot(_as_version_1(blob))
    assert not old._fault_schedule and old.sink == []
    assert old.snapshot() == blob
    old.run()
    kernel.run()
    assert old.result() == kernel.result()


def test_restore_into_a_used_kernel_equals_from_snapshot():
    config = SystemConfig(
        image=acceptance_program().assemble(), record_events=True,
        stimulus=(("gpio-in", 30, 2, 1), ("uart-rx", 40, 0x55), ("gpio-in", 150, 2, 0)),
    )
    source = Kernel(config)
    source.schedule_flip(70, "cell", "core.x6", 1, 4, phase=EDGE_ALIGNED)
    source.schedule_flip(90, "sram", 12, 2, 9)
    source.run_cycles(72)
    assert source.registry["core.x6"].discrepancy  # restore must mark it dirty
    blob = source.snapshot()
    used = Kernel(config)
    used.schedule_flip(20, "cell", "core.x3", 0, 1)
    used.run_cycles(200)  # past every stimulus event, with flips of its own
    used.restore(blob)
    fresh = Kernel.from_snapshot(blob)
    assert used.snapshot() == fresh.snapshot() == blob
    assert used.sink == fresh.sink == []
    assert used.dirty == {used.registry["core.x6"]} and fresh.dirty == {fresh.registry["core.x6"]}
    used.run_cycles(300)
    fresh.run_cycles(300)
    source.run_cycles(300)
    assert used.snapshot() == fresh.snapshot() == source.snapshot()
    assert used.sink == fresh.sink


def test_resumed_checkpoint_is_byte_identical_and_unaliased():
    config = SystemConfig(
        image=acceptance_program().assemble(), record_events=True,
        stimulus=(("uart-rx", 30, 0x41), ("gpio-in", 60, 3, 1), ("uart-rx", 250, 0x42)),
    )
    source, other = Kernel(config), Kernel(config)
    rng = np.random.default_rng(12)
    names = list(source.registry)
    for cycle in range(2, 380, 3):
        key = names[int(rng.integers(len(names)))]
        phase = EDGE_ALIGNED if cycle % 2 else MID_CYCLE
        source.schedule_flip(cycle, "cell", key, cycle % 3, 0, phase=phase)
        if cycle % 4 == 2:  # just ahead of the scrubber, so rows are clean in between
            source.schedule_flip(cycle, "sram", cycle + int(rng.integers(8)), cycle % 3, 5)
    plain = Kernel(config)  # single-replica upsets leave the program's timing alone
    plain.run()
    transmits = [cycle - 1 for cycle, _ in plain.uart.tx_log]
    checks = sorted({*transmits, *(int(c) for c in rng.choice(400, 100, replace=False))})
    seen = dict(cells=0, rows=0, clean_rows=0, edge=0, increments=0, transmits=0)
    for cycle in checks:
        source.run_cycles(max(0, cycle - source.cycle))
        transmitted = len(source.uart.tx_log)
        seen["cells"] += bool(source.dirty)
        seen["rows"] += bool(source.sram.dirty)
        seen["clean_rows"] += not source.sram.dirty
        seen["edge"] += bool(source._edge_queue)
        seen["increments"] += bool(source.counters.pending)
        checkpoint = source.checkpoint()
        blob = source.snapshot()
        other.resume(checkpoint)
        assert other.snapshot() == blob
        steps = int(rng.integers(1, 4))
        for kernel in (source, other):
            kernel.run_cycles(steps)
        assert other.snapshot() == source.snapshot()
        seen["transmits"] += len(source.uart.tx_log) > transmitted
        # neither kernel's run may have changed the state the checkpoint holds
        other.resume(checkpoint)
        assert other.snapshot() == blob
    assert seen.pop("transmits") == len(transmits) == 2
    assert min(seen.values()) >= 10, seen


def test_restore_rejects_another_configuration():
    image = acceptance_program().assemble()
    blob = Kernel(SystemConfig(image=image)).snapshot()
    with pytest.raises(ConfigError):
        Kernel(SystemConfig(image=image, scrub_divider=2)).restore(blob)
    # a malformed snapshot of this configuration is rejected before anything changes
    kernel = make_kernel(acceptance_program())
    kernel.schedule_flip(20, "cell", "core.x6", 2, 1)
    kernel.schedule_flip(20, "sram", 40, 1, 6)
    kernel.run_cycles(21)
    before = kernel.snapshot()
    for name, data in _malformed_snapshots(_snapshot_at_cycle_40()):
        with pytest.raises(ConfigError):
            kernel.restore(data)
        assert kernel.snapshot() == before, name


def _snapshot_at_cycle_40():
    kernel = make_kernel(acceptance_program())
    kernel.schedule_flip(38, "cell", "core.x7", 0, 2)
    kernel.schedule_flip(39, "sram", 700, 2, 9)
    kernel.schedule_flip(60, "cell", "core.x8", 1, 3)
    kernel.run_cycles(40)
    return kernel.snapshot()


def _malformed_snapshots(blob):
    """(name, bytes) of snapshots of ``blob``'s configuration broken in one field each."""
    (cfg_len,) = struct.unpack_from("<I", blob, 18)
    cells_at = 22 + cfg_len
    rows_at = cells_at + 4 + 12 * struct.unpack_from("<I", blob, cells_at)[0]
    misc_at = _misc_offset(blob)
    misc = json.loads(blob[misc_at + 4 :])
    narrow = next(
        i for i, cell in enumerate(Kernel(SystemConfig()).registry.values()) if cell.width < 32
    )

    def put(at, fmt, *values):
        data = bytearray(blob)
        struct.pack_into(fmt, data, at, *values)
        return bytes(data)

    def with_misc(value):
        raw = json.dumps(value, sort_keys=True).encode()
        return blob[:misc_at] + struct.pack("<I", len(raw)) + raw

    cuts = {n: blob[:n] for n in (9, 15, 21, 100, cells_at + 2, rows_at + 2, len(blob) // 2,
                                  misc_at + 2, len(blob) - 5, len(blob) - 1)}
    cases = [(f"cut at {n}", data) for n, data in cuts.items()]
    cases += [
        ("trailing byte", blob + b"\0"),
        ("unsupported version", put(8, "<H", 3)),
        ("cell count", put(cells_at, "<I", 3)),
        ("SRAM rows", put(rows_at, "<I", 4096)),
        ("replica wider than its cell", put(cells_at + 4 + 12 * narrow + 4, "<I", 2)),
        ("config length", put(18, "<I", cfg_len + 1)),
        ("misc length", put(misc_at, "<I", len(blob) - misc_at)),
        ("misc not UTF-8", with_misc("x")[:-2] + b"\xff\""),
        ("misc not an object", with_misc([1, 2])),
        ("misc key missing", with_misc({k: v for k, v in misc.items() if k != "halted"})),
        ("misc key extra", with_misc({**misc, "spare": 0})),
        ("misc field malformed", with_misc({**misc, "edge_queue": 5})),
        ("misc domain unknown", with_misc({**misc, "event_totals": {"7": 1}})),
    ]
    return cases
