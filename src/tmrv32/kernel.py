"""Simulation kernel: cycle loop, phase ordering, reset, image loading, checkpoints, snapshots.

Each simulated cycle runs a fixed phase order, which is what makes the two fault
timing flavors and the scrubber's conflict rule well defined:

1. clock edge: dirty cells latch their voted value through the feedback path;
   the SEU counter block lands the increments it counted last cycle
   (``SeuCounterBank.edge``); the pipeline advances (latch writes); any
   edge-aligned flips queued last cycle corrupt the freshly latched state;
2. fault application: mid-cycle flips due this cycle land; edge-aligned flips due
   this cycle are queued for the next edge;
3. voting: every discrepant cell contributes one event for this cycle;
4. scrubber: one FSM step (subject to the cadence divider), including its
   write-conflict check against the row the core stored to this cycle; on a cycle
   without a step, a store into the row awaiting write-back is voted into the word
   it will write;
5. counter aggregation: the SEU counter block counts this cycle's events, each
   element once, as per-domain increments that land at the next edge
   (``SeuCounterBank.count``). An increment counted in a run's last cycle lands at
   an edge the run never reaches.

A mid-cycle flip is therefore discrepant for exactly one voting phase and is clean
again in the following cycle (latency 1); an edge-aligned flip lands one edge later
and is clean two cycles after its scheduled cycle (latency 2).

Event stream: ``Kernel.sink`` is a list, the one way to observe a run. Every
kernel keeps it: the kernel appends one typed record per event, and nothing in a
cycle without one:

* ``Flip(cycle, target, replica, bit, vote_changed)``: an upset landed;
* ``Discrepancy(cycle, domain, element, source)``: a voter saw replicas disagree,
  once per (domain, element, source) and cycle; ``source`` is ``"cell"`` (a
  cell's voter), ``"core-read"`` (a core-side SRAM read) or ``"scrub"`` (a
  scrubber write-back);
* ``Repair(cycle, target)``: a dirty cell or SRAM row became clean again, by
  edge refresh, a write, a scrub write-back or a flip that toggled a bit back;
* ``Retire(cycle, pc, raw)``, only with ``SystemConfig.record_events``; translated
  regions log no retirements, so a kernel with the flag runs every cycle through
  the per-cycle loop;
* ``Halt(cycle, cause)``.

A target is a cell's element id (a string) or an SRAM row (an integer). Records
are in cycle order, and the flips and repairs of one target are in the order they
happened, so the state of every target at the end of every cycle can be replayed
from the stream. A kernel starts with an empty stream, also when it resumes a
checkpoint or restores a snapshot: the stream is run metadata, not machine state,
and snapshots do not carry it.

``Kernel._advance`` is the one run loop. It holds the rule for when a run ends
(the program's halt, with SimTimeout at ``max_cycles``, or a fixed end cycle),
and ``run``, ``run_cycles`` and the campaign engine all call it.

Fast-forward: ``_advance`` hands every quiet span to ``_fast_forward``, which
skips the upset bookkeeping of its cycles. A span starts only if

* no cell is dirty, no counter increment is pending and the edge queue is empty;
* while the core runs, also no SRAM row is dirty and the scrubber (if enabled) is
  in its read phase with its pointer in range.

Then no cycle of the span can raise a discrepancy, so voting and counter
aggregation have nothing to do and every due scrub step is a clean read. A
running core's span is one ``Pipeline.advance`` call, the call ``step_cycle``
makes for its one cycle; on a halted core only the scrubber moves. One
``Scrubber.skip_clean`` call catches the scan up at the end, also when the
pipeline raises, and then the kernel stands at the cycle that raised. With stimulus,
the GPIO bank and the UART catch up there too, as ``step_cycle`` ticks them in phase 1:
flips land only in ``step_cycle``, so in between only a device read, which catches up
itself, sees their stimulus. A span stops

* at the end of the run or the call;
* at the next cycle with a scheduled flip (the fault schedule's head);
* at the halt, recorded with its ``Halt`` record;
* on a halted core, at the cycle whose scrub step would read a dirty row or write
  back (honouring ``scrub_divider``).

``step_cycle`` simulates the cycle a span stops at and stays the oracle: a span
must leave exactly the state and the event stream that single-stepping leaves.

One kernel instance is one single-threaded simulation; instances share nothing
but :mod:`tmrv32.pipeline`'s translation cache, whose regions check the SRAM size
and words they are given, and its hotness counts, so campaigns may run many in
parallel. A count lost to a race between threads delays a translation, never a result.
"""

import dataclasses
import hashlib
import json
import math
import os
import struct
from bisect import bisect_left
from collections import deque, namedtuple
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .errors import ConfigError, SimTimeout
from .isa import ArchState
from .memory import SRAM_SIZE, SramArray, SystemBus
from .peripherals import GPIO_PINS, GpioBank, SeuCounterBank, UartModel
from .pipeline import Pipeline
from .scrubber import PHASE_READ, Scrubber
from .tmr import Domain, vote3

SNAPSHOT_MAGIC = b"TMRV32SS"
SNAPSHOT_VERSION = 2

MID_CYCLE = "mid-cycle"
EDGE_ALIGNED = "edge-aligned"

# event stream records (see the module docstring)
Flip = namedtuple("Flip", "cycle target replica bit vote_changed")
Discrepancy = namedtuple("Discrepancy", "cycle domain element source")
Repair = namedtuple("Repair", "cycle target")
Retire = namedtuple("Retire", "cycle pc raw")
Halt = namedtuple("Halt", "cycle cause")

# complete machine state in memory (see Kernel.checkpoint)
Checkpoint = namedtuple("Checkpoint", "cycle values upsets banks misc")


@dataclass
class SystemConfig:
    """Everything a run needs; identical configs give identical runs."""

    image: bytes | str | None = None  # raw binary bytes, or a path to .bin / ELF
    image_base: int = 0
    entry_pc: int | None = None  # default: ELF entry point, else image_base
    freq_mhz: float = 50.0
    scrub_enabled: bool = True
    scrub_divider: int = 1
    max_cycles: int = 1_000_000
    stimulus: tuple = ()  # (("uart-rx", cycle, byte) | ("gpio-in", cycle, pin, level), ...)
    record_events: bool = False  # add Retire records to the event stream (see Kernel.sink)

    def __post_init__(self):
        image = self.image
        if not (image is None or isinstance(image, (bytes, bytearray, str, os.PathLike))):
            raise ConfigError(f"image must be bytes, a path or None, got {image!r}")
        if type(self.image_base) is not int or self.image_base < 0:
            raise ConfigError(f"image_base must be an integer >= 0, got {self.image_base!r}")
        entry = self.entry_pc
        if not (entry is None or type(entry) is int and 0 <= entry <= 0xFFFFFFFF):
            raise ConfigError(f"entry_pc must be None or an integer in 0..2^32-1, got {entry!r}")
        freq = self.freq_mhz
        if not isinstance(freq, (int, float)) or isinstance(freq, bool) or not 0 < freq < math.inf:
            raise ConfigError(f"freq_mhz must be a finite number > 0, got {self.freq_mhz!r}")
        if type(self.scrub_divider) is not int or self.scrub_divider < 1:
            raise ConfigError(f"scrub_divider must be an integer >= 1, got {self.scrub_divider!r}")
        if type(self.max_cycles) is not int or self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be an integer >= 1, got {self.max_cycles!r}")
        for name in ("scrub_enabled", "record_events"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        stimulus, sequence = self.stimulus, (list, tuple)
        if not isinstance(stimulus, sequence) or not all(isinstance(e, sequence) for e in stimulus):
            raise ConfigError(
                f"stimulus must be a list or tuple of lists or tuples, got {stimulus!r}"
            )
        for event in stimulus:
            kind, *values = event or (None,)
            if kind not in ("uart-rx", "gpio-in"):
                raise ConfigError(f"unknown stimulus event kind {kind!r}")
            arity = 2 if kind == "uart-rx" else 3
            if len(values) != arity or not all(type(v) is int for v in values):
                raise ConfigError(f"stimulus event {list(event)!r}: {kind} takes {arity} integers")
            if values[0] < 0:  # it would never land
                raise ConfigError(f"stimulus event {list(event)!r}: cycle {values[0]} is before 0")
            if kind == "uart-rx":
                if not 0 <= values[1] <= 0xFF:
                    raise ConfigError(f"stimulus event {list(event)!r}: byte is not in 0..255")
            elif not 0 <= values[1] < GPIO_PINS:
                raise ConfigError(f"no such GPIO pin {values[1]} (0..{GPIO_PINS - 1})")
            elif values[2] not in (0, 1):
                raise ConfigError(f"stimulus event {list(event)!r}: level is not 0 or 1")
        self.stimulus = tuple(map(tuple, stimulus))  # JSON arrays become tuples

    def to_dict(self):
        """The config as ``from_dict`` takes it: one key per field, with the image as
        ``image_hex`` if it is bytes, else as a path string or None."""
        d = dataclasses.asdict(self)
        image = d.pop("image")
        if isinstance(image, (bytes, bytearray)):
            d["image_hex"] = image.hex()
        else:
            d["image"] = image if image is None else os.fspath(image)
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"system config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        if "image" in d and "image_hex" in d:
            raise ConfigError("system config: image and image_hex are alternatives; give one")
        try:
            if "image_hex" in d:
                d["image"] = bytes.fromhex(d.pop("image_hex"))
            return cls(**d)
        except (TypeError, ValueError) as exc:  # the message names an unknown field
            raise ConfigError(f"system config: {exc}") from None


@dataclass
class RunResult:
    """A run's outcome; ``tmrv32 run``'s report is these fields, with ``counters`` as
    ``seu_counters``, plus ``schema_version``, ``sim_seconds_at_freq`` and ``uart_tx_hex``."""

    halt: str | None
    cycles: int
    retired: int
    counters: tuple
    fetch_stalls: int = 0
    branch_bubbles: int = 0
    fill_cycles: int = 0
    dmem_cycles: int = 0


def load_image(data, base=0):
    """Parse a program image into ((address, bytes), ...) segments plus an entry pc.

    ``data`` may be raw little-endian bytes placed at ``base``, a path to such a
    file, or an ELF32 executable whose loadable segments are extracted and placed
    at their physical addresses.
    """
    if isinstance(data, (str, os.PathLike)):
        data = Path(data).read_bytes()
    if data[:4] == b"\x7fELF":
        return _load_elf32(data)
    return ((base, bytes(data)),), base


def _load_elf32(blob):
    # EI_CLASS must be ELFCLASS32, EI_DATA little-endian, machine RISC-V (243).
    if len(blob) < 52:
        raise ConfigError("truncated ELF header")
    if blob[4] != 1 or blob[5] != 1:
        raise ConfigError("image must be a 32-bit little-endian ELF")
    (e_type, e_machine, _v, e_entry, e_phoff, _shoff, _flags, _ehsize, e_phentsize, e_phnum) = (
        struct.unpack_from("<HHIIIIIHHH", blob, 16)
    )
    if e_machine != 243:
        raise ConfigError(f"unsupported ELF machine {e_machine} (need RISC-V)")
    if e_phentsize != 32:
        raise ConfigError("unexpected ELF program header size")
    if e_phoff + 32 * e_phnum > len(blob):
        raise ConfigError("ELF program headers extend past end of file")
    segments = []
    for i in range(e_phnum):
        (p_type, p_offset, _vaddr, p_paddr, p_filesz, p_memsz, _pflags, _align) = (
            struct.unpack_from("<IIIIIIII", blob, e_phoff + 32 * i)
        )
        if p_type != 1 or p_memsz == 0:  # PT_LOAD only
            continue
        if not p_filesz <= p_memsz <= SRAM_SIZE:  # checked before the zero-fill allocates
            raise ConfigError(
                f"ELF segment at 0x{p_paddr:08x}: {p_memsz} bytes in memory, {p_filesz} in the "
                f"file (need file <= memory <= {SRAM_SIZE} bytes of SRAM)"
            )
        payload = blob[p_offset : p_offset + p_filesz]
        if len(payload) != p_filesz:
            raise ConfigError("ELF segment data extends past end of file")
        segments.append((p_paddr, payload + bytes(p_memsz - p_filesz)))
    if not segments:
        raise ConfigError("ELF contains no loadable segments")
    return tuple(segments), e_entry


def parse_stimulus(text):
    """Parse a cycle-stamped stimulus file into config events.

    Lines are ``<cycle> uart-rx <byte>`` or ``<cycle> gpio-in <pin> <0|1>``;
    ``#`` starts a comment. Bytes and pins accept decimal or 0x-prefixed hex. Values
    are checked, as in a config, by :class:`SystemConfig`.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            cycle = int(parts[0], 0)
            if parts[1] == "uart-rx" and len(parts) == 3:
                events.append(("uart-rx", cycle, int(parts[2], 0)))
            elif parts[1] == "gpio-in" and len(parts) == 4:
                events.append(("gpio-in", cycle, int(parts[2], 0), int(parts[3], 0)))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ConfigError(f"stimulus line {lineno}: cannot parse {line!r}") from None
    events.sort(key=lambda e: e[1])
    return tuple(events)


class Kernel:
    """One simulated system instance."""

    def __init__(self, config):
        self.config = config
        self.cycle = 0
        self.halted = None

        self.arch = ArchState()
        self.pipeline = Pipeline()
        self.sram = SramArray()
        self.scrubber = Scrubber(self.sram.rows)
        stimulus = config.stimulus  # checked by SystemConfig
        self.gpio = GpioBank(self.arch, [e[1:] for e in stimulus if e[0] == "gpio-in"])
        self.uart = UartModel(self.arch, [e[1:] for e in stimulus if e[0] == "uart-rx"])
        self.counters = SeuCounterBank()

        self.bus = SystemBus(self.sram, (self.gpio, self.uart, self.counters))

        parts = (self.arch, self.pipeline, self.scrubber, self.gpio, self.uart, self.counters)
        self.registry = {cell.element_id: cell for part in parts for cell in part.cells()}
        self.dirty = set()  # every cell whose replicas disagree, and maybe clean ones

        self.sink = []  # the event stream

        self._edge_queue = []  # (kind, key, replica, bit) landing at the next edge
        self._fault_schedule = deque()  # (cycle, phase, kind, key, replica, bit), cycle order

        if config.image is not None:
            segments, entry = load_image(config.image, config.image_base)
            for addr, payload in segments:
                if addr < 0 or addr + len(payload) > self.bus.end:
                    raise ConfigError(
                        f"segment at 0x{addr:08x} ({len(payload)} bytes) outside SRAM"
                    )
                self.sram.load_bytes(addr, payload)
            self.arch.pc.write(config.entry_pc if config.entry_pc is not None else entry)
        elif config.entry_pc is not None:
            self.arch.pc.write(config.entry_pc)

    def cells_in_domain(self, domain):
        return [c.element_id for c in self.registry.values() if c.domain == domain]

    def _log_retire(self, c, pc, ins):
        self.sink.append(Retire(c, pc, ins.raw))

    # ------------------------------------------------------------------
    # fault injection surface (used by the campaign engine and tests)
    # ------------------------------------------------------------------

    def schedule_flip(self, cycle, kind, key, replica, bit, phase=MID_CYCLE):
        """Queue one bit flip: ``kind`` is "cell" (key = element id) or "sram" (key = row).
        A flip due before the last scheduled cycle costs a rebuild of the schedule."""
        self._check_flip(self.cycle, cycle, phase, kind, key, replica, bit)
        schedule = self._fault_schedule
        schedule.append((cycle, phase, kind, key, replica, bit))
        if len(schedule) > 1 and cycle < schedule[-2][0]:  # keep the cycle order
            self._fault_schedule = deque(sorted(schedule, key=itemgetter(0)))

    def _check_flip(self, now, cycle, phase, kind, key, replica, bit):
        """ConfigError unless the flip is one that can land when scheduled at cycle ``now``."""
        _, width = self._flip_target(kind, key, phase)
        if not 0 <= bit < width:
            raise ConfigError(f"bit {bit} out of range for {key!r} (width {width})")
        if replica not in (0, 1, 2):
            raise ConfigError(f"replica must be 0..2, got {replica}")
        if phase not in (MID_CYCLE, EDGE_ALIGNED):
            raise ConfigError(f"unknown fault phase {phase!r}")
        if cycle < now:  # it would never land
            raise ConfigError(f"flip cycle {cycle} is before the current cycle {now}")

    def _flip_target(self, kind, key, phase):
        """(domain, width) of the element or SRAM row a flip may target, else ConfigError."""
        if kind == "cell":
            if key not in self.registry:
                raise ConfigError(f"no such element {key!r}")
            cell = self.registry[key]
            return cell.domain, cell.width
        if kind != "sram":
            raise ConfigError(f"unknown fault target kind {kind!r}")
        if not 0 <= key < self.sram.rows:
            raise ConfigError(f"SRAM row {key} out of range")
        if phase != MID_CYCLE:
            raise ConfigError("SRAM injections are phase-independent; use mid-cycle")
        return Domain.SRAM, 32

    def settled(self):
        """True iff no upset is outstanding: no dirty cell or SRAM row, no pending
        counter increment, and no flip queued for the next edge or scheduled."""
        return not (
            self.dirty or self.sram.dirty or self.counters.pending or self._edge_queue
            or self._fault_schedule
        )

    def _do_flip(self, kind, key, replica, bit):
        if kind == "cell":
            cell = self.registry[key]
            before = cell.value
            cell.flip(replica, bit)
            self.dirty.add(cell)
            after, dirty = cell.value, cell.discrepancy
        else:
            before = self.sram.read_voted(key)[0]
            self.sram.flip(key, replica, bit)
            after, dirty = self.sram.read_voted(key)
        self.sink.append(Flip(self.cycle, key, replica, bit, after != before))
        if not dirty:  # the flip toggled the last differing bit back
            self.sink.append(Repair(self.cycle, key))

    # ------------------------------------------------------------------
    # the cycle loop
    # ------------------------------------------------------------------

    def step_cycle(self):
        """Simulate one clock cycle in the fixed phase order."""
        c = self.cycle
        config = self.config
        sram, bus = self.sram, self.bus
        # A cycle makes at most one core store (phase 1) and one scrub write-back (phase
        # 4), and nothing else in those phases changes the exact ``sram.dirty``: where
        # it shrank across one of them, that access repaired its row.

        # phase 1: clock edge
        if self.dirty:
            refreshed = [cell.element_id for cell in self.dirty if cell.refresh()]
            self.dirty.clear()
            if refreshed:
                self.sink.extend(Repair(c, key) for key in sorted(refreshed))
        self.counters.edge()
        events = bus.events
        if events:
            events.clear()
        bus.last_store_row = None
        self.arch.cycle = c
        if config.stimulus:
            self.gpio.tick(c)
            self.uart.tick(c)
        halt = None
        if self.halted is None:  # the core stops at a halt; the scrubber never does
            retire = self._log_retire if config.record_events else None
            rows = len(sram.dirty)
            halt = self.pipeline.advance(self.arch, bus, c, c + 1, retire)[1]
            if len(sram.dirty) < rows:
                self.sink.append(Repair(c, bus.last_store_row))
        if self._edge_queue:
            for kind, key, replica, bit in self._edge_queue:
                self._do_flip(kind, key, replica, bit)
            self._edge_queue.clear()

        # phase 2: fault application
        schedule = self._fault_schedule
        while schedule and schedule[0][0] == c:
            _, phase, kind, key, replica, bit = schedule.popleft()
            if phase == EDGE_ALIGNED:
                self._edge_queue.append((kind, key, replica, bit))
            else:
                self._do_flip(kind, key, replica, bit)

        # phase 3: voting
        if self.dirty:
            for cell in self.dirty:
                if cell.discrepancy:
                    events.append((cell.domain, cell.element_id))

        # phase 4: scrubber
        written = cleaned = None
        if config.scrub_enabled and c % config.scrub_divider == 0:
            rows = len(sram.dirty)
            written = self.scrubber.step(sram, bus.last_store_row)
            if written is not None:
                events.append((Domain.SRAM, written))
                cleaned = len(sram.dirty) < rows
        elif config.scrub_enabled and bus.last_store_row is not None:
            self.scrubber.merge_store(sram, bus.last_store_row)

        # phase 5: counter aggregation (lands at the next edge)
        if events:
            self.counters.count(events)
            self._log_votes(c, events, written)
            if cleaned:  # the write-back repaired a dirty row
                self.sink.append(Repair(c, written))

        if halt is not None:
            self.halted = halt
            self.sink.append(Halt(c, halt))
        self.cycle = c + 1

    def _log_votes(self, c, events, written):
        """Append this cycle's discrepancy records (and the cell repairs phase 4 made).

        No record repeats: the core port makes one access per cycle (a fetch
        reads at most two rows), voting lists each dirty cell once, and the
        scrubber's write-back, if any, is the last event.
        """
        sink = self.sink
        events = events[:-1] if written is not None else events
        cells = []
        for domain, key in events:
            if type(key) is str:
                cells.append((key, domain))
            else:
                sink.append(Discrepancy(c, domain, key, "core-read"))
        for key, domain in sorted(cells):
            sink.append(Discrepancy(c, domain, key, "cell"))
            if not self.registry[key].discrepancy:  # the scrubber rewrote its own cell
                sink.append(Repair(c, key))
        if written is not None:
            sink.append(Discrepancy(c, Domain.SRAM, written, "scrub"))

    def run(self):
        """Run until the program halts; raise SimTimeout if it never does."""
        self._advance()
        return self.result()

    def run_cycles(self, n):
        """Run exactly ``n`` more cycles, no timeout semantics.

        A program halt stops the core, not the clock: the scrubber, counters,
        and fault schedule keep running for the remaining cycles. Quiet spans,
        before and after the halt, are fast-forwarded (see the module docstring).
        """
        self._advance(end=self.cycle + n)
        return self.result()

    def _advance(self, target=math.inf, end=None):
        """Run to cycle ``target`` or the end of the run, whichever comes first; True once
        the run is over. With ``end`` None it ends at the program's halt (SimTimeout at
        ``config.max_cycles``), otherwise at cycle ``end``. Quiet spans are fast-forwarded
        (see the module docstring)."""
        to_halt = end is None
        budget = self.config.max_cycles
        stop = min(target, budget if to_halt else end)
        while self.cycle < stop and not (to_halt and self.halted is not None):
            self._fast_forward(stop)
            if self.cycle >= stop or to_halt and self.halted is not None:
                break
            self.step_cycle()
        if not to_halt:
            return self.cycle >= end
        if self.halted is None and budget <= self.cycle < target:
            raise SimTimeout(budget)
        return self.halted is not None

    def _fast_forward(self, end):
        """Run a quiet span up to the next cycle that needs ``step_cycle`` or ``end``,
        skipping the upset bookkeeping (see the module docstring)."""
        if self.dirty or self.counters.pending or self._edge_queue:
            return
        config = self.config
        scrub = config.scrub_enabled
        scrubber = self.scrubber
        running = self.halted is None
        if running and (self.sram.dirty or scrub and (
            scrubber.phase.value != PHASE_READ or scrubber.row_ptr.value >= scrubber.rows
        )):
            return
        c = start = self.cycle
        stop = min(self._fault_schedule[0][0], end) if self._fault_schedule else end
        try:
            if not running:  # only the scrubber moves; skip_clean bounds the span
                c = stop
            elif c < stop:
                retire = self._log_retire if config.record_events else None
                c, halt = self.pipeline.advance(self.arch, self.bus, c, stop, retire)
                if halt is not None:
                    self.halted = halt
                    self.sink.append(Halt(c - 1, halt))
        except BaseException:
            c = self.arch.cycle  # the cycle that raised, whose phase 1 ticks the devices
            self.gpio.tick(c)
            self.uart.tick(c)
            raise
        finally:
            if scrub:
                c = scrubber.skip_clean(self.sram, start, c, config.scrub_divider)
            self.cycle = c
        if c > start:
            self.arch.cycle = c - 1
            if config.stimulus:
                self.gpio.tick(c - 1)
                self.uart.tick(c - 1)

    def result(self):
        p = self.pipeline
        return RunResult(
            halt=self.halted,
            cycles=self.cycle,
            retired=self.arch.retired,
            counters=self.counters.values(),
            fetch_stalls=p.fetch_stalls,
            branch_bubbles=p.branch_bubbles,
            fill_cycles=p.fill_cycles,
            dmem_cycles=p.dmem_cycles,
        )

    def activity_cycles(self):
        """Cycle mix for the power model's activity classes."""
        dmem = self.pipeline.dmem_cycles
        return {"sram": dmem, "register": self.cycle - dmem}

    # ------------------------------------------------------------------
    # golden-run comparison and snapshots
    # ------------------------------------------------------------------

    def architectural_signature(self):
        """State fingerprint for golden-run divergence checks.

        Counters and the event stream are deliberately excluded: they differ
        between a golden and a fault run by design.
        """
        return {
            "pc": self.arch.pc.value,
            "regs": tuple(self.arch.reg_values()),
            "retired": self.arch.retired,
            "cycles": self.cycle,
            "halt": self.halted,
            "sram": hashlib.sha256(self.sram.voted_bytes()).hexdigest(),
            "uart_tx": self.uart.tx_bytes().hex(),
            "gpio_out": self.gpio.out.value,
        }

    def _misc_state(self):
        """Machine state outside the cells and the SRAM banks, as a checkpoint holds it:
        ints, strings, None, tuples, and two dicts keyed by :class:`Domain`."""
        p = self.pipeline
        uart = self.uart
        return {
            "halted": self.halted,
            "idle_cause": p._idle_cause,
            "retired": self.arch.retired,
            "arch_retired": self.arch.retired,  # the same count, kept for the layout
            "fetch_stalls": p.fetch_stalls,
            "branch_bubbles": p.branch_bubbles,
            "fill_cycles": p.fill_cycles,
            "dmem_cycles": p.dmem_cycles,
            "gpio_inputs": self.gpio.input_levels,
            "uart_tx_log": tuple(uart.tx_log),
            "uart_rx_pending": tuple(uart.rx_pending),
            "uart_rx_cursor": uart.rx_cursor,
            "pending_increments": dict(self.counters.pending),
            "event_totals": dict(self.counters.totals),
            "edge_queue": tuple(self._edge_queue),
            "fault_schedule": tuple(self._fault_schedule),
            "record_events": self.config.record_events,
        }

    @staticmethod
    def _check_misc_values(misc):
        """ConfigError unless each misc value other than a flip list and the UART receive
        queue (which :meth:`restore` compares with the configuration's) has the type and
        range :meth:`_misc_state` gives it."""
        def count(v):
            return type(v) is int and v >= 0

        def log(v):  # (cycle, byte) pairs
            return all(len(e) == 2 and count(e[0]) and count(e[1]) and e[1] <= 0xFF for e in v)

        valid = {
            "halted": lambda v: v is None or type(v) is str,
            "idle_cause": lambda v: v in ("fill", "stall", "branch"),
            "gpio_inputs": lambda v: count(v) and not v >> GPIO_PINS,
            "uart_tx_log": log,
            "uart_rx_cursor": lambda v: count(v) and v <= len(misc["uart_rx_pending"]),
            "pending_increments": lambda v: all(map(count, v.values())),
            "event_totals": lambda v: v.keys() == set(Domain) and all(map(count, v.values())),
            "record_events": lambda v: type(v) is bool,
        }
        for name in ("retired", "arch_retired", "fetch_stalls", "branch_bubbles",
                     "fill_cycles", "dmem_cycles"):
            valid[name] = count
        for name, ok in valid.items():
            if not ok(misc[name]):
                raise ConfigError(f"snapshot misc field {name} is out of range: {misc[name]!r}")

    def checkpoint(self):
        """Complete machine state as a :class:`Checkpoint` that shares nothing with the
        kernel: the cycle, each cell's voted value in registry order, ``(index, (r0, r1,
        r2))`` in index order for each cell whose replicas disagree, the three SRAM banks
        (one bytes object three times while no row is dirty) and :meth:`_misc_state`.
        Values and upsets together give every cell's three replicas."""
        b0, b1, b2 = self.sram.banks
        if self.sram.dirty:
            banks = (b0.tobytes(), b1.tobytes(), b2.tobytes())
        else:
            banks = (b0.tobytes(),) * 3
        cells = self.registry.values()
        values = [cell.value for cell in cells]
        upsets = ()
        if self.dirty:
            upsets = tuple((i, cell.replicas) for i, cell in enumerate(cells) if cell.discrepancy)
        return Checkpoint(self.cycle, values, upsets, banks, self._misc_state())

    def resume(self, checkpoint):
        """Overwrite this kernel's state with a :meth:`checkpoint` of a kernel of the same
        configuration. Nothing is checked, not even values against cell widths: every
        cell takes its value, only the upset cells get three replicas, and they make up
        the dirty set. The checkpoint stays as it was, for any number of resumes. The event
        stream starts empty; ``record_events`` is taken from the checkpoint. The UART
        receive queue is the configuration's ``uart-rx`` stimulus, which no run changes,
        so it is not copied.

        A clean checkpoint costs one pass over the cells and one copy of bank 0, which
        the other banks then share (:meth:`SramArray.restore_banks`); a dirty one, three.
        """
        cycle, values, upsets, banks, misc = checkpoint
        for cell in self.dirty:
            cell.refresh()  # drop the replicas, so that assigning the value keeps it clean
        self.dirty.clear()
        cells = self.registry.values()
        for cell, value in zip(cells, values):
            cell.value = value
        if upsets:
            cells = tuple(cells)
            for index, replicas in upsets:
                cells[index].set_replicas(*replicas)
                self.dirty.add(cells[index])
        self.sram.restore_banks(banks)
        self.cycle = cycle
        self.halted = misc["halted"]
        p = self.pipeline
        p._idle_cause = misc["idle_cause"]
        self.arch.retired = misc["arch_retired"]
        p.fetch_stalls = misc["fetch_stalls"]
        p.branch_bubbles = misc["branch_bubbles"]
        p.fill_cycles = misc["fill_cycles"]
        p.dmem_cycles = misc["dmem_cycles"]
        self.gpio.input_levels = misc["gpio_inputs"]
        self.uart.tx_log = list(misc["uart_tx_log"])
        self.uart.rx_cursor = misc["uart_rx_cursor"]
        self.counters.pending = dict(misc["pending_increments"])
        self.counters.totals = dict(misc["event_totals"])
        self._edge_queue = list(misc["edge_queue"])
        self._fault_schedule = deque(misc["fault_schedule"])  # in cycle order, as listed
        self.gpio.cursor = bisect_left(self.gpio.inputs, cycle, key=itemgetter(0))
        self.uart.last_read = -1  # no read before this cycle holds a byte back
        record_events = misc["record_events"]
        if record_events != self.config.record_events:
            self.config = dataclasses.replace(self.config, record_events=record_events)
        self.sink = []

    def _config_json(self):
        """The configuration as a snapshot holds it: :meth:`SystemConfig.to_dict` without
        the image, which SRAM carries, and ``record_events``, which the misc JSON carries."""
        d = self.config.to_dict()
        for name in ("image", "image_hex", "record_events"):
            d.pop(name, None)
        return json.dumps(d, sort_keys=True).encode()

    def snapshot(self):
        """:meth:`checkpoint` in the snapshot byte layout of docs/formats.md: each cell's
        value three times, or its three replicas if it is upset."""
        cycle, values, upsets, banks, misc = self.checkpoint()
        words = list(chain.from_iterable(zip(values, values, values)))
        for index, replicas in upsets:
            words[3 * index : 3 * index + 3] = replicas
        cfg = self._config_json()
        blob = json.dumps(misc, sort_keys=True).encode()
        return b"".join((
            SNAPSHOT_MAGIC, struct.pack("<HQI", SNAPSHOT_VERSION, cycle, len(cfg)), cfg,
            struct.pack(f"<I{len(words)}I", len(values), *words),
            struct.pack("<I", self.sram.rows), *banks, struct.pack("<I", len(blob)), blob,
        ))

    @staticmethod
    def _snapshot_header(data):
        """(version, cycle, config JSON bytes, offset past them) of a snapshot."""
        if len(data) < 22 or data[:8] != SNAPSHOT_MAGIC:
            raise ConfigError("not a snapshot (bad magic or truncated header)")
        version, cycle, cfg_len = struct.unpack_from("<HQI", data, 8)
        if version not in (1, SNAPSHOT_VERSION):
            raise ConfigError(f"unsupported snapshot version {version}")
        cfg = data[22 : 22 + cfg_len]
        if len(cfg) != cfg_len:
            raise ConfigError("truncated snapshot config")
        return version, cycle, cfg, 22 + cfg_len

    @classmethod
    def from_snapshot(cls, data):
        """Rebuild a kernel from :meth:`snapshot` output (version 1 or 2).

        The memory image travels inside the snapshot (SRAM contents), so the
        rebuilt config has no ``image``. A version-1 snapshot carries no fault
        schedule and no ``record_events`` flag; both restore as empty/false.
        """
        try:
            cfg = json.loads(cls._snapshot_header(data)[2])
            cfg["image"] = None
            config = SystemConfig.from_dict(cfg)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"snapshot config is malformed: {exc}") from None
        kernel = cls(config)
        kernel.restore(data)
        return kernel

    def restore(self, data):
        """Overwrite this kernel's state with a :meth:`snapshot` of the same configuration.

        The snapshot is decoded into a checkpoint and resumed. The result is the
        kernel :meth:`from_snapshot` builds, without building one. Bytes that are
        not a whole, well-formed snapshot of this configuration raise ConfigError
        and leave the kernel as it was. The fault schedule may be listed in any order.
        """
        version, cycle, cfg, off = self._snapshot_header(data)
        if cfg != self._config_json():
            raise ConfigError("snapshot was taken under a different configuration")
        cells = self.registry.values()
        rows = self.sram.rows
        try:
            (n_cells,) = struct.unpack_from("<I", data, off)
            if n_cells != len(cells):
                raise ConfigError("snapshot cell count does not match this configuration")
            words = iter(struct.unpack_from(f"<{3 * n_cells}I", data, off + 4))
            off += 4 + 12 * n_cells
            if struct.unpack_from("<I", data, off) != (rows,):
                raise ConfigError("snapshot SRAM geometry does not match")
            off += 4
            banks = tuple(data[off + 4 * rows * i : off + 4 * rows * (i + 1)] for i in range(3))
            off += 12 * rows
            (misc_len,) = struct.unpack_from("<I", data, off)
            if len(data) != off + 4 + misc_len:
                raise ConfigError("snapshot length does not match its misc length")
            misc = json.loads(data[off + 4 :])
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"truncated or malformed snapshot: {exc}") from None
        values, upsets = [], []
        for index, (cell, replicas) in enumerate(zip(cells, zip(words, words, words))):
            r0, r1, r2 = replicas
            if (r0 | r1 | r2) & ~cell.mask:
                raise ConfigError(f"snapshot replica of {cell.element_id} exceeds its width")
            values.append(vote3(r0, r1, r2))
            if not r0 == r1 == r2:
                upsets.append((index, replicas))
        if version == 1 and isinstance(misc, dict):  # version 1 has neither field
            misc = {"fault_schedule": [], "record_events": False, **misc}
        if not isinstance(misc, dict) or misc.keys() != self._misc_state().keys():
            raise ConfigError("snapshot misc fields are not those of its version")
        try:
            # JSON has lists and string keys where a checkpoint has tuples and domains
            for name in ("uart_tx_log", "uart_rx_pending", "edge_queue", "fault_schedule"):
                misc[name] = tuple(map(tuple, misc[name]))
            for name in ("pending_increments", "event_totals"):
                misc[name] = {Domain(int(d)): n for d, n in misc[name].items()}
            flips = [("fault_schedule", e, e) for e in misc["fault_schedule"]]
            flips += [("edge_queue", e, (cycle, EDGE_ALIGNED, *e)) for e in misc["edge_queue"]]
            for name, entry, flip in flips:  # each must be one schedule_flip accepts
                try:
                    self._check_flip(cycle, *flip)
                except (ConfigError, TypeError) as exc:
                    raise ConfigError(f"snapshot {name} entry {list(entry)!r}: {exc}") from None
            self._check_misc_values(misc)
            if misc["retired"] != misc["arch_retired"]:
                raise ConfigError("snapshot misc fields retired and arch_retired differ")
            if misc["uart_rx_pending"] != tuple(self.uart.rx_pending):
                raise ConfigError("snapshot uart_rx_pending is not the configuration's uart-rx")
            # edited bytes may list it in any order; resume takes it in cycle order
            misc["fault_schedule"] = tuple(sorted(misc["fault_schedule"], key=lambda e: e[0]))
            self.resume(Checkpoint(cycle, values, tuple(upsets), banks, misc))
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"snapshot misc field is malformed: {exc}") from None
