"""Cycle-accurate timing overlay: 3-stage in-order pipeline with bridge arbitration.

Stages are fetch (F), decode/execute (X), and writeback (W). Two latch groups carry
state between them, all TMR cells: the fetch latch (valid, pc, raw encoding) and the
writeback latch (valid, rd, value). One instruction occupies each stage per cycle.

Timing model and its free parameters:

* The instruction and data buses share one SRAM port through the memory bridge;
  data accesses have strict priority, so a load or store in X stalls F for exactly
  one cycle. SRAM access itself is single-cycle.
* Control transfers (taken branches and all jumps) resolve in X and squash the
  fetch latch: one bubble cycle. Fetch is suppressed on the transfer cycle itself,
  since whatever F fetched would be squashed at the same edge anyway.
* MUL/DIV are single-cycle, and fetch pays no alignment penalty for 32-bit
  instructions straddling row boundaries. Real cores spend extra cycles on both,
  so benchmark figures calibrated against silicon carry a tolerance band.

Register commits flow through the writeback latch: an instruction's destination
write lands one edge after it executes. W runs before X within an edge, which
models a register file that writes in the first half-cycle and reads in the
second, so back-to-back dependent instructions never stall.

Accounting identity, asserted in tests: total cycles = retired instructions +
fetch-stall cycles + branch bubbles + fill cycles.

:meth:`Pipeline.advance` runs a whole span of cycles in one call, with the latch
values, the pc, the idle cause and the counters in locals; ``Kernel.step_cycle``
calls it with a one-cycle span and ``Kernel._fast_forward`` with a quiet span.
"""

from .errors import IllegalInstruction
from .isa import M32, decode, extend_load
from .tmr import Domain, TmrCell


class Pipeline:
    def __init__(self):
        self.fl_valid = TmrCell("core.fetch_valid", Domain.CORE, 1, 0)
        self.fl_pc = TmrCell("core.fetch_pc", Domain.CORE, 32, 0)
        self.fl_raw = TmrCell("core.fetch_raw", Domain.CORE, 32, 0)
        self.wl_valid = TmrCell("core.wb_valid", Domain.CORE, 1, 0)
        self.wl_rd = TmrCell("core.wb_rd", Domain.CORE, 5, 0)
        self.wl_value = TmrCell("core.wb_value", Domain.CORE, 32, 0)
        self.fetch_stalls = 0
        self.branch_bubbles = 0
        self.fill_cycles = 0
        self.dmem_cycles = 0  # cycles with an active data access (power activity mix)
        self._idle_cause = "fill"  # what an X-idle cycle is charged to

    def cells(self):
        yield self.fl_valid
        yield self.fl_pc
        yield self.fl_raw
        yield self.wl_valid
        yield self.wl_rd
        yield self.wl_value

    def advance(self, arch, bus, uart, c, stop, retire=None):
        """Simulate the cycles ``c`` .. ``stop - 1``, each a clock edge plus the cycle it
        opens, and return ``(next cycle, halt)``. The span ends early after a cycle
        whose instruction halts the machine; ``halt`` is then its reason string, else
        None. ``retire(cycle, pc, ins)``, if given, is called for each instruction
        executed. Bus faults and illegal instructions propagate as exceptions for the
        kernel's diagnostics.

        The six latch values, ``arch.pc``, the idle cause and the four counters live
        in locals during the span, and a ``finally`` stores them back, so a cycle that
        raises leaves them as of the raise. Stored every cycle are the committed
        register (``ins.run`` reads the registers), ``arch.cycle``, ``arch.retired``
        and ``uart.cycle`` (CSR reads and UART TX stamps read them), and
        ``bus.last_store_row = None``.

        Cells are stored by assigning ``value``, not through :meth:`TmrCell.write`.
        That is exact because every cell is clean here, from both of the kernel's
        callers: ``step_cycle`` refreshes every dirty cell before the pipeline advances
        and lands flips only after it, and ``_fast_forward`` runs only while no cell is
        dirty and stops before the next flip. Every value stored already fits its
        cell: results and pcs are masked to 32 bits, ``rd`` comes from decode and
        ``raw`` from ``fetch_window`` or an SRAM row.

        An aligned fetch inside SRAM reads bank 0 directly if no SRAM row is dirty when
        the call starts: only an upset makes a row dirty, and none lands during a call,
        so no such read would vote. Every other fetch goes through
        ``bus.fetch_window``, with its faults and discrepancy events.
        """
        fl_valid, fl_pc, fl_raw = self.fl_valid.value, self.fl_pc.value, self.fl_raw.value
        wl_valid, wl_rd, wl_value = self.wl_valid.value, self.wl_rd.value, self.wl_value.value
        next_pc = arch.pc.value
        idle = self._idle_cause
        stalls, bubbles = self.fetch_stalls, self.branch_bubbles
        fills, dmem = self.fill_cycles, self.dmem_cycles
        regs = arch.regs
        sram = bus.sram
        bank = sram.banks[0]
        direct_end = 0 if sram.dirty else sram.rows * 4  # SRAM starts at address 0
        halt = None
        try:
            while c < stop:
                arch.cycle = uart.cycle = c
                bus.last_store_row = None

                # W: commit the writeback latch to the register file (x0 discards it).
                if wl_valid and wl_rd:
                    regs[wl_rd].value = wl_value

                # X: consume the fetch latch.
                dmem_busy = False
                redirect = rd_write = None
                if fl_valid:
                    try:
                        ins = decode(fl_raw)
                    except IllegalInstruction as e:
                        raise IllegalInstruction(e.raw, fl_pc) from None
                    rd_write, redirect, mem, halt = ins.run(arch, fl_pc)
                    if mem is not None:
                        addr, width, data = mem
                        dmem_busy = True
                        dmem += 1
                        if data is None:
                            rd_write = (ins.rd, extend_load(ins, bus.read(addr, width)))
                        else:
                            bus.write(addr, data, width)
                    arch.retired += 1
                    if retire is not None:
                        retire(c, fl_pc, ins)
                elif idle == "stall":
                    stalls += 1
                elif idle == "branch":
                    bubbles += 1
                else:
                    fills += 1

                if rd_write is None:
                    wl_valid = wl_rd = wl_value = 0
                else:
                    wl_valid = 1
                    wl_rd, wl_value = rd_write

                # F: fetch unless the data bus owns the SRAM port or X transferred control.
                if redirect is not None:
                    fl_valid = fl_pc = fl_raw = 0
                    next_pc = redirect
                    idle = "branch"
                elif dmem_busy or halt is not None:
                    fl_valid = fl_pc = fl_raw = 0
                    idle = "stall" if dmem_busy else "fill"
                else:
                    pc = next_pc
                    if pc & 3 or pc >= direct_end:
                        raw = bus.fetch_window(pc)
                    else:
                        raw = bank[pc >> 2]
                    if raw & 3 == 3:
                        next_pc = (pc + 4) & M32
                    else:
                        raw &= 0xFFFF
                        next_pc = (pc + 2) & M32
                    fl_valid, fl_pc, fl_raw = 1, pc, raw
                    idle = "fill"
                c += 1
                if halt is not None:
                    break
        finally:
            self.fl_valid.value, self.fl_pc.value, self.fl_raw.value = fl_valid, fl_pc, fl_raw
            self.wl_valid.value, self.wl_rd.value, self.wl_value.value = wl_valid, wl_rd, wl_value
            arch.pc.value = next_pc
            self._idle_cause = idle
            self.fetch_stalls, self.branch_bubbles = stalls, bubbles
            self.fill_cycles, self.dmem_cycles = fills, dmem
        return c, halt
