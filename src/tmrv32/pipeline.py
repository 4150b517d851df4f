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

    def advance(self, arch, bus, retire_sink=None):
        """Simulate one clock edge plus the cycle it opens.

        Returns a halt reason string when the instruction executed this cycle
        halts the machine, else None. Bus faults and illegal instructions
        propagate as exceptions for the kernel's diagnostics.

        Latch cells, ``arch.pc`` and the committed register are stored by
        assigning ``value``, not through :meth:`TmrCell.write`. That is exact
        because every cell is clean here, from both of the kernel's callers:
        ``step_cycle`` refreshes every dirty cell before the pipeline advances and
        lands flips only after it, and ``_fast_forward`` runs only while no cell is
        dirty and stops before the next flip. Every value stored already fits its
        cell: results and pcs are masked to 32 bits, ``rd`` comes from decode and
        ``raw`` from ``fetch_window``.
        """
        # W: commit the writeback latch to the register file (x0 discards it).
        if self.wl_valid.value:
            rd = self.wl_rd.value
            if rd:
                arch.regs[rd].value = self.wl_value.value

        # X: consume the fetch latch.
        halt = None
        dmem_busy = False
        redirect = None
        rd_write = None
        if self.fl_valid.value:
            pc = self.fl_pc.value
            try:
                ins = decode(self.fl_raw.value)
            except IllegalInstruction as e:
                raise IllegalInstruction(e.raw, pc) from None
            rd_write, redirect, mem, halt = ins.run(arch, pc)
            if mem is not None:
                addr, width, data = mem
                dmem_busy = True
                self.dmem_cycles += 1
                if data is None:
                    rd_write = (ins.rd, extend_load(ins, bus.read(addr, width)))
                else:
                    bus.write(addr, data, width)
            arch.retired += 1
            if retire_sink is not None:
                retire_sink(pc, ins)
        elif self._idle_cause == "stall":
            self.fetch_stalls += 1
        elif self._idle_cause == "branch":
            self.branch_bubbles += 1
        else:
            self.fill_cycles += 1

        if rd_write is None:
            self.wl_valid.value = self.wl_rd.value = self.wl_value.value = 0
        else:
            self.wl_valid.value = 1
            self.wl_rd.value, self.wl_value.value = rd_write

        # F: fetch unless the data bus owns the SRAM port or X transferred control.
        if redirect is not None:
            valid = pc = raw = 0
            arch.pc.value = redirect
            self._idle_cause = "branch"
        elif dmem_busy or halt is not None:
            valid = pc = raw = 0
            self._idle_cause = "stall" if dmem_busy else "fill"
        else:
            pc = arch.pc.value
            raw = bus.fetch_window(pc)
            if raw & 3 == 3:
                arch.pc.value = (pc + 4) & M32
            else:
                raw &= 0xFFFF
                arch.pc.value = (pc + 2) & M32
            valid = 1
            self._idle_cause = "fill"
        self.fl_valid.value = valid
        self.fl_pc.value = pc
        self.fl_raw.value = raw
        return halt
