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

Translated regions: in a span with no ``retire`` callback and no SRAM row dirty when
it starts (the rule of the direct bank-0 fetch), ``advance`` runs hot code as
translated regions. A region is a set of basic blocks, each the instructions from
one pc through the first branch or jump. It starts with the block at the pc in the
fetch latch and takes in the blocks at its blocks' branch targets, fall-throughs and
``jal`` targets, up to ``_MAX_BLOCK`` instructions in all. It is one Python function
compiled once, with each operation, loads too, inlined from the expression tables in
:mod:`tmrv32.isa`. It loads the registers it touches into locals once and runs its
blocks in a loop, dispatched on a block index by a binary ``if`` tree. An internal
edge, from one of its blocks to another, follows a branch or ``jal``, which leaves
the writeback latch empty, so the edge only moves the values the block committed
into the register locals.

A region never raises and never fetches. It leaves exactly what the per-cycle loop
would: the registers, both latches (a pending write to x0 included), the pc, the
idle cause, the counters, ``arch.retired``, the SRAM, ``arch.cycle`` and
``bus.last_store_row``. Each exit stores the registers in one epilogue and is a

* stay exit, with an instruction of the region in the fetch latch and idle cause
  ``fill``: before a block whose longest path does not fit in the span, and before a
  load or store not to an aligned SRAM address or a store into the region's rows;
* fall-through exit, the same with the next instruction: after a block no branch or
  jump ends (CSR reads, ``ecall``/``ebreak``, ``fence``, illegal encodings and
  fetches that could fault end one), or a branch not taken to no internal edge;
* transfer exit, before the bubble of a taken branch, ``jal`` or ``jalr`` to a pc
  outside the region: fetch latch empty, pc at the target, idle cause ``branch``.

A region alone decides whether it runs: ``advance`` calls it as ``block(budget,
regs, b0, b1, b2)``. It returns None (not now) if the budget is below its need, the
longest path of its first block, checked before any SRAM read, or if it stays
before any cycle; False (not this code) if the bank's row count or words differ
from those it was made from; else the state it ran to.

The per-cycle loop, unchanged, runs the rest and makes every fetch at run time. A
region starts only at the fetch that follows a cycle with X idle (a fill, a stall or
a bubble), never at a span's first cycle or where a region returned. So every call
starts in one state: the fetch latch holds what F has just read at its pc from clean
SRAM, the pc is that instruction's successor, and the writeback latch is empty. A
one-cycle span holds no such fetch, so ``step_cycle`` never enters a region and
single-stepping stays the oracle.

Regions are compiled as ``block_<pc>`` functions, with this file as their code
filename, into one process-wide cache, ``_blocks``, keyed by pc, once that pc has
been entered ``_HOT_ENTRIES`` times with no region made from the code there. That
count, ``_entries``, is per process too: how hot code is belongs to the code, so a
short loop that many kernels run gets a region though no one kernel runs it often
enough. Where no block can start, the region has no blocks and checks the window at
its pc, so such a pc is translated once per code. A region compares its SRAM rows,
through the window after each block, as one slice, with a copy made with it; the
latched instruction is read from those rows. A store into them ends it, so the
cache is a pure memo of SRAM contents, like ``decode``'s: loading an image,
resuming a checkpoint or scrubbing a row needs no invalidation.
"""

from .errors import IllegalInstruction
from .isa import (
    _ALU_IMM,
    _ALU_RR,
    _BRANCH_TAKEN,
    _EXPRESSION_NAMES,
    _LOAD,
    LOAD_WIDTH,
    M32,
    STORE_WIDTH,
    decode,
)
from .tmr import Domain, TmrCell

# A pc is translated once the kernels of the process have entered it this many times
# without a region.
_HOT_ENTRIES = 16
_MAX_BLOCK = 256  # instructions in one region at most

# pc -> the region last made there, for every kernel of the process: a pure memo
_blocks = {}
# pc -> entries since its last translation, counted over every kernel of the process
_entries = {}


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

    def advance(self, arch, bus, c, stop, retire=None):
        """Simulate the cycles ``c`` .. ``stop - 1``, each a clock edge plus the cycle it
        opens, and return ``(next cycle, halt)``. The span ends early after a cycle
        whose instruction halts the machine; ``halt`` is then its reason string, else
        None. ``retire(cycle, pc, ins)``, if given, is called for each instruction
        executed. Bus faults and illegal instructions propagate as exceptions for the
        kernel's diagnostics.

        The six latch values, ``arch.pc``, the idle cause and the four counters live
        in locals during the span, and a ``finally`` stores them back, so a cycle that
        raises leaves them as of the raise. Stored every cycle are the committed
        register (``ins.run`` reads the registers), ``arch.cycle`` and ``arch.retired``
        (CSR reads and UART TX stamps read them), and ``bus.last_store_row = None``.

        Cells are stored by assigning ``value``, not through :meth:`TmrCell.write`.
        That is exact because every cell is clean here, from both of the kernel's
        callers: ``step_cycle`` refreshes every dirty cell before the pipeline advances
        and lands flips only after it, and ``_fast_forward`` runs only while no cell is
        dirty and stops before the next flip. Every value stored already fits its
        cell: results and pcs are masked to 32 bits, ``rd`` comes from decode and
        ``raw`` from ``fetch_window`` or an SRAM row.

        An aligned fetch inside SRAM reads bank 0 directly if no SRAM row is dirty when
        the call starts: only an upset makes a row dirty, and none lands during a call,
        so no such read would vote. Every other fetch goes through ``bus.fetch_window``,
        with its faults and discrepancy events. Under the same rule, and with no
        ``retire``, hot code runs as translated regions, which never fetch. On the
        fetch after a cycle with X idle, or once made, the region at that pc is called;
        it alone checks its need, the SRAM size and its words (see the module docstring).
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
        direct_end = 0 if sram.dirty else bus.end
        blocks = retire is None and direct_end  # translated regions (see the module docstring)
        probe = False  # set by a cycle with X idle: its fetch may start a region
        halt = None
        try:
            while c < stop:
                if probe:
                    probe = False
                    block = _blocks.get(fl_pc)
                    done = block(stop - c, regs, *sram.banks) if block else False
                    if done:
                        (n, ran, s, b, fl_valid, fl_pc, fl_raw, next_pc, idle,
                         wl_valid, wl_rd, wl_value) = done
                        c += n
                        arch.retired += ran
                        stalls += s
                        dmem += s
                        bubbles += b
                        arch.cycle = c - 1
                        continue
                    if done is False:  # no region made from this code yet
                        n = _entries[fl_pc] = _entries.get(fl_pc, 0) + 1
                        if n >= _HOT_ENTRIES:
                            _entries[fl_pc] = 0
                            _blocks[fl_pc] = _translate(fl_pc, bank)
                            probe = True
                            continue
                arch.cycle = c
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
                            rd_write = (ins.rd, ins.load(bus.read(addr, width), addr))
                        else:
                            bus.write(addr, data, width)
                    arch.retired += 1
                    if retire is not None:
                        retire(c, fl_pc, ins)
                else:
                    probe = blocks  # F fetches on this cycle: try a region there
                    if idle == "stall":
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


# ---------------------------------------------------------------------------
# translated regions
# ---------------------------------------------------------------------------

_TRANSFERS = {*_BRANCH_TAKEN, "jal", "jalr"}
_TRANSLATED = {*_ALU_RR, *_ALU_IMM, *LOAD_WIDTH, *STORE_WIDTH, "lui", "auipc", *_TRANSFERS}


def _window(bank, pc):
    """The encoding a fetch at ``pc`` latches from a clean SRAM ``bank``, or None if
    that fetch could fault: ``pc`` is odd or its 32-bit window leaves SRAM."""
    if pc & 1 or pc + (pc & 2) >= 4 * len(bank):
        return None
    raw = bank[pc >> 2] >> ((pc & 2) << 3)
    if raw & 3 != 3:
        return raw & 0xFFFF
    return raw | (bank[(pc >> 2) + 1] & 0xFFFF) << 16 if pc & 2 else raw


def _body(pc, bank):
    """The basic block at ``pc``: (pc, raw, decoded) for each instruction from ``pc``
    through the first branch or jump, ending before one a block cannot run."""
    body = []
    while len(body) < _MAX_BLOCK and (raw := _window(bank, pc)) is not None:
        try:
            ins = decode(raw)
        except IllegalInstruction:
            break
        op = ins.mnemonic
        nxt = (pc + ins.length) & M32
        # every cycle but a jump's fetches the next instruction
        if op not in _TRANSLATED or op not in ("jal", "jalr") and _window(bank, nxt) is None:
            break
        body.append((pc, raw, ins))
        if op in _TRANSFERS:
            break
        pc = nxt
    return body


def _translate(pc0, bank):
    """Compile the region at ``pc0`` from a clean SRAM ``bank`` and return it; where no
    block can start, one with no blocks (see the module docstring)."""
    end = 4 * len(bank)
    region = {}  # block start -> its body, in the order found
    todo, size = [pc0], 0
    for pc in todo:  # grows by the branch and ``jal`` targets of each block taken
        body = pc not in region and _body(pc, bank)
        if body and size + len(body) <= _MAX_BLOCK:
            region[pc], size = body, size + len(body)
            last, _, ins = body[-1]
            if ins.mnemonic in _BRANCH_TAKEN:
                todo += [(last + ins.imm) & M32, (last + ins.length) & M32]
            elif ins.mnemonic == "jal":
                todo.append((last + ins.imm) & M32)
    lo = min(region, default=pc0) >> 2  # its rows: the windows at pc0 and after each block
    hi = (max((b[-1][0] + b[-1][2].length for b in region.values()), default=pc0) + 7) >> 2
    index = {pc: k for k, pc in enumerate(region)}

    touched = set()  # registers the region reads or commits, loaded at entry
    written = set()  # registers it commits, stored at exit

    def read(r):
        if r == 0:
            return 0
        touched.add(r)
        return val.get(r, f"x{r}")

    def move(pad, state, commit):
        """Move ``commit`` into the register locals and count ``state`` = (cycles,
        stalls, bubbles, writeback latch) of the block so far."""
        for r, v in sorted(commit.items()):
            emit(f"{pad}x{r} = {v}")
        touched.update(commit)
        written.update(commit)
        for local, n in zip(("left -", "stalls +", "bubbles +"), state):
            if n:
                emit(f"{pad}{local}= {n}")

    def leave(pad, state, commit, fl, next_pc, idle):
        """Leave through the epilogue with the fetch latch ``fl``, (pc, raw) or None
        for an empty one."""
        move(pad, state, commit)
        fl = "1, %s, %s" % fl if fl else "0, 0, 0"
        latch = "1, %d, %s" % state[3] if state[3] else "0, 0, 0"
        emit(f"{pad}out = ({fl}, {next_pc}, {idle!r}, {latch})")
        emit(f"{pad}break")

    def goto(pad, p, state, commit, transfer=None):
        """Go on to the block at ``p`` if the writeback latch is empty (an internal
        edge), else leave: before the bubble in ``transfer`` = (state, commit) with the
        fetch latch empty, or if none with the instruction at ``p`` (a fall-through)."""
        if state[3] is None and p in index:
            move(pad, state, commit)
            emit(f"{pad}k = {index[p]}")
            emit(f"{pad}continue")
        elif transfer:
            leave(pad, *transfer, None, p, "branch")
        else:
            raw = _window(bank, p)
            leave(pad, state, commit, (p, raw), (p + (4 if raw & 3 == 3 else 2)) & M32, "fill")

    def expression(table, op, a, b):
        code = table[op].format(a=a, b=f"({b})" if isinstance(b, int) else b)
        if isinstance(a, int) and isinstance(b, int):
            return eval(f"({code}) & 0xFFFFFFFF", dict(_EXPRESSION_NAMES))
        return code

    compiled = []  # per block: its lines
    need = 0  # the longest path of the first block, if any
    for start, body in region.items():
        lines = [None]  # the budget check, once the block's longest path is known
        emit = lines.append
        leave("    ", (0, 0, 0, None), {}, body[0][:2], (start + body[0][2].length) & M32, "fill")
        val = {}  # register -> its value as X reads it: a local's name or an int
        committed = {}  # register -> the value the block committed to it
        pending = None  # the writeback latch, (rd, value), or None when empty
        cycles = stalls = 0
        for j, (pc, raw, ins) in enumerate(body):
            op, rd = ins.mnemonic, ins.rd
            emit(f"# {pc:#x}: {ins}")
            stay = (cycles, stalls, 0, pending), dict(committed)  # an exit before it
            if pending is not None and pending[0]:  # W commits the latch
                committed[pending[0]] = pending[1]
            pending = None
            if op in LOAD_WIDTH or op in STORE_WIDTH:
                width = LOAD_WIDTH.get(op) or STORE_WIDTH[op]
                emit(f"a = ({read(ins.rs1)} + {ins.imm}) & 0xFFFFFFFF")
                unsafe = f"a & {width - 1} or a >= {end}" if width > 1 else f"a >= {end}"
                if op in STORE_WIDTH:  # nor one into the region's rows
                    unsafe += f" or {lo << 2} <= a < {hi << 2}"
                emit(f"if {unsafe}:")
                leave("    ", *stay, (pc, raw), (pc + ins.length) & M32, "fill")
                if op in LOAD_WIDTH:  # the stall cycle after it commits it
                    emit(f"v{j} = {expression(_LOAD, op, 'b0[a >> 2]', 'a')}")
                    if rd:
                        val[rd] = committed[rd] = f"v{j}"
                elif width == 4:
                    emit(f"b0[a >> 2] = b1[a >> 2] = b2[a >> 2] = {read(ins.rs2)}")
                else:
                    mask = (1 << 8 * width) - 1
                    emit("r = a >> 2")
                    emit("s = (a & 3) << 3")
                    emit(f"b0[r] = b1[r] = b2[r] = (b0[r] & ~({mask} << s)) | "
                         f"(({read(ins.rs2)} & {mask}) << s)")
                cycles += 2
                stalls += 1
            elif op in _BRANCH_TAKEN:
                cycles += 1
                move("", (), committed)  # both ways commit the same registers
                emit(f"if {expression(_BRANCH_TAKEN, op, read(ins.rs1), read(ins.rs2))}:")
                fall = (cycles, stalls, 0, None)
                goto("    ", (pc + ins.imm) & M32, (cycles + 1, stalls, 1, None), {}, (fall, {}))
                goto("", (pc + ins.length) & M32, fall, {})
            elif op in ("jal", "jalr"):
                cycles += 1
                link = (pc + ins.length) & M32
                if op == "jal":
                    target = (pc + ins.imm) & M32
                else:
                    emit(f"t = ({read(ins.rs1)} + {ins.imm}) & 0xFFFFFFFE")
                    target = "t"
                goto("", target, (cycles + 1, stalls, 1, None),
                     {**committed, rd: link} if rd else committed,  # the bubble commits the link
                     ((cycles, stalls, 0, (rd, link)), committed))
            else:  # a register-register or immediate operation, lui or auipc
                if op in _ALU_RR:
                    v = expression(_ALU_RR, op, read(ins.rs1), read(ins.rs2))
                elif op in _ALU_IMM:
                    v = expression(_ALU_IMM, op, read(ins.rs1), ins.imm)
                else:
                    v = (ins.imm + (pc if op == "auipc" else 0)) & M32
                if not isinstance(v, int):
                    emit(f"v{j} = ({v}) & 0xFFFFFFFF")
                    v = f"v{j}"
                if rd:
                    val[rd] = v
                pending = (rd, v)
                cycles += 1
        if op not in _TRANSFERS:
            goto("", (pc + ins.length) & M32, (cycles, stalls, 0, pending), committed)
        else:
            cycles += 1  # the bubble
        lines[0] = f"if left < {cycles}:"  # a stay exit unless the longest path fits
        if not compiled:
            need = cycles
        compiled.append(lines)

    def dispatch(pad, a, b):  # the blocks a .. b - 1, by a binary tree on k
        if b - a == 1:
            yield from (pad + line for line in compiled[a])
        elif a == b:  # no block can start at pc0: leave before any cycle
            yield pad + "break"
        else:
            m = (a + b) // 2
            yield f"{pad}if k < {m}:"
            yield from dispatch(pad + "    ", a, m)
            yield f"{pad}else:"
            yield from dispatch(pad + "    ", m, b)

    name = f"block_{pc0:x}"  # profiles tell functions apart by file, line and name
    code = [
        f"def {name}(budget, regs, b0, b1, b2):",
        f"    if budget < {need}:",
        "        return None",
        f"    if len(b0) != {len(bank)} or b0[{lo}:{hi}] != words:",
        "        return False",
        *(f"    x{r} = regs[{r}].value" for r in sorted(touched)),
        "    left, stalls, bubbles, k = budget, 0, 0, 0",
        "    while True:",
        *dispatch("        ", 0, len(region)),
        "    n = budget - left",
        "    if not n:",
        "        return None",
        *(f"    regs[{r}].value = x{r}" for r in sorted(written)),
        "    return (n, n - stalls - bubbles, stalls, bubbles, *out)",
    ]
    names = dict(_EXPRESSION_NAMES, words=bank[lo:hi])
    exec(compile("\n".join(code) + "\n", __file__, "exec"), names)
    return names[name]
