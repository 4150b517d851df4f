"""Translated regions: the code generator behind :mod:`tmrv32.pipeline`'s fast path.

A region is a set of basic blocks, each the instructions from one pc through the
first branch or jump. It starts with the block at the pc in the fetch latch and takes
in the blocks at its blocks' branch targets, fall-throughs and ``jal`` targets, up to
``_MAX_BLOCK`` instructions in all. It is one Python function, ``block_<pc>``,
compiled once with this file as its filename and each operation, loads too, inlined
from the expression tables in :mod:`tmrv32.isa`. It loads the registers it touches
into locals once and runs its blocks in a loop, dispatched on a block index by a
binary ``if`` tree. An internal edge, from one of its blocks to another, follows a
branch or ``jal``, which leaves the writeback latch empty, so the edge only moves the
values the block committed into the register locals.

Called in the one state :mod:`tmrv32.pipeline` enters it in, a region never raises
and never fetches. It leaves exactly what the per-cycle loop would: the registers,
both latches (a pending write to x0 included), the pc, the idle cause, the counters,
``arch.retired``, the SRAM, ``arch.cycle`` and ``bus.last_store_row``. Each exit
stores the registers in one epilogue and is a

* stay exit, with an instruction of the region in the fetch latch and idle cause
  ``fill``: before a block whose longest path does not fit in the span, before a load
  or store not to an aligned SRAM address or a store into the region's rows, and
  before a branch not taken whose fall-through fetch could fault;
* fall-through exit, the same with the next instruction: after a block no branch or
  jump ends (CSR reads, ``ecall``/``ebreak``, ``fence``, illegal encodings and
  fetches that could fault end one), or a branch not taken to no internal edge;
* transfer exit, before the bubble of a taken branch, ``jal`` or ``jalr`` to a pc
  outside the region: fetch latch empty, pc at the target, idle cause ``branch``.

A region alone decides whether it runs. Called as ``block(budget, regs, b0, b1,
b2)``, it returns None (not now) if the budget is below its need, the longest path of
its first block, checked before any SRAM read, or if it stays before any cycle; False
(not this code) if the bank's row count or words differ from those it was made from;
else the state it ran to. Where no block can start, the region has no blocks and
checks the window at its pc, so such a pc is translated once per code. A region
compares its SRAM rows, through the window after each block, as one slice, with a
copy made with it; the latched instruction is read from those rows. A store into them
ends it, so a cache of regions is a pure memo of SRAM contents, like ``decode``'s:
loading an image, resuming a checkpoint or scrubbing a row needs no invalidation.
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

_MAX_BLOCK = 256  # instructions in one region at most
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
        # every cycle but a transfer's fetches the next instruction (a region leaves
        # before a branch that would fall through to a fetch that could fault)
        if op not in _TRANSLATED or op not in _TRANSFERS and _window(bank, nxt) is None:
            break
        body.append((pc, raw, ins))
        if op in _TRANSFERS:
            break
        pc = nxt
    return body


def translate(pc0, bank):
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
                taken = expression(_BRANCH_TAKEN, op, read(ins.rs1), read(ins.rs2))
                nxt = (pc + ins.length) & M32
                faults = _window(bank, nxt) is None  # the fetch after it, if not taken
                if faults:  # leave it to the per-cycle loop, which raises the fault
                    emit(f"if not ({taken}):")
                    leave("    ", *stay, (pc, raw), nxt, "fill")
                cycles += 1
                move("", (), committed)  # both ways commit the same registers
                emit(f"if {taken}:")
                fall = (cycles, stalls, 0, None)
                goto("    ", (pc + ins.imm) & M32, (cycles + 1, stalls, 1, None), {}, (fall, {}))
                if not faults:
                    goto("", nxt, fall, {})
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
