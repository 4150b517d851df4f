"""Pipeline timing: hand-counted cycle totals, stall/bubble accounting, and
architectural equivalence of the pipelined simulator with the reference interpreter."""

import numpy as np

from conftest import (
    SCRATCH_BASE,
    alu_block_program,
    gen_random_program,
    make_kernel,
    run_kernel,
    run_reference,
)

from tmrv32 import encode as E
from tmrv32.errors import SimError
from tmrv32.kernel import EDGE_ALIGNED, MID_CYCLE


def test_alu_block_sustains_one_instruction_per_cycle():
    # hand count for 10 ALU instructions + ebreak: 1 fill cycle, then 1 cycle
    # per instruction -> 12 cycles, 11 retired
    kernel = make_kernel(alu_block_program(10))
    result = kernel.run()
    assert result.retired == 11
    assert result.cycles == 12
    assert result.fetch_stalls == 0
    assert result.branch_bubbles == 0
    assert result.fill_cycles == 1


def test_each_load_or_store_inserts_exactly_one_fetch_stall():
    # hand count: fill(1) + 6 instructions + 2 data accesses = 9 cycles
    p = E.Program()
    p.emit(E.lui(2, SCRATCH_BASE >> 12))
    p.emit(E.addi(1, 0, 42))
    p.emit(E.sw(1, 2, 0))
    p.emit(E.lw(3, 2, 0))
    p.emit(E.add(4, 3, 1))
    p.emit(E.ebreak())
    kernel = make_kernel(p)
    result = kernel.run()
    assert result.retired == 6
    assert result.fetch_stalls == 2
    assert result.branch_bubbles == 0
    assert result.cycles == 1 + 6 + 2
    assert kernel.arch.read_reg(3) == 42
    assert result.dmem_cycles == 2


def test_taken_branch_costs_one_bubble():
    # forward taken branch: fill(1) + 4 retired + 1 bubble = 6 cycles
    p = E.Program()
    p.emit(E.addi(1, 0, 1))
    p.branch(E.beq, 1, 1, "target")
    p.emit(E.addi(2, 0, 99))  # squashed, never executes
    p.label("target")
    p.emit(E.addi(3, 0, 7))
    p.emit(E.ebreak())
    kernel = make_kernel(p)
    result = kernel.run()
    assert kernel.arch.read_reg(2) == 0
    assert kernel.arch.read_reg(3) == 7
    assert result.retired == 4
    assert result.branch_bubbles == 1
    assert result.cycles == 1 + 4 + 1


def test_not_taken_branch_costs_nothing():
    p = E.Program()
    p.emit(E.addi(1, 0, 1))
    p.branch(E.beq, 1, 0, "skip")  # never taken
    p.emit(E.addi(2, 0, 5))
    p.label("skip")
    p.emit(E.ebreak())
    result = make_kernel(p).run()
    assert result.retired == 4
    assert result.branch_bubbles == 0
    assert result.cycles == 1 + 4


def test_jump_flushes_like_a_taken_branch():
    p = E.Program()
    p.emit(E.addi(1, 0, 1))
    p.jump("on", rd=5)
    p.emit(E.addi(2, 0, 9))  # squashed
    p.label("on")
    p.emit(E.ebreak())
    kernel = make_kernel(p)
    result = kernel.run()
    assert kernel.arch.read_reg(2) == 0
    assert kernel.arch.read_reg(5) == 8  # link = jal's pc (4) + 4
    assert result.branch_bubbles == 1


def test_stall_accounting_identity():
    # total cycles = retired + fetch stalls + branch bubbles + fill
    rng = np.random.default_rng(500)
    for _ in range(40):
        image = gen_random_program(rng, n=30)
        kernel = make_kernel(image)
        r = kernel.run()
        assert r.cycles == r.retired + r.fetch_stalls + r.branch_bubbles + r.fill_cycles


def test_empty_loop_cycles_linear_in_iterations():
    def loop_cycles(n):
        p = E.Program()
        p.emit(E.addi(1, 0, n))
        p.label("loop")
        p.emit(E.addi(1, 1, -1))
        p.branch(E.bne, 1, 0, "loop")
        p.emit(E.ebreak())
        return make_kernel(p).run().cycles

    c10, c20, c40 = loop_cycles(10), loop_cycles(20), loop_cycles(40)
    # per-iteration cost is constant: addi + bne + bubble = 3 cycles
    assert c20 - c10 == 30
    assert c40 - c20 == 60


def test_alternating_load_alu_is_1_5_cycles_per_instruction():
    # hand count: each load costs 2 (issue + fetch stall), each ALU costs 1
    p = E.Program()
    p.emit(E.lui(2, SCRATCH_BASE >> 12))
    for _ in range(8):
        p.emit(E.lw(3, 2, 0))
        p.emit(E.add(4, 4, 3))
    p.emit(E.ebreak())
    result = make_kernel(p).run()
    # 16 alternating instructions -> 24 cycles of steady state
    assert result.fetch_stalls == 8
    assert result.cycles == 1 + (1 + 16 + 8) + 1  # fill + (lui+body+stalls) + ebreak


def test_cycles_for_program_helper():
    kernel = make_kernel(alu_block_program(10))
    kernel.run()
    assert kernel.arch.retired == 11
    assert kernel.cycle == 12


def test_x0_storage_cell_is_neither_read_nor_written():
    # x0 reads as zero through a hardwired path and discards writes; its storage
    # cell exists only as an injection target. A same-bit double upset makes it
    # vote 16 from cycle 0 on.
    p = E.Program()
    p.emit(E.addi(0, 0, 55))
    p.emit(E.addi(1, 0, 7))
    p.emit(E.add(2, 0, 1))
    p.emit(E.ebreak())
    kernel = make_kernel(p)
    for replica in (0, 1):
        kernel.schedule_flip(0, "cell", "core.x0", replica, 4)
    kernel.run()
    assert kernel.registry["core.x0"].value == 16
    assert kernel.arch.read_reg(0) == 0
    assert kernel.arch.read_reg(1) == 7
    assert kernel.arch.read_reg(2) == 7


def test_pipelined_matches_reference_on_random_programs():
    rng = np.random.default_rng(901)
    for _ in range(150):
        image = gen_random_program(rng, n=26)
        regs, mem, reason = run_kernel(image)
        regs_r, mem_r, reason_r = run_reference(image)
        assert reason == reason_r == "ebreak"
        assert regs == regs_r
        assert mem == mem_r


def test_pipelined_matches_reference_on_loops():
    p = E.Program()
    p.emit(E.addi(1, 0, 1))
    p.emit(E.addi(2, 0, 12))
    p.label("loop")
    p.emit(E.mul(1, 1, 2))
    p.emit(E.addi(2, 2, -1))
    p.branch(E.bne, 2, 0, "loop")
    p.emit(E.ebreak())
    image = p.assemble()
    regs, mem, reason = run_kernel(image)
    regs_r, mem_r, reason_r = run_reference(image)
    assert reason == reason_r
    assert regs == regs_r
    assert mem == mem_r
    assert regs[1] == 479001600  # 12!


def _store_loop(base):
    """A 12-pass store/load loop at ``base``, then ebreak (x28 points at scratch)."""
    p = E.Program(base)
    p.emit(E.addi(20, 0, 12))
    p.label("loop")
    p.emit(E.sw(20, 28, 0))
    p.emit(E.lw(21, 28, 0))
    p.emit(E.sb(21, 28, 7))
    p.emit(E.addi(20, 20, -1))
    p.branch(E.bne, 20, 0, "loop")
    p.emit(E.ebreak())
    return p.assemble()


def test_every_cell_is_clean_when_the_pipeline_advances_under_upsets():
    # Pipeline.advance assigns cell values directly, with no width check and no
    # replica reset: exact only while every cell is clean on entry and every
    # stored value fits. Upsets of the pc, the six latches and the registers,
    # single and same-bit double, in both phases, must keep both true, whether
    # the kernel runs by single steps or by Kernel._advance in random chunks
    # (which runs quiet spans through the pipeline alone, one call per span).
    rng = np.random.default_rng(1207)
    chunks = np.random.default_rng(1208)
    latches = ["core.pc", "core.fetch_valid", "core.fetch_pc", "core.fetch_raw",
               "core.wb_valid", "core.wb_rd", "core.wb_value"]
    covered = 0  # cycles the checked calls were asked to simulate

    def stepped(kernel):
        kernel.step_cycle()

    def chunked(kernel):
        end = None if chunks.random() < 0.5 else 400
        kernel._advance(kernel.cycle + int(chunks.integers(1, 60)), end)

    for _ in range(40):
        body = gen_random_program(rng, n=20)[:-4]  # drop the closing ebreak
        kernels = [make_kernel(body + _store_loop(len(body))) for _ in range(2)]
        for _ in range(8):
            key = latches[rng.integers(len(latches))] if rng.random() < 0.6 else (
                f"core.x{rng.integers(1, 32)}")
            cycle = int(rng.integers(0, 120))
            replica = int(rng.integers(3))
            bit = int(rng.integers(kernels[0].registry[key].width))
            phase = MID_CYCLE if rng.random() < 0.5 else EDGE_ALIGNED
            for i in range(1 if rng.random() < 0.7 else 2):
                for kernel in kernels:
                    kernel.schedule_flip(cycle, "cell", key, (replica + i) % 3, bit, phase=phase)

        for kernel, run in zip(kernels, (stepped, chunked)):
            cells = list(kernel.registry.values())
            advance = kernel.pipeline.advance

            def checked_advance(arch, bus, c, stop, retire=None, advance=advance, cells=cells):
                nonlocal covered
                covered += stop - c
                assert not [c.element_id for c in cells if c.discrepancy]
                return advance(arch, bus, c, stop, retire)

            kernel.pipeline.advance = checked_advance
            while kernel.halted is None and kernel.cycle < 400:
                try:
                    run(kernel)
                except SimError:  # an upset that defeats the vote may crash the core
                    break
                assert not [c.element_id for c in cells if c.value & ~c.mask]
                assert {c for c in cells if c.discrepancy} <= kernel.dirty
    assert covered > 2 * 40 * 100
