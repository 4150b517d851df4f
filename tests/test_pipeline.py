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
