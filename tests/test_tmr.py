"""TMR primitives: voters, voted writes, feedback refresh, injected flips."""

import numpy as np
import pytest
from reference_tmr import ReferenceTmrCell

from tmrv32.tmr import Domain, TmrCell, vote3


def bitwise_majority_oracle(a, b, c, width=32):
    """Independent per-bit 2-of-3 enumeration."""
    out = 0
    for bit in range(width):
        votes = ((a >> bit) & 1) + ((b >> bit) & 1) + ((c >> bit) & 1)
        if votes >= 2:
            out |= 1 << bit
    return out


def make_cell(*replicas, width=32):
    cell = TmrCell("t.cell", Domain.CORE, width, 0)
    cell.set_replicas(*replicas)
    return cell


def test_vote_identity_clean():
    assert vote3(0x5A5A5A5A, 0x5A5A5A5A, 0x5A5A5A5A) == 0x5A5A5A5A
    cell = make_cell(0x5A5A5A5A, 0x5A5A5A5A, 0x5A5A5A5A)
    assert cell.value == 0x5A5A5A5A
    assert cell.discrepancy is False


def test_vote_two_of_three():
    assert vote3(0xFFFFFFFF, 0x00000000, 0xFFFFFFFF) == 0xFFFFFFFF
    cell = make_cell(0xFFFFFFFF, 0x00000000, 0xFFFFFFFF)
    assert cell.value == 0xFFFFFFFF
    assert cell.discrepancy is True


def test_vote_is_bitwise_not_word_granular():
    # all three disagree as words, but each bit has a 2-of-3 majority
    assert vote3(0b101, 0b011, 0b110) == 0b111
    cell = make_cell(0b101, 0b011, 0b110)
    assert cell.value == 0b111
    assert cell.discrepancy is True


def test_vote_matches_per_bit_enumeration_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        a, b, c = (int(v) for v in rng.integers(0, 1 << 32, 3))
        assert vote3(a, b, c) == bitwise_majority_oracle(a, b, c)
        cell = make_cell(a, b, c)
        assert cell.value == bitwise_majority_oracle(a, b, c)
        assert cell.discrepancy == (not (a == b == c))


def test_write_overrides_all_replicas():
    cell = make_cell(1, 2, 3)
    cell.write(7)
    assert cell.replicas == (7, 7, 7)


def test_write_idempotent():
    cell = make_cell(0, 0, 0)
    cell.write(0)
    assert cell.replicas == (0, 0, 0)


def test_write_range_violation():
    cell = TmrCell("t.w8", Domain.CORE, 8, 0)
    with pytest.raises(ValueError):
        cell.write(0xFFFF)


def test_width_bounds():
    with pytest.raises(ValueError):
        TmrCell("t.bad", Domain.CORE, 0, 0)
    with pytest.raises(ValueError):
        TmrCell("t.bad", Domain.CORE, 33, 0)
    TmrCell("t.ok1", Domain.CORE, 1, 1)
    TmrCell("t.ok32", Domain.CORE, 32, 0xFFFFFFFF)


def test_refresh_clean_cell_unchanged():
    cell = make_cell(5, 5, 5)
    disc = cell.refresh()
    assert disc is False
    assert cell.replicas == (5, 5, 5)


def test_refresh_repairs_single_corruption():
    cell = make_cell(5, 7, 5)
    disc = cell.refresh()
    assert disc is True
    assert cell.replicas == (5, 5, 5)


def test_refresh_double_fault_hazard():
    # bitwise majority of 0b001, 0b010, 0b100 is 0b000: the voted value matches
    # none of the replicas, and refresh latches it everywhere
    cell = make_cell(1, 2, 4)
    disc = cell.refresh()
    assert disc is True
    assert cell.replicas == (0, 0, 0)


def test_flip_single_bit():
    cell = make_cell(4, 4, 4)
    cell.flip(1, 0)
    assert cell.replicas == (4, 5, 4)


def test_flip_other_replica():
    cell = make_cell(0, 0, 0)
    cell.flip(0, 2)
    assert cell.replicas == (4, 0, 0)


def test_flip_is_involution():
    cell = make_cell(0xDEAD, 0xDEAD, 0xDEAD)
    cell.flip(2, 9)
    cell.flip(2, 9)
    assert cell.replicas == (0xDEAD, 0xDEAD, 0xDEAD)


def test_flip_range_checks():
    cell = TmrCell("t.w4", Domain.CORE, 4, 0)
    with pytest.raises(ValueError):
        cell.flip(3, 0)
    with pytest.raises(ValueError):
        cell.flip(0, 4)


def test_voter_masks_every_single_replica_corruption():
    # for all single-replica corruptions c of (v, v, v): value v, discrepancy set
    rng = np.random.default_rng(99)
    for _ in range(200):
        v = int(rng.integers(0, 1 << 32))
        for replica in range(3):
            for bit in (0, 7, 15, 31, int(rng.integers(32))):
                cell = make_cell(v, v, v)
                cell.flip(replica, bit)
                assert cell.value == v
                assert cell.discrepancy is True


def test_single_fault_closure_every_replica_and_bit():
    # flip then refresh restores the pre-fault value for every (replica, bit)
    v = 0xA5C3_0F71
    for replica in range(3):
        for bit in range(32):
            cell = make_cell(v, v, v)
            cell.flip(replica, bit)
            cell.refresh()
            assert cell.replicas == (v, v, v)


def test_double_fault_same_bit_defeats_the_voter():
    # two flips at one bit position in two replicas: the voter emits the corrupted
    # value (a non-correctable error), and refresh propagates it
    v = 0x0000_FF00
    for bit in range(32):
        cell = make_cell(v, v, v)
        cell.flip(0, bit)
        cell.flip(1, bit)
        assert cell.value == v ^ (1 << bit)
        assert cell.discrepancy is True
        cell.refresh()
        assert cell.value == v ^ (1 << bit)


def test_double_fault_different_bits_still_correctable():
    # upsets in different bit positions of different replicas keep per-bit majority
    v = 0x1234_5678
    cell = make_cell(v, v, v)
    cell.flip(0, 3)
    cell.flip(1, 17)
    assert cell.value == v
    cell.refresh()
    assert cell.replicas == (v, v, v)


# ---------------------------------------------------------------------------
# differential: the cell that stores its vote against the three-replica cell
# ---------------------------------------------------------------------------


def _random_ops(rng, width, n):
    """``n`` random cell operations as (method name, args) pairs."""
    top = 1 << width

    def word():
        return int(rng.integers(top))

    def over():  # a word with at least one bit at or above ``width``
        return int(rng.integers(top, 1 << 34)) if rng.random() < 0.8 else -int(rng.integers(1, 9))

    ops = []
    while len(ops) < n:
        kind = int(rng.integers(9))
        bit = int(rng.integers(width))
        replica = int(rng.integers(3))
        if kind == 0:
            ops.append(("write", (word(),)))
        elif kind == 1:
            ops.append(("write", (over(),)))
        elif kind == 2:  # single upset
            ops.append(("flip", (replica, bit)))
        elif kind == 3:  # toggled back
            ops += [("flip", (replica, bit)), ("flip", (replica, bit))]
        elif kind == 4:  # same-bit double
            ops += [("flip", (replica, bit)), ("flip", ((replica + 1) % 3, bit))]
        elif kind == 5:  # same-bit triple
            ops += [("flip", (r, bit)) for r in range(3)]
        elif kind == 6:
            ops.append(("refresh", ()))
        elif kind == 7:
            values = [word(), word(), word()]
            if rng.random() < 0.3:
                values[int(rng.integers(3))] = over()
            elif rng.random() < 0.3:
                values = [values[0]] * 3
            ops.append(("set_replicas", tuple(values)))
        else:  # out-of-range upsets
            ops.append(("flip", (3, bit) if rng.random() < 0.5 else (replica, width)))
    return ops


def _apply(cell, name, args):
    try:
        return "ok", getattr(cell, name)(*args)
    except Exception as exc:  # the exception type is part of the observed behaviour
        return "raises", type(exc)


@pytest.mark.parametrize("width", [1, 5, 13, 27, 32])
def test_cell_matches_three_replica_reference(width):
    rng = np.random.default_rng(500 + width)
    for _ in range(40):
        reset = int(rng.integers(1 << width))
        cell = TmrCell("t.cell", Domain.CORE, width, reset)
        ref = ReferenceTmrCell("t.cell", Domain.CORE, width, reset)
        for name, args in _random_ops(rng, width, 60):
            assert _apply(cell, name, args) == _apply(ref, name, args), (name, args)
            assert cell.value == ref.value
            assert cell.discrepancy == ref.discrepancy
            assert cell.replicas == ref.replicas


def test_cell_reset_value_checked_like_reference():
    for width, value in ((1, 2), (5, 32), (13, -1), (0, 0), (33, 0)):
        with pytest.raises(ValueError):
            TmrCell("t.cell", Domain.CORE, width, value)
        with pytest.raises(ValueError):
            ReferenceTmrCell("t.cell", Domain.CORE, width, value)
