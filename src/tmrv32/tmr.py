"""Triple-redundant storage primitives: cells, the bitwise majority voter, feedback refresh.

Every sequential element in the simulated system is a :class:`TmrCell` modeling three
replica words. Reads always go through the bitwise 2-of-3 majority vote, so downstream
logic never observes a single corrupted replica. On clock edges where a cell is not
written with new data, the feedback path writes the voted value back into all three
replicas, purging latent upsets. Voters are modeled as fault-free combinational logic;
upsets target stored replicas only.

Voting is bitwise (per bit position), not word-granular: two upsets in different bit
positions of different replicas remain correctable. :func:`vote3` is the one majority
expression; cells, the SRAM banks and the scrubber all vote through it.

A cell always stores its voted value, so a read costs one attribute access. It keeps
the three replica words only while they disagree, that is from an upset until the
next write or refresh. ``replicas`` and ``set_replicas`` still see three words.
Kernel checkpoints hold the same split: each cell's value, plus the three replicas
of the upset cells; snapshots still hold r0, r1, r2 per cell.

No module-level mutable state; cells are safe to use from any thread as long as a
given cell is not shared between threads. The simulation kernel drives each cell
single-threaded.
"""

from enum import IntEnum


class Domain(IntEnum):
    """Protection/accounting domain an element belongs to."""

    CORE = 0
    SRAM = 1
    PERIPHERALS = 2


DOMAIN_NAMES = {Domain.CORE: "core", Domain.SRAM: "sram", Domain.PERIPHERALS: "periph"}


def vote3(a, b, c):
    """Bitwise 2-of-3 majority of three words."""
    return (a & b) | (a & c) | (b & c)


class TmrCell:
    """One sequential element: three replicas of one value plus voter semantics.

    The three replicas form one instance group; a single corrupted replica is
    masked by the voter and repaired by feedback refresh, while two upsets at the
    same bit position in two replicas defeat the vote.

    ``value`` is the voter output and is always stored. Besides the methods below,
    two callers assign it, each to a clean cell only: ``Kernel.resume``, and
    ``Pipeline.advance``, which relies on storing only values that fit the width
    and on every cell being clean when it runs: ``Kernel.step_cycle`` refreshes
    every dirty cell first, and ``Kernel._fast_forward`` runs only with none dirty.
    ``_r`` is None while the three replicas agree (each then equals ``value``)
    and holds them as a tuple while they disagree.
    """

    __slots__ = ("value", "_r", "width", "mask", "element_id", "domain")

    def __init__(self, element_id, domain, width=32, value=0):
        if not 1 <= width <= 32:
            raise ValueError(f"cell width must be 1..32, got {width}")
        self.element_id = element_id
        self.domain = domain
        self.width = width
        self.mask = (1 << width) - 1
        if value & ~self.mask:
            raise ValueError(f"reset value 0x{value:x} exceeds width {width}")
        self.value = value
        self._r = None

    def write(self, value):
        """Store new data into all three replicas (a voted write)."""
        if value & ~self.mask:
            raise ValueError(
                f"write of 0x{value:x} exceeds width {self.width} of {self.element_id}"
            )
        self.value = value
        self._r = None

    @property
    def discrepancy(self):
        """Voter discrepancy output: replicas are not all equal."""
        return self._r is not None

    def refresh(self):
        """Feedback path: latch the voted value into all replicas.

        Models the default mux input on cycles where no new data is stored.
        Returns True if any replica differed before the refresh.
        """
        if self._r is None:
            return False
        self._r = None
        return True

    def flip(self, replica, bit):
        """Invert one bit of one replica (an injected upset)."""
        if replica not in (0, 1, 2):
            raise ValueError(f"replica must be 0..2, got {replica}")
        if not 0 <= bit < self.width:
            raise ValueError(f"bit must be 0..{self.width - 1}, got {bit}")
        r = list(self.replicas)
        r[replica] ^= 1 << bit
        self.set_replicas(*r)

    @property
    def replicas(self):
        if self._r is None:
            return (self.value,) * 3
        return self._r

    def set_replicas(self, r0, r1, r2):
        """Restore raw replica contents (checkpoint support); values must fit the width."""
        if (r0 | r1 | r2) & ~self.mask:
            raise ValueError(f"replica value exceeds width {self.width}")
        if r0 == r1 == r2:
            self.value = r0
            self._r = None
        else:
            self.value = vote3(r0, r1, r2)
            self._r = (r0, r1, r2)

    def __repr__(self):
        r0, r1, r2 = self.replicas
        return (
            f"TmrCell({self.element_id!r}, {self.domain.name}, width={self.width}, "
            f"replicas=({r0:#x}, {r1:#x}, {r2:#x}))"
        )
