"""The three-replica TMR cell, kept as the reference for the cell that stores its vote.

This is ``TmrCell`` as it was before the cell stored its voted value: three replica
words always held, the vote computed on every read. ``tests/test_tmr.py`` runs
random operation sequences on both and requires identical observable behaviour.
"""


class ReferenceTmrCell:
    __slots__ = ("r0", "r1", "r2", "width", "mask", "element_id", "domain")

    def __init__(self, element_id, domain, width=32, value=0):
        if not 1 <= width <= 32:
            raise ValueError(f"cell width must be 1..32, got {width}")
        self.element_id = element_id
        self.domain = domain
        self.width = width
        self.mask = (1 << width) - 1
        if value & ~self.mask:
            raise ValueError(f"reset value 0x{value:x} exceeds width {width}")
        self.r0 = self.r1 = self.r2 = value

    def write(self, value):
        if value & ~self.mask:
            raise ValueError(
                f"write of 0x{value:x} exceeds width {self.width} of {self.element_id}"
            )
        self.r0 = self.r1 = self.r2 = value

    @property
    def value(self):
        a, b, c = self.r0, self.r1, self.r2
        return (a & b) | (a & c) | (b & c)

    @property
    def discrepancy(self):
        return not (self.r0 == self.r1 == self.r2)

    def refresh(self):
        a, b, c = self.r0, self.r1, self.r2
        if a == b == c:
            return False
        self.r0 = self.r1 = self.r2 = (a & b) | (a & c) | (b & c)
        return True

    def flip(self, replica, bit):
        if replica not in (0, 1, 2):
            raise ValueError(f"replica must be 0..2, got {replica}")
        if not 0 <= bit < self.width:
            raise ValueError(f"bit must be 0..{self.width - 1}, got {bit}")
        if replica == 0:
            self.r0 ^= 1 << bit
        elif replica == 1:
            self.r1 ^= 1 << bit
        else:
            self.r2 ^= 1 << bit

    @property
    def replicas(self):
        return (self.r0, self.r1, self.r2)

    def set_replicas(self, r0, r1, r2):
        m = self.mask
        if (r0 | r1 | r2) & ~m:
            raise ValueError(f"replica value exceeds width {self.width}")
        self.r0, self.r1, self.r2 = r0, r1, r2
