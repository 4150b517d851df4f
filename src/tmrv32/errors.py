"""Fault and error types shared across the simulator."""


class SimError(Exception):
    """Base class for simulation-level errors."""


class BusFault(SimError):
    """Access to an unmapped address or a read-only region."""

    def __init__(self, addr, detail=""):
        self.addr = addr
        self.detail = detail
        super().__init__(f"bus fault at 0x{addr:08x}" + (f": {detail}" if detail else ""))


class AlignmentFault(SimError):
    """Data access not aligned to its width (the core does not split accesses)."""

    def __init__(self, addr, width):
        self.addr = addr
        self.width = width
        super().__init__(f"misaligned {width}-byte access at 0x{addr:08x}")


class IllegalInstruction(SimError):
    """Undecodable or unsupported encoding; the simulation halts with a diagnostic."""

    def __init__(self, raw, pc=None):
        self.raw = raw
        self.pc = pc
        at = f" at pc=0x{pc:08x}" if pc is not None else ""
        super().__init__(f"illegal instruction 0x{raw:08x}{at}")


class ConfigError(SimError):
    """Invalid simulation or campaign configuration, reported before any run starts."""


class SimTimeout(SimError):
    """Run exceeded its configured cycle budget."""

    def __init__(self, max_cycles):
        self.max_cycles = max_cycles
        super().__init__(f"no halt within {max_cycles} cycles")
