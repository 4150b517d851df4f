"""tmrv32: cycle-level simulation of a TMR-protected RV32IMC microcontroller.

The simulated system triplicates every sequential element and every SRAM row,
votes reads bitwise 2-of-3, refreshes idle state through voter feedback, scrubs
the SRAM with an autonomous state machine, and counts per-domain voter
discrepancies in memory-mapped registers. On top of the machine model sit a
deterministic fault-injection campaign engine and a silicon-calibrated linear
power/energy model.

Typical entry points:

    from tmrv32 import Kernel, SystemConfig
    from tmrv32.seu import CampaignConfig, FaultSpec, run_campaign
    from tmrv32.power import PowerModel
"""

from .errors import (
    AlignmentFault,
    BusFault,
    ConfigError,
    IllegalInstruction,
    SimError,
    SimTimeout,
)
from .kernel import EDGE_ALIGNED, MID_CYCLE, Kernel, RunResult, SystemConfig, load_image
from .tmr import Domain, TmrCell

__version__ = "0.1.0"

__all__ = [
    "AlignmentFault",
    "BusFault",
    "ConfigError",
    "Domain",
    "EDGE_ALIGNED",
    "IllegalInstruction",
    "Kernel",
    "MID_CYCLE",
    "RunResult",
    "SimError",
    "SimTimeout",
    "SystemConfig",
    "TmrCell",
    "load_image",
    "__version__",
]
