"""Per-domain linear power and energy estimation, calibrated from silicon.

Power at frequency f is modeled as system leakage plus per-domain dynamic slopes:

    P(f, scenario, scrub) = leakage + sum_d slope_d(scenario) * f + [adder * f]

The slopes come from measurements of three activity classes at the calibration
frequency with the SRAM refresh disabled; the refresh adder is the measured
SRAM-domain difference between refresh-on and refresh-off runs (identical across
all three classes). Since only a system-level leakage figure is known, each
domain's measured value is deflated by its proportional leakage share so that
modeled totals reproduce the measured totals exactly while keeping a leakage-only
intercept at 0 MHz.

Activity classes ("scenarios"):

* ``register`` - mostly register-file traffic, no pipeline stalls;
* ``sram``     - load/store dominated, the data bus saturates the memory port;
* ``mixed``    - benchmark-style blend of both (alias: ``dhrystone``).

Energy over a simulated run blends the pure classes by the measured cycle mix:
cycles with an active data-bus access are charged at the ``sram`` class rate and
all others at the ``register`` rate.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError

SCENARIOS = ("mixed", "register", "sram")
_ALIASES = {"dhrystone": "mixed"}
_DOMAINS = ("core", "sram", "periph")


@dataclass
class PowerEstimate:
    """Per-domain dynamic power plus leakage, in mW."""

    freq_mhz: float
    scenario: str
    scrub_enabled: bool
    core_mw: float
    sram_mw: float
    periph_mw: float
    leakage_mw: float

    @property
    def total_mw(self):
        return self.core_mw + self.sram_mw + self.periph_mw + self.leakage_mw


def canonical_scenario(name):
    name = _ALIASES.get(name.lower(), name.lower())
    if name not in SCENARIOS:
        raise ConfigError(f"unknown power scenario {name!r} (choose from {SCENARIOS})")
    return name


def _positive(value, field):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value < math.inf:
        raise ConfigError(f"power calibration: {field} must be a finite number > 0, got {value!r}")
    return value


def load_default_calibration():
    with resources.files("tmrv32.data").joinpath("power_calibration.json").open() as f:
        return json.load(f)


class PowerModel:
    def __init__(self, calibration=None):
        cal = calibration if calibration is not None else load_default_calibration()
        self.calibration = cal
        self.slopes = {}  # scenario -> {domain: mW/MHz}, dynamic power only
        try:
            self.leakage_mw = cal["leakage_mw"]
            self.scrub_adder_mw_per_mhz = cal["scrub_adder_uw_per_mhz"] / 1000.0
            f0 = _positive(cal["calibration_freq_mhz"], "calibration_freq_mhz")
            for table in ("scenarios_scrub_off_mw", "scenarios_scrub_on_mw"):
                rows = cal[table]
                if not (isinstance(rows, dict) and all(isinstance(r, dict) for r in rows.values())):
                    raise ConfigError(f"power calibration: {table} must be an object of objects")
                for scenario, row in rows.items():
                    _positive(row["total"], f"{table}.{scenario}.total")
            for scenario, row in cal["scenarios_scrub_off_mw"].items():
                deflate = 1.0 - self.leakage_mw / row["total"]
                self.slopes[scenario] = {d: row[d] * deflate / f0 for d in _DOMAINS}
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"power calibration: missing or malformed field {exc}") from None

    def estimate_power(self, freq_mhz, scenario, scrub_enabled=True):
        """Linear power estimate at ``freq_mhz`` for one activity class."""
        if not 0 <= freq_mhz < math.inf:
            raise ConfigError(f"frequency must be a finite number >= 0, got {freq_mhz!r}")
        scenario = canonical_scenario(scenario)
        s = self.slopes[scenario]
        sram_mw = s["sram"] * freq_mhz
        if scrub_enabled:
            sram_mw += self.scrub_adder_mw_per_mhz * freq_mhz
        return PowerEstimate(
            freq_mhz=freq_mhz,
            scenario=scenario,
            scrub_enabled=scrub_enabled,
            core_mw=s["core"] * freq_mhz,
            sram_mw=sram_mw,
            periph_mw=s["periph"] * freq_mhz,
            leakage_mw=self.leakage_mw,
        )

    def system_slope_uw_per_mhz(self, scenario, scrub_enabled=False):
        """Total dynamic slope for one class, in uW/MHz."""
        s = self.slopes[canonical_scenario(scenario)]
        slope = sum(s.values())
        if scrub_enabled:
            slope += self.scrub_adder_mw_per_mhz
        return slope * 1000.0

    def estimate_energy(self, cycle_counts, freq_mhz, scrub_enabled=True):
        """Energy in mJ for a run described by per-class cycle counts.

        ``cycle_counts`` maps scenario names to cycles spent in that activity
        class (see ``Kernel.activity_cycles``). Classes partition the run, so
        leakage is integrated exactly once over the total runtime.
        """
        if freq_mhz <= 0:
            raise ConfigError("frequency must be positive for energy estimates")
        energy_mj = 0.0
        for scenario, cycles in cycle_counts.items():
            if cycles < 0:
                raise ConfigError("cycle counts must be non-negative")
            seconds = cycles / (freq_mhz * 1e6)
            energy_mj += self.estimate_power(freq_mhz, scenario, scrub_enabled).total_mw * seconds
        return energy_mj

    def calibration_closure(self):
        """Model totals vs. the measured table, for both refresh settings.

        Returns {(scenario, scrub_enabled): (model_total, measured_total)}; the
        round-trip of the calibration itself, asserted to 1 % in the tests.
        """
        out = {}
        f0 = self.calibration["calibration_freq_mhz"]
        for scrub, tablekey in ((False, "scenarios_scrub_off_mw"), (True, "scenarios_scrub_on_mw")):
            for scenario, row in self.calibration[tablekey].items():
                model = self.estimate_power(f0, scenario, scrub).total_mw
                out[(scenario, scrub)] = (model, row["total"])
        return out


def power_table(model, freqs_mhz, scenario, scrub_enabled=True):
    """Frequency sweep rows for plotting: one dict per frequency."""
    rows = []
    for f in freqs_mhz:
        est = model.estimate_power(f, scenario, scrub_enabled)
        rows.append(
            {
                "freq_mhz": f,
                "core_mw": est.core_mw,
                "sram_mw": est.sram_mw,
                "periph_mw": est.periph_mw,
                "leakage_mw": est.leakage_mw,
                "total_mw": est.total_mw,
            }
        )
    return rows
