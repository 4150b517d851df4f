"""Power model: calibration closure, linearity, scrub adder, energy blending."""

import math

import pytest

from tmrv32.errors import ConfigError
from tmrv32.power import PowerModel, canonical_scenario, load_default_calibration, power_table

# measured silicon table at 50 MHz (mW): scenario -> (scrub on, scrub off)
MEASURED_TOTALS = {
    "mixed": (20.08, 14.94),
    "register": (21.77, 16.63),
    "sram": (20.51, 15.37),
}


@pytest.fixture(scope="module")
def model():
    return PowerModel()


def test_scenario_aliases():
    assert canonical_scenario("dhrystone") == "mixed"
    assert canonical_scenario("REGISTER") == "register"
    with pytest.raises(ConfigError):
        canonical_scenario("turbo")


@pytest.mark.parametrize("scenario", list(MEASURED_TOTALS))
@pytest.mark.parametrize("scrub", [True, False])
def test_calibration_closure_within_1pct(model, scenario, scrub):
    expected = MEASURED_TOTALS[scenario][0 if scrub else 1]
    got = model.estimate_power(50.0, scenario, scrub).total_mw
    assert abs(got - expected) / expected < 0.01


def test_mixed_50mhz_values_match_measurements(model):
    est = model.estimate_power(50.0, "dhrystone", scrub_enabled=True)
    assert est.total_mw == pytest.approx(20.08, abs=1e-9)
    est_off = model.estimate_power(50.0, "dhrystone", scrub_enabled=False)
    assert est_off.total_mw == pytest.approx(14.94, abs=1e-9)


def test_zero_frequency_is_leakage_only(model):
    est = model.estimate_power(0.0, "mixed", scrub_enabled=False)
    assert est.total_mw == pytest.approx(0.110)
    assert est.core_mw == est.sram_mw == est.periph_mw == 0.0


def test_linearity(model):
    for scenario in MEASURED_TOTALS:
        p1 = model.estimate_power(10.0, scenario, True).total_mw - model.leakage_mw
        p2 = model.estimate_power(20.0, scenario, True).total_mw - model.leakage_mw
        assert p2 == pytest.approx(2 * p1, rel=1e-12)


def test_scrub_adder_is_frequency_proportional(model):
    for freq in (1.0, 12.5, 50.0, 80.0):
        on = model.estimate_power(freq, "register", True).total_mw
        off = model.estimate_power(freq, "register", False).total_mw
        assert on - off == pytest.approx(model.scrub_adder_mw_per_mhz * freq, rel=1e-12)


def test_sram_domain_scrub_delta_at_50mhz(model):
    on = model.estimate_power(50.0, "mixed", True).sram_mw
    off = model.estimate_power(50.0, "mixed", False).sram_mw
    assert on - off == pytest.approx(5.14, rel=0.01)


def test_mixed_system_slope_in_quoted_band(model):
    lo, hi = model.calibration["quoted_system_slope_band_uw_per_mhz"]
    slope = model.system_slope_uw_per_mhz("mixed", scrub_enabled=False)
    assert lo <= slope <= hi


def test_slopes_positive(model):
    for scenario, slopes in model.slopes.items():
        for domain, slope in slopes.items():
            assert slope > 0, (scenario, domain)


def test_calibration_closure_helper(model):
    for (scenario, scrub), (got, expected) in model.calibration_closure().items():
        assert abs(got - expected) / expected < 0.01


def test_energy_doubles_with_run_length(model):
    e1 = model.estimate_energy({"register": 1000, "sram": 500}, 50.0)
    e2 = model.estimate_energy({"register": 2000, "sram": 1000}, 50.0)
    assert e2 == pytest.approx(2 * e1, rel=1e-12)


def test_zero_cycles_zero_energy(model):
    assert model.estimate_energy({"register": 0, "sram": 0}, 50.0) == 0.0


def test_mixed_energy_bounded_by_pure_classes(model):
    total = 10_000
    seconds = total / 50e6
    pure_reg = model.estimate_power(50.0, "register", True).total_mw * seconds
    pure_sram = model.estimate_power(50.0, "sram", True).total_mw * seconds
    lo, hi = sorted((pure_reg, pure_sram))
    for split in (0.25, 0.5, 0.75):
        blended = model.estimate_energy(
            {"register": int(total * (1 - split)), "sram": int(total * split)}, 50.0
        )
        assert lo <= blended <= hi


def test_power_table_rows(model):
    rows = power_table(model, [1.0, 50.0], "mixed", scrub_enabled=True)
    assert rows[0]["freq_mhz"] == 1.0
    assert rows[1]["total_mw"] == pytest.approx(20.08)
    assert rows[0]["leakage_mw"] == pytest.approx(0.110)


def test_negative_frequency_rejected(model):
    with pytest.raises(ConfigError):
        model.estimate_power(-1.0, "mixed")
    with pytest.raises(ConfigError):
        model.estimate_energy({"register": 10}, 0.0)


@pytest.mark.parametrize("freq", [math.nan, math.inf])
def test_non_finite_frequency_rejected(model, freq):
    with pytest.raises(ConfigError, match="finite"):
        model.estimate_power(freq, "mixed")


def test_quoted_reference_constants_are_available(model):
    assert model.calibration["quoted_scrub_adder_uw_per_mhz"] == 88.0
    # the calibrated adder comes from the table delta, not the quoted figure
    assert model.scrub_adder_mw_per_mhz * 1000 == pytest.approx(102.8)


def _calibration(**fields):
    """The default calibration with ``fields`` replaced; ``off`` and ``on`` replace the
    ``mixed`` rows of the scrub-off and scrub-on tables."""
    cal = load_default_calibration()
    for key, table in (("off", "scenarios_scrub_off_mw"), ("on", "scenarios_scrub_on_mw")):
        if key in fields:
            cal[table] = dict(cal[table], mixed=fields.pop(key))
    return dict(cal, **fields)


BAD_CALIBRATIONS = [
    ("freq-0", _calibration(calibration_freq_mhz=0), "calibration_freq_mhz"),
    ("freq-negative", _calibration(calibration_freq_mhz=-50.0), "calibration_freq_mhz"),
    ("freq-nan", _calibration(calibration_freq_mhz=math.nan), "calibration_freq_mhz"),
    ("freq-string", _calibration(calibration_freq_mhz="50"), "calibration_freq_mhz"),
    ("off-total-0", _calibration(off={"core": 1, "sram": 1, "periph": 1, "total": 0}),
     "scenarios_scrub_off_mw.mixed.total"),
    ("on-total-infinity", _calibration(on={"core": 1, "sram": 1, "periph": 1, "total": math.inf}),
     "scenarios_scrub_on_mw.mixed.total"),
    ("off-table-array", _calibration(scenarios_scrub_off_mw=[]), "scenarios_scrub_off_mw"),
    ("on-row-number", _calibration(on=20.08), "scenarios_scrub_on_mw"),
]


@pytest.mark.parametrize("calibration, field", [c[1:] for c in BAD_CALIBRATIONS],
                         ids=[c[0] for c in BAD_CALIBRATIONS])
def test_malformed_calibration_is_a_config_error_naming_the_field(calibration, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")) as info:
        PowerModel(calibration)
    assert str(info.value).startswith("power calibration:")
