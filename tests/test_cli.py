"""CLI: subcommand behavior, file outputs, exit codes."""

import json
import math

import pytest

from conftest import acceptance_program, alu_block_program, mini_elf, uart_hello_program

from tmrv32 import encode as E
from tmrv32.cli import EXIT_CONFIG, EXIT_OK, EXIT_SIM_FAULT, EXIT_STRICT, EXIT_TIMEOUT, main
from tmrv32.power import load_default_calibration


@pytest.fixture
def image_path(tmp_path):
    path = tmp_path / "hello.bin"
    path.write_bytes(uart_hello_program(b"OK").assemble())
    return path


def test_run_captures_uart_tx(tmp_path, image_path, capsys):
    tx = tmp_path / "tx.bin"
    report = tmp_path / "run.json"
    code = main(["run", str(image_path), "--tx-out", str(tx), "--report", str(report)])
    assert code == EXIT_OK
    assert tx.read_bytes() == b"OK"
    summary = json.loads(report.read_text())
    assert summary["halt"] == "ebreak"
    assert summary["uart_tx_hex"] == b"OK".hex()
    assert json.loads(capsys.readouterr().out)["halt"] == "ebreak"


def test_run_trace_out(tmp_path, image_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(image_path), "--trace-out", str(trace)]) == EXIT_OK
    events = [json.loads(l) for l in trace.read_text().splitlines()]
    retires = [e for e in events if e["kind"] == "retire"]
    assert retires and retires[0]["pc"] == 0
    assert all({"cycle", "pc", "raw"} <= set(e) for e in retires)


def _trace(path):
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == {"kind": "trace", "schema_version": 2}
    return records


def test_run_trace_tells_scrub_write_backs_from_core_reads(tmp_path):
    image = tmp_path / "acceptance.bin"
    image.write_bytes(acceptance_program().assemble())
    trace = tmp_path / "trace.jsonl"
    # row 150 lies outside the program, so only the scrubber sees it; row 12 is
    # code the core fetches before the scrubber gets there
    code = main(["run", str(image), "--flip", "5:150:1:3", "--flip", "1:12:0:30",
                 "--trace-out", str(trace)])
    assert code == EXIT_OK
    records = [r for r in _trace(trace) if r["kind"] != "retire"]
    assert {"kind": "flip", "cycle": 5, "target": 150, "replica": 1, "bit": 3,
            "vote_changed": False} in records
    scrub = [r for r in records if r["kind"] == "discrepancy" and r["element"] == 150]
    assert scrub == [{"kind": "discrepancy", "cycle": scrub[0]["cycle"], "domain": "sram",
                      "element": 150, "source": "scrub"}]
    assert {"kind": "repair", "cycle": scrub[0]["cycle"], "target": 150} in records
    code_row = [r for r in records if r["kind"] == "discrepancy" and r["element"] == 12]
    assert [r["source"] for r in code_row] == ["core-read", "scrub"]
    assert code_row[0]["cycle"] < code_row[1]["cycle"]
    assert {"kind": "repair", "cycle": code_row[1]["cycle"], "target": 12} in records
    assert records[-1]["kind"] == "halt"


def test_run_trace_shows_cell_flip_and_refresh(tmp_path, image_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(image_path), "--flip", "3:core.x1:2:0:edge-aligned",
                 "--trace-out", str(trace)]) == EXIT_OK
    records = [r for r in _trace(trace) if r["kind"] != "retire"]
    assert records[:3] == [
        {"kind": "flip", "cycle": 4, "target": "core.x1", "replica": 2, "bit": 0,
         "vote_changed": False},
        {"kind": "discrepancy", "cycle": 4, "domain": "core", "element": "core.x1",
         "source": "cell"},
        {"kind": "repair", "cycle": 5, "target": "core.x1"},
    ]


def test_run_rejects_a_malformed_flip(image_path, capsys):
    for flip, field in (
        ("3:core.x1:2", "--flip"),
        ("3:core.nope:0:0", "core.nope"),
        ("1:core.x1:3:0", "replica"),
        ("1:core.x1:0:32", "bit"),
        ("1:core.x1:0:0:sideways", "phase"),
        ("1:9000:0:0", "row"),
        ("1:5:0:0:edge-aligned", "phase"),
    ):
        assert main(["run", str(image_path), "--flip", flip]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:") and field in line


def test_run_rejects_a_flip_before_cycle_0(tmp_path, capsys):
    image = tmp_path / "ebreak.bin"
    image.write_bytes(E.ebreak().to_bytes(4, "little"))
    assert main(["run", str(image), "--flip=-1:core.x1:0:0"]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and "cycle -1" in line


def test_run_rejects_stimulus_before_cycle_0(tmp_path, capsys):
    image = tmp_path / "ebreak.bin"
    image.write_bytes(E.ebreak().to_bytes(4, "little"))
    stim = tmp_path / "stim.txt"
    stim.write_text("-5 gpio-in 3 1\n")
    assert main(["run", str(image), "--stimulus", str(stim)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and "cycle -5" in line


def test_run_max_cycles_timeout(tmp_path):
    p = E.Program()
    p.label("spin")
    p.branch(E.beq, 0, 0, "spin")
    path = tmp_path / "spin.bin"
    path.write_bytes(p.assemble())
    assert main(["run", str(path), "--max-cycles", "100"]) == EXIT_TIMEOUT


def test_run_simulation_fault_exit_code(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00\x00\x00\x00")  # all-zero encoding is illegal
    assert main(["run", str(path)]) == EXIT_SIM_FAULT


def test_run_peripheral_bus_fault_names_the_bus_address(tmp_path, capsys):
    p = E.Program()
    p.emit(E.lui(1, 0x10000))
    p.emit(E.lw(2, 1, 0xC))
    p.emit(E.ebreak())
    path = tmp_path / "gpio.bin"
    path.write_bytes(p.assemble())
    assert main(["run", str(path)]) == EXIT_SIM_FAULT
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "simulation fault: bus fault at 0x1000000c: unmapped GPIO register"


def test_run_missing_image_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.bin")]) == EXIT_CONFIG


def test_run_stimulus_file(tmp_path):
    p = E.Program()
    p.emit(E.lui(10, 0x10001))
    p.label("poll")
    p.emit(E.lw(11, 10, 0x4))
    p.emit(E.lui(12, 0x80000))  # 0x80000000 empty marker
    p.branch(E.beq, 11, 12, "poll")
    p.emit(E.sw(11, 10, 0x0))
    p.emit(E.ebreak())
    image = tmp_path / "echo.bin"
    image.write_bytes(p.assemble())
    stim = tmp_path / "stim.txt"
    stim.write_text("15 uart-rx 0x7E\n")
    tx = tmp_path / "tx.bin"
    code = main(["run", str(image), "--stimulus", str(stim), "--tx-out", str(tx)])
    assert code == EXIT_OK
    assert tx.read_bytes() == b"\x7e"


def test_campaign_bundle_outputs(tmp_path):
    config = {
        "version": 1,
        "system": {"image_hex": acceptance_program().assemble().hex()},
        "faults": [
            {"at_cycle": 20, "kind": "cell", "key": "core.x6", "replica": 1, "bit": 3},
            {"at_cycle": 30, "kind": "random", "key": "core"},
        ],
        "seed": 5,
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["campaign", str(cfg_path), "--out-dir", str(out)])
    assert code == EXIT_OK
    records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counter_crosscheck"] is True
    assert summary["corrected"] == 2
    hist = (out / "latency_hist.tsv").read_text().splitlines()
    assert hist[0] == "latency_cycles\tcount"
    assert (out / "counter_timeline.tsv").exists()


def test_campaign_seed_replay_byte_identical(tmp_path):
    config = {
        "version": 1,
        "system": {"image_hex": alu_block_program(50).assemble().hex()},
        "faults": [{"at_cycle": 9, "kind": "random", "key": "core"}] * 5,
        "seed": 123,
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["campaign", str(cfg_path), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["campaign", str(cfg_path), "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()


def test_campaign_reports_a_failed_counter_crosscheck(tmp_path):
    # a same-bit double upset outvotes the core counter cell: 16 counted, no event seen
    config = {
        "version": 1,
        "system": {"image_hex": acceptance_program().assemble().hex()},
        "faults": [
            {"at_cycle": 20, "kind": "cell", "key": "periph.seu_count_core", "replica": 0,
             "bit": 4, "count": 2}
        ],
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["campaign", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["counter_crosscheck"] is False
    assert main(["campaign", str(cfg_path), "--strict"]) == EXIT_STRICT


def test_campaign_strict_passes_an_upset_in_the_last_cycle(tmp_path):
    # counted in cycle 29, the increment would land at edge 30, which the run never reaches
    config = {
        "version": 1,
        "system": {"image_hex": alu_block_program(50).assemble().hex()},
        "faults": [{"at_cycle": 29, "kind": "cell", "key": "core.x5", "replica": 1, "bit": 3}],
        "run_cycles": 30,
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["campaign", str(cfg_path), "--strict", "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["counter_crosscheck"] is True


def test_campaign_strict_flags_double_fault(tmp_path):
    config = {
        "version": 1,
        "system": {"image_hex": acceptance_program().assemble().hex()},
        "faults": [
            {"at_cycle": 20, "kind": "cell", "key": "core.x6", "replica": 0, "bit": 1,
             "count": 2}
        ],
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["campaign", str(cfg_path)]) == EXIT_OK
    assert main(["campaign", str(cfg_path), "--strict"]) == EXIT_STRICT


def test_campaign_bad_config_exit(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"version": 1, "system": {}, "mode": "bogus"}))
    assert main(["campaign", str(cfg_path)]) == EXIT_CONFIG
    cfg_path.write_text("{not json")
    assert main(["campaign", str(cfg_path)]) == EXIT_CONFIG


def test_campaign_malformed_config_is_a_config_error(tmp_path, capsys):
    fault = {"at_cycle": 1, "kind": "cell", "key": "core.x1"}
    cases = [
        ({"system": {}, "bogus": 1}, "bogus"),  # unknown top-level key
        ({"system": {"bogus": 1}}, "bogus"),  # unknown system key
        ({"system": {}, "faults": [dict(fault, bogus=2)]}, "bogus"),  # unknown fault key
        ({"system": {}, "seed": -1}, "seed"),
        ({"system": {}, "faults": [dict(fault, kind="sram", key="abc")]}, "key"),
        ({"system": {}, "faults": [dict(fault, key=5)]}, "key"),
        ({"system": {}, "faults": [dict(fault, phase="sideways")]}, "phase"),
        ({"system": {}, "mode": "accumulate", "rates": {"core": 0.1}}, "run_cycles"),
        ({"system": {}, "mode": "accumulate", "run_cycles": 100, "rates": {"disk": 0.1}},
         "rate domain 'disk'"),
        ({"system": {}, "version": 2}, "version"),
        ({"system": {"stimulus": "gpio"}}, "stimulus must be a list or tuple"),
        ({"system": {"stimulus": [5]}}, "stimulus must be a list or tuple"),
    ]
    _assert_config_errors(tmp_path, capsys, cases)


def test_campaign_wrong_typed_value_is_a_config_error(tmp_path, capsys):
    fault = {"at_cycle": 1, "kind": "cell", "key": "core.x1"}
    cases = [
        ({"system": {}, "faults": [dict(fault, at_cycle="5")]}, "at_cycle"),
        ({"system": {}, "faults": [dict(fault, bit="3")]}, "bit"),
        ({"system": {}, "faults": [dict(fault, count="2")]}, "count"),
        ({"system": {}, "faults": [dict(fault, replica=1.0)]}, "replica"),
        ({"system": {}, "mode": "accumulate", "run_cycles": 100, "rates": [1]}, "rates"),
        ({"system": {}, "run_cycles": "100"}, "run_cycles"),
        ({"system": {}, "edge_aligned_fraction": "0.5"}, "edge_aligned_fraction"),
        ({"system": {}, "mode": "accumulate", "run_cycles": 100, "rates": {"core": "0.1"}},
         "rates"),
        ({"system": {"stimulus": [["gpio-in", 5]]}}, "stimulus"),
        ({"system": {"stimulus": [["uart-rx", "x", 5]]}}, "stimulus"),
        ({"system": {"stimulus": [["gpio-in", 30, 5, 2]]}}, "stimulus"),
        ({"system": {"stimulus": [["gpio-in", 30, 5, -1]]}}, "stimulus"),
        ({"system": {"stimulus": [["uart-rx", 5, -1]]}}, "stimulus"),
        ({"system": {"stimulus": [["uart-rx", 5, 256]]}}, "stimulus"),
        ({"system": {"freq_mhz": "fast"}}, "freq_mhz"),
        ({"system": {"scrub_enabled": "no"}}, "scrub_enabled"),
        ({"system": {"record_events": "no"}}, "record_events"),
        ({"system": {}, "golden_compare": "no"}, "golden_compare"),
        ({"system": {"image_hex": "73001000", "entry_pc": "0"}}, "entry_pc"),
        ({"system": {"image_hex": "73001000", "entry_pc": -4}}, "entry_pc"),
        ({"system": {"image_hex": "73001000", "image_base": "0x10"}}, "image_base"),
        ({"system": {"image": 5}}, "image"),
    ]
    _assert_config_errors(tmp_path, capsys, cases)


@pytest.mark.parametrize("key", [{}, []], ids=["object", "array"])
def test_campaign_random_fault_with_a_non_string_key_is_a_config_error(tmp_path, capsys, key):
    fault = {"at_cycle": 0, "kind": "random", "key": key}
    cases = [({"system": {"image_hex": "73001000"}, "faults": [fault]}, "random fault domain")]
    _assert_config_errors(tmp_path, capsys, cases)


_EBREAK_SYSTEM = {"image_hex": "73001000"}
_SRAM_FAULT = {"at_cycle": 0, "kind": "sram", "key": 0}
_BOOLEAN_CASES = [  # (config, the field the error names)
    ({"faults": [{"at_cycle": True, "kind": "sram", "key": True, "replica": True,
                  "bit": False}]}, "at_cycle"),
    ({"faults": [dict(_SRAM_FAULT, key=True)]}, "key"),
    ({"faults": [dict(_SRAM_FAULT, replica=True)]}, "replica"),
    ({"faults": [dict(_SRAM_FAULT, bit=False)]}, "bit"),
    ({"faults": [dict(_SRAM_FAULT, count=True)]}, "count"),
    ({"system": dict(_EBREAK_SYSTEM, max_cycles=True)}, "max_cycles"),
    ({"system": dict(_EBREAK_SYSTEM, scrub_divider=True)}, "scrub_divider"),
    ({"system": dict(_EBREAK_SYSTEM, image_base=False)}, "image_base"),
    ({"system": dict(_EBREAK_SYSTEM, entry_pc=False)}, "entry_pc"),
    ({"system": dict(_EBREAK_SYSTEM, freq_mhz=True)}, "freq_mhz"),
    ({"system": dict(_EBREAK_SYSTEM, stimulus=[["uart-rx", True, 5]])}, "stimulus"),
    ({"system": dict(_EBREAK_SYSTEM, stimulus=[["gpio-in", 5, 3, True]])}, "stimulus"),
    ({"run_cycles": True}, "run_cycles"),
    ({"seed": False}, "seed"),
    ({"edge_aligned_fraction": True}, "edge_aligned_fraction"),
    ({"mode": "accumulate", "run_cycles": 100, "rates": {"core": True}}, "rates"),
]


@pytest.mark.parametrize("config, field", _BOOLEAN_CASES, ids=[f for _, f in _BOOLEAN_CASES])
def test_campaign_json_true_or_false_is_not_a_number(tmp_path, capsys, config, field):
    _assert_config_errors(tmp_path, capsys, [({"system": _EBREAK_SYSTEM, **config}, field)])


_RATE_MODEL = {"system": _EBREAK_SYSTEM, "mode": "accumulate", "run_cycles": 100}
_NON_FINITE_CASES = [  # (id, config, the field the error names)
    ("rate-nan", dict(_RATE_MODEL, rates={"core": math.nan}), "rates"),
    ("rate-infinity", dict(_RATE_MODEL, rates={"core": math.inf}), "rates"),
    ("rate-1e300", dict(_RATE_MODEL, rates={"core": 1e300}), "rates"),
    ("rates-0", dict(_RATE_MODEL, rates=0), "rates"),
    ("rates-false", dict(_RATE_MODEL, rates=False), "rates"),
    ("rates-array", dict(_RATE_MODEL, rates=[]), "rates"),
    ("rates-string", dict(_RATE_MODEL, rates=""), "rates"),
    ("freq-nan", {"system": dict(_EBREAK_SYSTEM, freq_mhz=math.nan)}, "freq_mhz"),
    ("freq-infinity", {"system": dict(_EBREAK_SYSTEM, freq_mhz=math.inf)}, "freq_mhz"),
]


@pytest.mark.parametrize("config, field", [c[1:] for c in _NON_FINITE_CASES],
                         ids=[c[0] for c in _NON_FINITE_CASES])
def test_campaign_non_finite_number_or_non_object_rates_is_a_config_error(
    tmp_path, capsys, config, field
):
    _assert_config_errors(tmp_path, capsys, [(config, field)])


@pytest.mark.parametrize(
    "config, field",
    [(dict(_RATE_MODEL, run_cycles=2**64, rates={"sram": 1e-12}), "run_cycles"),
     (dict(_RATE_MODEL, run_cycles=2**63 - 1, rates={"core": 1.0}), "rates")],
    ids=["cycles-past-int64", "poisson-mean-too-large"],
)
def test_campaign_rate_model_the_generator_cannot_draw_is_a_config_error(
    tmp_path, capsys, config, field
):
    _assert_config_errors(tmp_path, capsys, [(config, field)])


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "IMAGE", "--freq", "nan"], "freq_mhz"),
        (["run", "IMAGE", "--freq", "inf"], "freq_mhz"),
        (["power", "--freq", "nan"], "--freq"),
        (["power", "--fmin", "nan"], "--fmin"),
        (["power", "--fmax", "inf"], "--fmax"),
    ],
    ids=["run-freq-nan", "run-freq-inf", "power-freq-nan", "power-fmin-nan", "power-fmax-inf"],
)
def test_non_finite_frequency_flag_is_a_config_error(tmp_path, capsys, argv, field):
    image = tmp_path / "ebreak.bin"
    image.write_bytes(E.ebreak().to_bytes(4, "little"))
    assert main([str(image) if a == "IMAGE" else a for a in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("config error:") and field in line
    assert captured.out == ""


def test_run_rejects_an_entry_pc_past_32_bits(tmp_path, capsys):
    image = tmp_path / "ebreak.bin"
    image.write_bytes(E.ebreak().to_bytes(4, "little"))
    assert main(["run", str(image), "--entry=0x100000000"]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and "entry_pc" in line


def _assert_config_errors(tmp_path, capsys, cases):
    """Each config makes ``tmrv32 campaign`` exit 2 with one error line naming the field."""
    cfg_path = tmp_path / "bad.json"
    for config, field in cases:
        cfg_path.write_text(json.dumps({"version": 1, **config}))
        assert main(["campaign", str(cfg_path)]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:") and field in line


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


_TRUNCATED_ELF = mini_elf([(0x0, bytes(4), 4)], entry=0)[:60]  # its program header is cut off


def _calibration(tmp_path, **fields):
    """A calibration file: the default one with ``fields`` replaced."""
    cal = dict(load_default_calibration(), **fields)
    return _write(tmp_path, "p.json", json.dumps(cal).encode())


@pytest.mark.parametrize(
    "argv, names_file",
    [
        (lambda tmp, image: ["campaign", str(tmp)], True),
        (lambda tmp, image: ["run", str(tmp)], True),
        (lambda tmp, image: ["campaign", _write(tmp, "c.json", b'{"version": 1, "x": "\xe9"}')],
         True),
        (lambda tmp, image: ["run", image, "--stimulus", _write(tmp, "s.txt", b"5 uart-rx \xff")],
         True),
        (lambda tmp, image: ["run", image, "--stimulus", _write(tmp, "s.txt", b"5 gpio-in 3 2")],
         False),
        (lambda tmp, image: ["run", image, "--stimulus", _write(tmp, "s.txt", b"5 uart-rx 0x100")],
         False),
        (lambda tmp, image: ["power", "--calibration", _write(tmp, "p.json", b'{"\xff": 1}')],
         True),
        (lambda tmp, image: ["campaign", _write(tmp, "c.json", b"{not json")], True),
        (lambda tmp, image: ["power", "--freq", "5", "--calibration",
                             _write(tmp, "p.json", b"{not json")], True),
        (lambda tmp, image: ["campaign", _write(tmp, "c.json", b'[{"version": 1}]')], False),
        (lambda tmp, image: ["power", "--calibration", _write(tmp, "p.json", b"{}"), "--freq", "5"],
         False),
        (lambda tmp, image: ["run", _write(tmp, "t.elf", _TRUNCATED_ELF)], False),
        (lambda tmp, image: ["campaign", _write(tmp, "c.json", json.dumps(
            {"version": 1, "system": {"image": _write(tmp, "t.elf", _TRUNCATED_ELF)}}).encode())],
         False),
        (lambda tmp, image: ["run", _write(tmp, "m.elf", mini_elf([(0x0, bytes(8), 4)], 0))],
         False),
        (lambda tmp, image: ["run", _write(tmp, "b.elf", mini_elf([(0x0, b"", 0x10000)], 0))],
         False),
        (lambda tmp, image: ["power", "--freq", "10", "--calibration",
                             _calibration(tmp, calibration_freq_mhz=0)], False),
        (lambda tmp, image: ["power", "--freq", "10", "--calibration", _calibration(
            tmp, scenarios_scrub_off_mw={"mixed": {"core": 1, "sram": 1, "periph": 1, "total": 0}})],
         False),
        (lambda tmp, image: ["power", "--freq", "10", "--calibration",
                             _calibration(tmp, scenarios_scrub_off_mw=[])], False),
    ],
    ids=["campaign-dir", "run-dir", "campaign-non-utf8", "stimulus-non-utf8",
         "stimulus-level-2", "stimulus-byte-256",
         "calibration-non-utf8", "campaign-bad-json", "calibration-bad-json", "campaign-list",
         "calibration-empty", "run-elf-truncated-headers", "campaign-elf-truncated-headers",
         "run-elf-memsz-below-filesz", "run-elf-memsz-past-sram", "calibration-freq-0",
         "calibration-total-0", "calibration-table-array"],
)
def test_unreadable_or_non_object_input_is_a_config_error(
    tmp_path, image_path, capsys, argv, names_file
):
    args = argv(tmp_path, str(image_path))
    assert main(args) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:")
    if names_file:  # the unreadable file is the last argument
        assert args[-1] in line


def test_power_single_frequency(capsys):
    assert main(["power", "--scenario", "dhrystone", "--freq", "50"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("freq_mhz\t")
    fields = out[1].split("\t")
    assert float(fields[0]) == 50
    assert abs(float(fields[-1]) - 20.08) < 1e-6


def test_power_sweep_endpoints(tmp_path):
    table = tmp_path / "sweep.tsv"
    code = main(
        ["power", "--scenario", "dhrystone", "--fmin", "1", "--fmax", "50",
         "--points", "50", "--out", str(table)]
    )
    assert code == EXIT_OK
    lines = table.read_text().splitlines()
    assert len(lines) == 51
    last = lines[-1].split("\t")
    assert abs(float(last[-1]) - 20.08) < 1e-6


def test_power_scrub_off_variant(capsys):
    assert main(["power", "--freq", "50", "--scrub-off"]) == EXIT_OK
    line = capsys.readouterr().out.splitlines()[1].split("\t")
    assert abs(float(line[-1]) - 14.94) < 1e-6


def test_power_unknown_scenario(capsys):
    assert main(["power", "--scenario", "warp", "--freq", "10"]) == EXIT_CONFIG
