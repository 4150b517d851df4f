"""Command-line surface: run programs, launch fault campaigns, tabulate power.

Exit codes: 0 success; 2 configuration/usage error; 3 simulation fault (bus fault,
illegal instruction); 4 cycle-budget timeout; 5 campaign ran but violated a
``--strict`` expectation (uncorrectable fault, divergence, or counter mismatch).

All outputs are plain data: JSON for summaries and machine-readable records
(schema-versioned JSON lines), tab-separated tables for plot data.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, SimError, SimTimeout
from .kernel import MID_CYCLE, Kernel, SystemConfig, parse_stimulus
from .power import PowerModel, canonical_scenario, power_table
from .seu import CampaignConfig, counter_crosscheck, run_campaign
from .tmr import DOMAIN_NAMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIM_FAULT = 3
EXIT_TIMEOUT = 4
EXIT_STRICT = 5

RECORD_SCHEMA_VERSION = 1
TRACE_SCHEMA_VERSION = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tmrv32",
        description="Cycle-level simulator of a TMR-protected RV32IMC microcontroller",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a program image to its halt")
    run.add_argument("image", help="raw binary or RISC-V ELF32 image")
    run.add_argument("--base", type=lambda s: int(s, 0), default=0, help="load address for raw images")
    run.add_argument("--entry", type=lambda s: int(s, 0), default=None, help="entry pc override")
    run.add_argument("--max-cycles", type=int, default=1_000_000)
    run.add_argument("--freq", type=float, default=50.0, help="clock in MHz (reports only)")
    run.add_argument("--scrub-off", action="store_true", help="disable the SRAM scrubber")
    run.add_argument("--scrub-divider", type=int, default=1)
    run.add_argument("--stimulus", help="cycle-stamped GPIO/UART stimulus file")
    run.add_argument("--tx-out", help="write UART transmit bytes to this file")
    run.add_argument("--report", help="write the run summary as JSON here")
    run.add_argument(
        "--flip",
        action="append",
        default=[],
        metavar="CYCLE:TARGET:REPLICA:BIT[:PHASE]",
        help="inject one bit flip (repeatable); TARGET is a cell id or an SRAM row number, "
        "PHASE is mid-cycle (the default) or edge-aligned",
    )
    run.add_argument(
        "--trace-out",
        help="write the event stream (flips, discrepancies with their source, repairs, "
        "retirements, the halt) as JSON lines",
    )

    camp = sub.add_parser("campaign", help="run a fault-injection campaign from a config file")
    camp.add_argument("config", help="campaign configuration (JSON, version 1)")
    camp.add_argument("--out-dir", help="directory for records.jsonl, summary.json, plot tables")
    camp.add_argument(
        "--strict",
        action="store_true",
        help="exit 5 on any uncorrectable fault, divergence, or counter mismatch",
    )

    power = sub.add_parser("power", help="tabulate the calibrated power model")
    power.add_argument("--scenario", default="mixed", help="mixed|register|sram (alias: dhrystone)")
    power.add_argument("--freq", type=float, default=None, help="single frequency in MHz")
    power.add_argument("--fmin", type=float, default=1.0)
    power.add_argument("--fmax", type=float, default=50.0)
    power.add_argument("--points", type=int, default=50)
    power.add_argument("--scrub-off", action="store_true")
    power.add_argument("--calibration", help="alternate calibration JSON")
    power.add_argument("--out", help="write the TSV table here instead of stdout")
    return parser


def _read_input(path, parse=str):
    """``parse`` of the text of an input file; a file that does not decode or parse is a
    ConfigError naming it."""
    try:
        return parse(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_run(args):
    stimulus = ()
    if args.stimulus:
        stimulus = parse_stimulus(_read_input(args.stimulus))
    config = SystemConfig(
        image=args.image,
        image_base=args.base,
        entry_pc=args.entry,
        freq_mhz=args.freq,
        scrub_enabled=not args.scrub_off,
        scrub_divider=args.scrub_divider,
        max_cycles=args.max_cycles,
        stimulus=stimulus,
        record_events=bool(args.trace_out),
    )
    kernel = Kernel(config)
    for spec in args.flip:
        _schedule_flip(kernel, spec)
    result = kernel.run()
    summary = dataclasses.asdict(result)
    summary["seu_counters"] = dict(zip(DOMAIN_NAMES.values(), summary.pop("counters")))
    summary["schema_version"] = RECORD_SCHEMA_VERSION
    summary["sim_seconds_at_freq"] = result.cycles / (args.freq * 1e6)
    summary["uart_tx_hex"] = kernel.uart.tx_bytes().hex()
    if args.tx_out:
        Path(args.tx_out).write_bytes(kernel.uart.tx_bytes())
    if args.trace_out:
        lines = [json.dumps({"kind": "trace", "schema_version": TRACE_SCHEMA_VERSION})]
        lines += [_trace_line(rec) for rec in kernel.sink]
        Path(args.trace_out).write_text("\n".join(lines) + "\n")
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _schedule_flip(kernel, spec):
    parts = spec.split(":")
    try:
        if len(parts) not in (4, 5):
            raise ValueError
        cycle, replica, bit = int(parts[0], 0), int(parts[2]), int(parts[3])
    except ValueError:
        raise ConfigError(f"--flip {spec!r}: expected CYCLE:TARGET:REPLICA:BIT[:PHASE]") from None
    target = parts[1]
    if target.isdigit():
        kind, key = "sram", int(target)
    else:
        kind, key = "cell", target
    phase = parts[4] if len(parts) == 5 else MID_CYCLE
    kernel.schedule_flip(cycle, kind, key, replica, bit, phase=phase)


def _trace_line(rec):
    fields = rec._asdict()
    fields["kind"] = type(rec).__name__.lower()
    if "domain" in fields:
        fields["domain"] = DOMAIN_NAMES[fields["domain"]]
    return json.dumps(fields, sort_keys=True)


def _cmd_campaign(args):
    cfg_data = _read_input(args.config, json.loads)
    config = CampaignConfig.from_dict(cfg_data)
    report = run_campaign(config)
    crosscheck = counter_crosscheck(report)
    summary = dict(report.summary)
    summary["schema_version"] = RECORD_SCHEMA_VERSION
    summary["counter_crosscheck"] = crosscheck

    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "records.jsonl").write_text(report.to_jsonl())
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        hist = report.latency_histogram()
        lines = ["latency_cycles\tcount"]
        lines += [f"{lat}\t{n}" for lat, n in hist.items()]
        (out / "latency_hist.tsv").write_text("\n".join(lines) + "\n")
        lines = ["record_index\tcore\tsram\tperiph"]
        for rec in report.records:
            c = rec["counters"]
            lines.append(f"{rec['index']}\t{c[0]}\t{c[1]}\t{c[2]}")
        (out / "counter_timeline.tsv").write_text("\n".join(lines) + "\n")

    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.strict and (
        summary["uncorrectable"] or summary["diverged"] or not crosscheck
    ):
        return EXIT_STRICT
    return EXIT_OK


def _cmd_power(args):
    calibration = None
    if args.calibration:
        calibration = _read_input(args.calibration, json.loads)
    model = PowerModel(calibration)
    scenario = canonical_scenario(args.scenario)
    for flag, value in (("--freq", args.freq), ("--fmin", args.fmin), ("--fmax", args.fmax)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value!r}")
    if args.freq is not None:
        freqs = [args.freq]
    else:
        if args.points < 2 or args.fmax <= args.fmin:
            raise ConfigError("need points >= 2 and fmax > fmin")
        step = (args.fmax - args.fmin) / (args.points - 1)
        freqs = [args.fmin + i * step for i in range(args.points)]
    rows = power_table(model, freqs, scenario, scrub_enabled=not args.scrub_off)
    lines = ["freq_mhz\tcore_mw\tsram_mw\tperiph_mw\tleakage_mw\ttotal_mw"]
    for r in rows:
        lines.append(
            f"{r['freq_mhz']:.6g}\t{r['core_mw']:.6f}\t{r['sram_mw']:.6f}"
            f"\t{r['periph_mw']:.6f}\t{r['leakage_mw']:.6f}\t{r['total_mw']:.6f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        return _cmd_power(args)
    except SimTimeout as e:
        print(f"timeout: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SimError as e:
        print(f"simulation fault: {e}", file=sys.stderr)
        return EXIT_SIM_FAULT


if __name__ == "__main__":
    sys.exit(main())
