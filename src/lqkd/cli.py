"""Command-line interface.

Subcommands: build-states, run-qkd, run-sqkd, run-boyer, analyze, scan.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, nettop
from .attacks import AttackConfigError, attack_from_dict
from .nettop import InvalidNetworkError
from .qkd_engine import ConfigError


def _parse_attack(arg: str | None) -> dict | None:
    if arg is None or arg == "none":
        return None
    if arg.lstrip().startswith("{"):
        doc = json.loads(arg)
    elif ":" in arg and not Path(arg).exists():
        # preset form kind:target[:F], e.g. cloning:Bob1:0.9
        parts = arg.split(":")
        doc = {"kind": parts[0], "target": parts[1]}
        if len(parts) > 2:
            doc["F"] = float(parts[2])
    else:
        with open(arg, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    attack_from_dict(doc)  # validate early
    return doc


def _parse_sweep(arg: str | None):
    if arg is None:
        return None
    if "=" not in arg:
        raise ConfigError("field 'sweep': expected <param>=<v1,v2,...>")
    param, _, values = arg.partition("=")
    parsed = []
    for raw in values.split(","):
        raw = raw.strip()
        if raw == "":
            continue
        try:
            parsed.append(int(raw))
        except ValueError:
            parsed.append(float(raw))
    if not parsed:
        raise ConfigError("field 'sweep': no values given")
    return (param.strip(), tuple(parsed))


def _parse_values(arg: str) -> list[float]:
    return [float(v) for v in arg.split(",") if v.strip() != ""]


def _emit(data: bytes | str, out: str | None) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if out is None:
        sys.stdout.buffer.write(data)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_bytes(data)


def _add_common_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument(
        "--attack",
        default=None,
        help="attack spec: JSON file, inline JSON, or preset kind:target[:F]",
    )
    sub.add_argument("--out", default=None, help="output directory for report.json (and friends)")
    sub.add_argument("--transcript", action="store_true", help="also write transcript.csv")
    sub.add_argument("--sweep", default=None, help="parameter sweep, e.g. F=1.0,0.95,0.9")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lqkd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-states", help="compile and print the prepare sets")
    p.add_argument("--network", required=True)
    p.add_argument("--truncated", action="store_true")
    p.add_argument("--amplitudes", action="store_true", help="include state amplitudes")
    p.add_argument("--out", default=None)

    p = subs.add_parser("run-qkd", help="run the one-way layered protocol")
    p.add_argument("--network", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--check-fraction", type=float, default=0.1)
    p.add_argument("--truncated", action="store_true")
    _add_common_run_args(p)

    p = subs.add_parser("run-sqkd", help="run the two-way layered protocol")
    p.add_argument("--network", required=True)
    p.add_argument("--key-length", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--truncated", action="store_true")
    _add_common_run_args(p)

    p = subs.add_parser("run-boyer", help="run the two-party semi-quantum baseline")
    p.add_argument("--key-length", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.25)
    _add_common_run_args(p)

    p = subs.add_parser("analyze", help="rebuild a report from a transcript dump")
    p.add_argument("--protocol", required=True, choices=harness.PROTOCOLS)
    p.add_argument("--network", default=None, help="network config (omit for boyer)")
    p.add_argument("--transcript", required=True)
    p.add_argument("--truncated", action="store_true")
    p.add_argument("--out", default=None)

    p = subs.add_parser("scan", help="emit analytic/Monte-Carlo CSV curves")
    scan_subs = p.add_subparsers(dest="scan_kind", required=True)
    c = scan_subs.add_parser("cloning", help="fidelity vs mutual-information curves")
    c.add_argument("--dim", type=int, required=True, choices=(2, 4))
    c.add_argument("--f-values", default="1.0,0.95,0.9,0.85,0.8,0.75,0.7,0.65,0.6,0.55,0.5")
    c.add_argument("--out", default=None)
    c = scan_subs.add_parser("intercept", help="checked-round count vs detection probability")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--l-max", type=int, default=10)
    c.add_argument("--trials", type=int, default=10000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "build-states":
        network = nettop.load(args.network)
        nettop.require_valid(network)
        doc = harness.states_document(network, truncated=args.truncated, amplitudes=args.amplitudes)
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.command in ("run-qkd", "run-sqkd", "run-boyer"):
        protocol = args.command.removeprefix("run-")
        doc: dict = {
            "protocol": protocol,
            "seed": args.seed,
            "attack": _parse_attack(args.attack),
            "sweep": _parse_sweep(args.sweep),
            "out_dir": args.out,
            "write_transcript": args.transcript,
        }
        if protocol == "qkd":
            doc.update(
                network=nettop.to_dict(nettop.load(args.network)),
                rounds=args.rounds,
                check_fraction=args.check_fraction,
                truncated=args.truncated,
            )
        elif protocol == "sqkd":
            doc.update(
                network=nettop.to_dict(nettop.load(args.network)),
                key_length=args.key_length,
                delta=args.delta,
                truncated=args.truncated,
            )
        else:
            doc.update(key_length=args.key_length, delta=args.delta)
        spec = harness.spec_from_dict(doc)
        result = harness.run_experiment(spec)
        if spec.out_dir is None:
            _emit(json.dumps(harness._canonicalize(result.document), indent=2, sort_keys=True) + "\n", None)
        else:
            for kind, path in sorted(result.paths.items()):
                print(f"{kind}: {path}")
        if result.report is not None and result.report.abort:
            print("warning: eavesdropping check failed; protocol aborted", file=sys.stderr)
        return 0

    if args.command == "analyze":
        network = None if args.network is None else nettop.to_dict(nettop.load(args.network))
        spec = harness.ExperimentSpec(protocol=args.protocol, network=network)
        report = harness.analyze_transcript(args.protocol, spec.resolved_network(), args.transcript, args.truncated)
        doc = {
            "schema_version": harness.SCHEMA_VERSION,
            "report": report.to_dict(),
        }
        _emit(json.dumps(harness._canonicalize(doc), indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.command == "scan":
        if args.scan_kind == "cloning":
            rows = harness.scan_cloning_rows(args.dim, _parse_values(args.f_values))
        else:
            rows = harness.scan_intercept_rows(args.dim, args.l_max, args.trials, args.seed)
        _emit(harness.rows_to_csv_bytes(rows), args.out)
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, AttackConfigError, InvalidNetworkError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
