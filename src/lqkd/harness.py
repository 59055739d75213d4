"""Experiment orchestration and artifact persistence.

Single runs and parameter sweeps over the three protocols, with
deterministic per-point seeding, canonical (byte-stable) report JSON,
and CSV transcripts that round-trip through the ``analyze`` path.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, nettop, resgen
from .attacks import AttackSpec, attack_from_dict, intercept_detection_frequency
from .nettop import Layer, Network
from .qkd_engine import (
    ConfigError,
    QkdConfig,
    RunResult,
    extract_keys_compiled,
    report_from_transcript,
    run_qkd,
)
from .seeding import derive_round_seed, derive_seed  # noqa: F401  (derive_round_seed is public API)
from .sqkd_engine import SqkdConfig, extract_sqkd_keys, run_sqkd, sqkd_report_from_transcript
# run_experiment and analyze_transcript call the transcript codec through
# these names; perfbench/tracer.py times it here.
from .transcript import read_qkd_transcript, read_sqkd_transcript, write_qkd_transcript, write_sqkd_transcript

SCHEMA_VERSION = "1"
PROTOCOLS = ("qkd", "sqkd", "boyer")
SWEEPABLE = ("F", "probability", "rounds", "key_length", "delta", "seed", "l")


def two_party_network(hub_name: str = "Alice", peer_name: str = "Bob") -> Network:
    """The boyer baseline's network: one layer of two parties, whose sets are
    {|0>,|1>} and {|+>,|->}."""
    return Network(names=(hub_name, peer_name), hub=0, layers=(Layer(members=(0, 1), ref_dim=2),))


def _engine(protocol: str, truncated: bool) -> str:
    """The engine that runs ``protocol``: boyer is sqkd on the two-party network.

    The reduced resource family needs two layers, so a truncated boyer run
    is rejected.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"field 'protocol': expected one of {PROTOCOLS}, got {protocol!r}")
    if protocol == "boyer" and truncated:
        raise ConfigError("field 'truncated': the boyer baseline has no truncated resource")
    return "qkd" if protocol == "qkd" else "sqkd"


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one experiment (or sweep of experiments)."""

    protocol: str
    network: Optional[dict] = None
    rounds: Optional[int] = None
    key_length: Optional[int] = None
    delta: float = 0.25
    seed: int = 0
    check_fraction: float = 0.1
    truncated: bool = False
    attack: Optional[dict] = None
    sweep: Optional[tuple[str, tuple]] = None
    trials: int = 10000
    out_dir: Optional[str] = None
    write_transcript: bool = False

    def resolved_network(self) -> Network:
        if self.protocol == "boyer":
            return two_party_network()
        if self.network is None:
            raise ConfigError("field 'network': required for this protocol")
        return nettop.from_dict(self.network)


def spec_from_dict(doc: dict) -> ExperimentSpec:
    known = {f for f in ExperimentSpec.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown experiment fields: {sorted(unknown)}")
    sweep = doc.get("sweep")
    if isinstance(sweep, dict):
        # the form spec_to_dict writes into a report's config block
        sweep = (sweep["parameter"], sweep["values"])
    if sweep is not None:
        sweep = (str(sweep[0]), tuple(sweep[1]))
    return ExperimentSpec(**{**doc, "sweep": sweep})


def spec_to_dict(spec: ExperimentSpec) -> dict:
    doc = {
        "protocol": spec.protocol,
        "seed": spec.seed,
        "truncated": spec.truncated,
    }
    if spec.network is not None:
        doc["network"] = spec.network
    if spec.rounds is not None:
        doc["rounds"] = spec.rounds
        doc["check_fraction"] = spec.check_fraction
    if spec.key_length is not None:
        doc["key_length"] = spec.key_length
        doc["delta"] = spec.delta
    if spec.attack is not None:
        doc["attack"] = spec.attack
    if spec.sweep is not None:
        doc["sweep"] = {"parameter": spec.sweep[0], "values": list(spec.sweep[1])}
        if spec.sweep[0] == "l":
            # only the detection sweep draws trials; other configs stay as they were
            doc["trials"] = spec.trials
    return doc


# ---------------------------------------------------------------------------
# Canonical serialization


def _canonicalize(obj):
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def canonical_json(doc) -> bytes:
    """Sorted-key compact JSON with floats at 12 significant digits."""
    return json.dumps(_canonicalize(doc), sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_report_bytes(doc: dict) -> bytes:
    """Canonical bytes of a report document, timestamps excluded."""
    return canonical_json({k: v for k, v in doc.items() if k != "meta"})


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return "" if value is None else str(value)


def write_csv(path_or_buf, columns, rows) -> None:
    own = isinstance(path_or_buf, (str, Path))
    handle = open(path_or_buf, "w", newline="", encoding="utf-8") if own else path_or_buf
    try:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if own:
            handle.close()


def analyze_transcript(protocol: str, network: Network, path, truncated: bool = False) -> analysis.Report:
    """Recompute the full report from a persisted transcript."""
    engine = _engine(protocol, truncated)
    compiled = resgen.compile_states(network, truncated)
    if engine == "qkd":
        transcript = read_qkd_transcript(path, compiled)
        keys = extract_keys_compiled(transcript, compiled)
        report = report_from_transcript("qkd", transcript, compiled, keys)
    else:
        transcript = read_sqkd_transcript(path, compiled)
        keys = extract_sqkd_keys(transcript, compiled)
        report = sqkd_report_from_transcript(transcript, compiled, keys)
    report.protocol = protocol
    return report


# ---------------------------------------------------------------------------
# Experiment execution


def _worker_count(points: int) -> int:
    env = os.environ.get("LQKD_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"LQKD_THREADS must be an integer, got {env!r}") from None
    else:
        cap = os.cpu_count() or 1
    return max(1, min(points, cap))


def _bound_attack(spec: ExperimentSpec, network: Network) -> AttackSpec:
    """The spec's attack, whose target must be one of the network's participants."""
    attack = attack_from_dict(spec.attack)
    if attack.target is not None and attack.target not in network.names:
        raise ConfigError(f"field 'attack': target {attack.target!r} is not a participant of the network")
    return attack


def _run_protocol(spec: ExperimentSpec) -> RunResult:
    engine = _engine(spec.protocol, spec.truncated)
    network = spec.resolved_network()
    attack = _bound_attack(spec, network)
    if engine == "qkd":
        if spec.rounds is None:
            raise ConfigError("field 'rounds': required for the qkd protocol")
        result = run_qkd(
            QkdConfig(
                network=network,
                rounds=spec.rounds,
                check_fraction=spec.check_fraction,
                seed=spec.seed,
                attack=attack,
                truncated=spec.truncated,
            )
        )
    else:
        if spec.key_length is None:
            raise ConfigError(f"field 'key_length': required for the {spec.protocol} protocol")
        result = run_sqkd(
            SqkdConfig(
                network=network,
                key_length=spec.key_length,
                delta=spec.delta,
                seed=spec.seed,
                attack=attack,
                truncated=spec.truncated,
            )
        )
    result.report.protocol = spec.protocol
    return result


def _sweep_point_spec(spec: ExperimentSpec, param: str, value) -> ExperimentSpec:
    point = replace(spec, sweep=None, write_transcript=False, out_dir=None)
    if param in ("F", "probability"):
        if spec.attack is None:
            raise ConfigError(f"field 'sweep': parameter {param!r} requires an attack")
        key = "F" if param == "F" else "probability"
        point = replace(point, attack={**spec.attack, key: value})
        text = repr(float(value))
    elif param == "rounds":
        point = replace(point, rounds=int(value))
        text = str(int(value))
    elif param == "key_length":
        point = replace(point, key_length=int(value))
        text = str(int(value))
    elif param == "delta":
        point = replace(point, delta=float(value))
        text = repr(float(value))
    elif param == "seed":
        return replace(point, seed=int(value))
    else:
        raise ConfigError(f"field 'sweep': unknown parameter {param!r}; expected one of {SWEEPABLE}")
    # every point owns a seed space derived from its value, so shuffling the
    # value list permutes rows without changing them; the value is spelled
    # canonically, so that 1 and 1.0 name the same experiment
    return replace(point, seed=derive_seed(spec.seed, "sweep", param, text))


def _cloning_curve(dim: int):
    """The cloning-attack curves of a ``dim``-dimensional channel; None where none is known."""
    return {2: analysis.mi_cloning_qubit, 4: analysis.mi_cloning_ququart}.get(dim)


def _summary_row(param: str, value, spec: ExperimentSpec, result: RunResult) -> dict:
    doc = result.report.to_dict()
    row: dict = {param: value, "abort": doc["abort"]}
    for name, stats in doc["participants"].items():
        row[f"qber_{name}"] = stats["qber"]
    for layer_id, stats in doc["layers"].items():
        row[f"entropy_L{layer_id}"] = stats["entropy_bits"]
        row[f"bits_per_transmission_L{layer_id}"] = stats["bits_per_transmission"]
    if spec.attack and spec.attack.get("kind") == "cloning" and param == "F":
        network = spec.resolved_network()
        curve = _cloning_curve(network.local_dim(network.index_of(spec.attack["target"])))
        if curve is not None:
            point = curve(float(value))
            row.update(i_ab=point.i_ab, f_e=point.eve_fidelity, i_ae=point.i_ae)
    return row


def _detection_sweep_rows(spec: ExperimentSpec, values) -> list[dict]:
    network = spec.resolved_network()
    attack = _bound_attack(spec, network)
    if attack.kind != "intercept_resend":
        raise ConfigError("field 'sweep': parameter 'l' requires an intercept_resend attack")
    d = network.local_dim(network.index_of(attack.target))
    return [_intercept_row(d, l, spec.trials, derive_seed(spec.seed, "sweep", "l", f"{l}"))
            for l in map(int, values)]


def _intercept_row(dim: int, l: int, trials: int, seed: int) -> dict:
    """Detection of intercept-resend in ``l`` mismatched rounds: closed form and Monte Carlo."""
    rng = np.random.default_rng(seed)
    return {"l": l, "expected": 1.0 - float(dim) ** (-l),
            "frequency": intercept_detection_frequency(dim, l, trials, rng), "trials": trials}


@dataclass
class ExperimentResult:
    document: dict
    report: Optional[analysis.Report] = None
    result: Optional[RunResult] = None
    sweep_rows: list[dict] = field(default_factory=list)
    paths: dict = field(default_factory=dict)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment or sweep; write artifacts when an output dir is set."""
    document: dict = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
        "config": spec_to_dict(spec),
    }
    out = ExperimentResult(document=document)

    if spec.sweep is not None:
        param, values = spec.sweep
        if param not in SWEEPABLE:
            raise ConfigError(f"field 'sweep': unknown parameter {param!r}; expected one of {SWEEPABLE}")
        if param == "l":
            rows = _detection_sweep_rows(spec, values)
        else:
            # imported here: it pulls in threading and logging, which single runs never use
            from concurrent.futures import ThreadPoolExecutor

            points = [_sweep_point_spec(spec, param, v) for v in values]
            with ThreadPoolExecutor(max_workers=_worker_count(len(points))) as pool:
                results = list(pool.map(_run_protocol, points))
            rows = [_summary_row(param, v, p, r) for v, p, r in zip(values, points, results)]
        out.sweep_rows = rows
        document["sweep"] = {"parameter": param, "rows": rows}
    else:
        result = _run_protocol(spec)
        out.result = result
        out.report = result.report
        document["report"] = result.report.to_dict()
        document["meta"]["dropped_by_decoding"] = {
            str(i): key.dropped for i, key in result.keys.layers.items()
        }

    if spec.out_dir is not None:
        out_dir = Path(spec.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(_canonicalize(document), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.paths["report"] = str(report_path)
        if out.sweep_rows:
            sweep_path = out_dir / "sweep.csv"
            columns = list(out.sweep_rows[0].keys())
            write_csv(sweep_path, columns, [[row[c] for c in columns] for row in out.sweep_rows])
            out.paths["sweep"] = str(sweep_path)
        if spec.write_transcript and out.result is not None:
            transcript_path = out_dir / "transcript.csv"
            network = spec.resolved_network()
            if spec.protocol == "qkd":
                write_qkd_transcript(transcript_path, out.result.transcript, network)
            else:
                write_sqkd_transcript(transcript_path, out.result.transcript, network)
            out.paths["transcript"] = str(transcript_path)
    return out


# ---------------------------------------------------------------------------
# Compiled-states document (build-states)


def states_document(network: Network, truncated: bool = False, amplitudes: bool = False) -> dict:
    """JSON description of the compiled prepare sets."""
    compiled = resgen.compile_states(network, truncated)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "participants": [network.names[c.participant] for c in compiled.codings],
        "local_dimensions": {network.names[c.participant]: c.dim for c in compiled.codings},
        "truncated": compiled.truncated,
    }
    for set_id in (1, 2):
        pset = compiled.prepare_set(set_id)
        states = []
        for k, state in enumerate(pset.states):
            entry = {
                "layer_symbols": [s for s in state.layer_symbols],
                "local": {
                    network.names[c.participant]: {
                        "basis": pset.basis.value,
                        "index": state.indices[slot],
                    }
                    for slot, c in enumerate(compiled.codings)
                },
            }
            if amplitudes:
                for slot, c in enumerate(compiled.codings):
                    ket = compiled.local_ket(set_id, k, slot)
                    entry["local"][network.names[c.participant]]["amplitudes"] = [
                        [float(z.real), float(z.imag)] for z in ket.amplitudes
                    ]
            states.append(entry)
        doc[f"set{set_id}"] = states
    return doc


def scan_cloning_rows(dim: int, fidelities) -> list[dict]:
    fn = _cloning_curve(dim)
    if fn is None:
        raise ConfigError(f"field 'dim': cloning curves are defined for 2 and 4, got {dim}")
    points = [fn(float(f)) for f in fidelities]
    return [{"F": p.fidelity, "i_ab": p.i_ab, "f_e": p.eve_fidelity, "f_e_clamped": p.eve_fidelity_clamped,
             "i_ae": p.i_ae} for p in points]


def scan_intercept_rows(dim: int, l_max: int, trials: int, seed: int) -> list[dict]:
    return [_intercept_row(dim, l, trials, derive_seed(seed, "scan", "intercept", dim, l))
            for l in range(1, l_max + 1)]


def rows_to_csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    columns = list(rows[0].keys()) if rows else []
    write_csv(buf, columns, [[row[c] for c in columns] for row in rows])
    return buf.getvalue().encode("utf-8")
