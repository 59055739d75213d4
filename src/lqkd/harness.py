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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, nettop, resgen
from .attacks import attack_from_dict, intercept_detection_frequency
from .nettop import Network
from .qkd_engine import (
    ConfigError,
    QkdConfig,
    RoundRecord,
    RunResult,
    extract_keys_compiled,
    report_from_transcript,
    run_qkd,
)
from .seeding import derive_round_seed, derive_seed  # noqa: F401  (derive_round_seed is public API)
from .sqkd_engine import (
    SqkdConfig,
    SqkdRound,
    extract_sqkd_keys,
    run_boyer_baseline,
    run_sqkd,
    sqkd_report_from_transcript,
    two_party_network,
)

SCHEMA_VERSION = "1"
PROTOCOLS = ("qkd", "sqkd", "boyer")
SWEEPABLE = ("F", "probability", "rounds", "key_length", "delta", "seed", "l")


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


# ---------------------------------------------------------------------------
# Transcript persistence


def _bob_names(network: Network) -> list[str]:
    return [network.names[j] for j in sorted(network.non_hub())]


def qkd_transcript_columns(network: Network) -> list[str]:
    names = _bob_names(network)
    return (
        ["round", "set", "state"]
        + [f"basis_{n}" for n in names]
        + [f"outcome_{n}" for n in names]
        + ["retained", "check"]
    )


def write_qkd_transcript(path, transcript, network: Network) -> None:
    rows = []
    for rec in transcript:
        rows.append(
            [rec.index, rec.alice_set, rec.alice_state]
            + list(rec.bases)
            + list(rec.outcomes)
            + [";".join(str(i) for i in rec.retained_for), rec.used_for_check]
        )
    write_csv(path, qkd_transcript_columns(network), rows)


def read_qkd_transcript(path, network: Network) -> list[RoundRecord]:
    n_bobs = len(network.non_hub())
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != qkd_transcript_columns(network):
            raise ConfigError("transcript header does not match the network's participants")
        for row in reader:
            index, set_id, state = int(row[0]), int(row[1]), int(row[2])
            bases = tuple(int(v) for v in row[3 : 3 + n_bobs])
            outcomes = tuple(int(v) for v in row[3 + n_bobs : 3 + 2 * n_bobs])
            retained = tuple(int(v) for v in row[3 + 2 * n_bobs].split(";") if v != "")
            check = row[4 + 2 * n_bobs] == "1"
            records.append(
                RoundRecord(
                    index=index,
                    alice_set=set_id,
                    alice_state=state,
                    bases=bases,
                    outcomes=outcomes,
                    retained_for=retained,
                    used_for_check=check,
                )
            )
    return records


def sqkd_transcript_columns(network: Network) -> list[str]:
    names = _bob_names(network)
    return (
        ["round", "set", "state"]
        + [f"action_{n}" for n in names]
        + [f"outcome_{n}" for n in names]
        + [f"return_{n}" for n in names]
    )


def write_sqkd_transcript(path, transcript, network: Network) -> None:
    rows = []
    for rec in transcript:
        rows.append(
            [rec.index, rec.alice_set, rec.alice_state]
            + list(rec.actions)
            + list(rec.outcomes)
            + list(rec.returns)
        )
    write_csv(path, sqkd_transcript_columns(network), rows)


def read_sqkd_transcript(path, network: Network) -> list[SqkdRound]:
    n_bobs = len(network.non_hub())
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != sqkd_transcript_columns(network):
            raise ConfigError("transcript header does not match the network's participants")
        for row in reader:
            index, set_id, state = int(row[0]), int(row[1]), int(row[2])
            actions = tuple(row[3 : 3 + n_bobs])
            outcomes = tuple(None if v == "" else int(v) for v in row[3 + n_bobs : 3 + 2 * n_bobs])
            returns = tuple(int(v) for v in row[3 + 2 * n_bobs : 3 + 3 * n_bobs])
            records.append(
                SqkdRound(
                    index=index,
                    alice_set=set_id,
                    alice_state=state,
                    actions=actions,
                    outcomes=outcomes,
                    returns=returns,
                )
            )
    return records


def analyze_transcript(protocol: str, network: Network, path, truncated: bool = False) -> analysis.Report:
    """Recompute the full report from a persisted transcript."""
    compiled = resgen.compile_truncated(network) if truncated else resgen.compile_network(network)
    if protocol == "qkd":
        transcript = read_qkd_transcript(path, network)
        keys = extract_keys_compiled(transcript, compiled)
        return report_from_transcript("qkd", transcript, compiled, keys)
    if protocol in ("sqkd", "boyer"):
        transcript = read_sqkd_transcript(path, network)
        keys = extract_sqkd_keys(transcript, compiled)
        report = sqkd_report_from_transcript(transcript, compiled, keys)
        report.protocol = protocol
        return report
    raise ConfigError(f"field 'protocol': expected one of {PROTOCOLS}, got {protocol!r}")


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


def _run_protocol(spec: ExperimentSpec) -> RunResult:
    attack = attack_from_dict(spec.attack)
    if spec.protocol == "qkd":
        if spec.rounds is None:
            raise ConfigError("field 'rounds': required for the qkd protocol")
        return run_qkd(
            QkdConfig(
                network=spec.resolved_network(),
                rounds=spec.rounds,
                check_fraction=spec.check_fraction,
                seed=spec.seed,
                attack=attack,
                truncated=spec.truncated,
            )
        )
    if spec.protocol == "sqkd":
        if spec.key_length is None:
            raise ConfigError("field 'key_length': required for the sqkd protocol")
        return run_sqkd(
            SqkdConfig(
                network=spec.resolved_network(),
                key_length=spec.key_length,
                delta=spec.delta,
                seed=spec.seed,
                attack=attack,
                truncated=spec.truncated,
            )
        )
    if spec.protocol == "boyer":
        if spec.key_length is None:
            raise ConfigError("field 'key_length': required for the boyer protocol")
        return run_boyer_baseline(
            key_length=spec.key_length,
            delta=spec.delta,
            seed=spec.seed,
            attack=attack,
        )
    raise ConfigError(f"field 'protocol': expected one of {PROTOCOLS}, got {spec.protocol!r}")


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


def _cloning_curve(attack: dict, network: Network, fidelity: float):
    target_dim = network.local_dim(network.index_of(attack["target"]))
    if target_dim == 2:
        return analysis.mi_cloning_qubit(fidelity)
    if target_dim == 4:
        return analysis.mi_cloning_ququart(fidelity)
    return None


def _summary_row(param: str, value, spec: ExperimentSpec, result: RunResult) -> dict:
    doc = result.report.to_dict()
    row: dict = {param: value, "abort": doc["abort"]}
    for name, stats in doc["participants"].items():
        row[f"qber_{name}"] = stats["qber"]
    for layer_id, stats in doc["layers"].items():
        row[f"entropy_L{layer_id}"] = stats["entropy_bits"]
        row[f"bits_per_transmission_L{layer_id}"] = stats["bits_per_transmission"]
    if spec.attack and spec.attack.get("kind") == "cloning" and param == "F":
        curve = _cloning_curve(spec.attack, spec.resolved_network(), float(value))
        if curve is not None:
            row["i_ab"] = curve.i_ab
            row["f_e"] = curve.eve_fidelity
            row["i_ae"] = curve.i_ae
    return row


def _detection_sweep_rows(spec: ExperimentSpec, values) -> list[dict]:
    attack = attack_from_dict(spec.attack)
    if attack.kind != "intercept_resend":
        raise ConfigError("field 'sweep': parameter 'l' requires an intercept_resend attack")
    network = spec.resolved_network()
    d = network.local_dim(network.index_of(attack.target))
    rows = []
    for value in values:
        l = int(value)
        rng = np.random.default_rng(derive_seed(spec.seed, "sweep", "l", f"{l}"))
        frequency = intercept_detection_frequency(d, l, spec.trials, rng)
        expected = 1.0 - float(d) ** (-l)
        rows.append({"l": l, "expected": expected, "frequency": frequency, "trials": spec.trials})
    return rows


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
    compiled = resgen.compile_truncated(network) if truncated else resgen.compile_network(network)
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
    if dim not in (2, 4):
        raise ConfigError(f"field 'dim': cloning curves are defined for 2 and 4, got {dim}")
    fn = analysis.mi_cloning_qubit if dim == 2 else analysis.mi_cloning_ququart
    rows = []
    for f in fidelities:
        point = fn(float(f))
        rows.append(
            {
                "F": point.fidelity,
                "i_ab": point.i_ab,
                "f_e": point.eve_fidelity,
                "f_e_clamped": point.eve_fidelity_clamped,
                "i_ae": point.i_ae,
            }
        )
    return rows


def scan_intercept_rows(dim: int, l_max: int, trials: int, seed: int) -> list[dict]:
    rows = []
    for l in range(1, l_max + 1):
        rng = np.random.default_rng(derive_seed(seed, "scan", "intercept", dim, l))
        rows.append(
            {
                "l": l,
                "expected": 1.0 - float(dim) ** (-l),
                "frequency": intercept_detection_frequency(dim, l, trials, rng),
                "trials": trials,
            }
        )
    return rows


def rows_to_csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    columns = list(rows[0].keys()) if rows else []
    write_csv(buf, columns, [[row[c] for c in columns] for row in rows])
    return buf.getvalue().encode("utf-8")
