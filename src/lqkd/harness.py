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
    QkdTranscript,
    RunResult,
    extract_keys_compiled,
    report_from_transcript,
    run_qkd,
)
from .seeding import derive_round_seed, derive_seed  # noqa: F401  (derive_round_seed is public API)
from .sqkd_engine import (
    ACTIONS,
    REFLECT,
    SqkdConfig,
    SqkdTranscript,
    extract_sqkd_keys,
    run_sqkd,
    sqkd_report_from_transcript,
)

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


def write_qkd_transcript(path, transcript: QkdTranscript, network: Network) -> None:
    layers = transcript.retained.shape[1]
    patterns = transcript.retained.astype(np.int64) @ (1 << np.arange(layers, dtype=np.int64))
    distinct, retained_codes = np.unique(patterns, return_inverse=True)
    retained_spellings = [_layer_ids([bits >> i & 1 for i in range(layers)]) for bits in distinct.tolist()]
    columns = [_decimal(transcript.index), _decimal(transcript.alice_set), _decimal(transcript.alice_state)]
    columns += [_decimal(column) for column in transcript.bases.T]
    columns += [_decimal(column) for column in transcript.outcomes.T]
    columns += [_spelled(retained_codes, retained_spellings), _decimal(transcript.check)]
    _write_table(path, qkd_transcript_columns(network), columns)


def read_qkd_transcript(path, compiled: resgen.CompiledStates) -> QkdTranscript:
    network = compiled.network
    n_bobs = len(compiled.codings)
    layers = len(network.layers)
    table = _CsvTable(path, qkd_transcript_columns(network))
    transcript = QkdTranscript(
        index=table.integers(0),
        alice_set=table.integers(1),
        alice_state=table.integers(2),
        bases=table.integer_block(3, n_bobs),
        outcomes=table.integer_block(3 + n_bobs, n_bobs),
        retained=table.choices(3 + 2 * n_bobs, lambda cell: _retained_row(cell, layers), bool, (layers,)),
        check=table.choices(4 + 2 * n_bobs, lambda cell: _choice(cell, ("0", "1")), bool),
    )
    _check_prepared(transcript, compiled)
    _require_within(transcript, "basis", transcript.bases, 1, 3)
    _require_within(transcript, "outcome", transcript.outcomes, 0, _dims(compiled))
    return transcript


def sqkd_transcript_columns(network: Network) -> list[str]:
    names = _bob_names(network)
    return (
        ["round", "set", "state"]
        + [f"action_{n}" for n in names]
        + [f"outcome_{n}" for n in names]
        + [f"return_{n}" for n in names]
    )


def write_sqkd_transcript(path, transcript: SqkdTranscript, network: Network) -> None:
    columns = [_decimal(transcript.index), _decimal(transcript.alice_set), _decimal(transcript.alice_state)]
    columns += [_spelled(column, ACTIONS) for column in transcript.actions.T]
    # a participant that reflected has no outcome: an empty cell
    columns += [_decimal(column, empty=-1) for column in transcript.outcomes.T]
    columns += [_decimal(column) for column in transcript.returns.T]
    _write_table(path, sqkd_transcript_columns(network), columns)


def read_sqkd_transcript(path, compiled: resgen.CompiledStates) -> SqkdTranscript:
    n_bobs = len(compiled.codings)
    table = _CsvTable(path, sqkd_transcript_columns(compiled.network))
    transcript = SqkdTranscript(
        index=table.integers(0),
        alice_set=table.integers(1),
        alice_state=table.integers(2),
        actions=np.stack([table.choices(3 + s, lambda cell: _choice(cell, ACTIONS), np.int64)
                          for s in range(n_bobs)], axis=1),
        outcomes=table.integer_block(3 + n_bobs, n_bobs, empty=-1),
        returns=table.integer_block(3 + 2 * n_bobs, n_bobs),
    )
    _check_prepared(transcript, compiled)
    # only a participant that reflected has no outcome
    reflected_none = (transcript.actions == ACTIONS.index(REFLECT)) & (transcript.outcomes == -1)
    _require_within(transcript, "outcome", np.where(reflected_none, 0, transcript.outcomes), 0, _dims(compiled))
    _require_within(transcript, "return", transcript.returns, 0, _dims(compiled))
    return transcript


def _dims(compiled: resgen.CompiledStates) -> np.ndarray:
    return np.array([coding.dim for coding in compiled.codings], dtype=np.int64)


def _check_prepared(transcript, compiled: resgen.CompiledStates) -> None:
    _require_within(transcript, "set", transcript.alice_set, 1, 3)
    _require_within(transcript, "state", transcript.alice_state, 0, compiled.size)


def _require_within(transcript, column: str, values: np.ndarray, low: int, high) -> None:
    """Reject a cell outside [low, high): a value the network cannot produce.

    ``high`` may hold one bound per participant column.
    """
    outside = (values < low) | (values >= high)
    if outside.any():
        row = np.argwhere(outside)[0]
        raise ConfigError(
            f"transcript round {transcript.index[row[0]]}: {column} {values[tuple(row)]} lies outside the network"
        )


def _layer_ids(kept) -> str:
    """A retained cell: the ids of the kept layers, ascending and ';'-joined."""
    return ";".join(str(i) for i, k in enumerate(kept) if k)


def _retained_row(cell: str, layers: int) -> list[bool]:
    tokens = cell.split(";")
    kept = [str(i) in tokens for i in range(layers)]
    if _layer_ids(kept) == cell:
        return kept
    if any(v.isascii() and v.isdigit() and int(v) >= layers for v in tokens if len(v) < 10):
        raise ConfigError("retains unknown layers")
    raise ConfigError("is not a list of ascending ';'-joined layer ids")


def _choice(cell: str, spellings) -> int:
    if cell not in spellings:
        raise ConfigError(f"is not one of {tuple(spellings)}")
    return spellings.index(cell)


# ---------------------------------------------------------------------------
# Transcript CSV codec
#
# Transcript cells never need quoting, so the file is handled as bytes: the
# writer lays the rows out in a uint8 matrix, one field per column, and the
# reader finds the separators of the whole body once and parses each column
# from the bytes. The written bytes are those of csv.writer, and the reader
# accepts only that spelling of each cell; lines may end in CR LF, LF or a
# lone CR, and the last line end may be missing.

_PAD = 0  # fills the unused places of a field; dropped when the rows are joined
_COMMA, _LF, _CR, _QUOTE, _ZERO = b',\n\r"0'


def _decimal(values: np.ndarray, empty: Optional[int] = None) -> np.ndarray:
    """The (rows, width) byte field of non-negative integers in decimal,
    right-aligned behind padding; ``empty`` is the value written as an empty cell."""
    values = np.asarray(values, dtype=np.int64)
    blank = None if empty is None else values == empty
    if blank is not None:
        values = np.where(blank, 0, values)
    if values.min(initial=0) < 0:
        raise ValueError("transcript integer cells must be non-negative")
    width = len(str(values.max(initial=0)))
    field = np.empty((len(values), width), dtype=np.uint8)
    rest = values
    for place in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        field[:, place] = digit + _ZERO
        if place < width - 1:
            field[values < 10 ** (width - 1 - place), place] = _PAD  # a leading zero
    if blank is not None:
        field[blank] = _PAD
    return field


def _spelled(codes: np.ndarray, spellings) -> np.ndarray:
    """The (rows, width) byte field of ``spellings[code]``, each spelling encoded once."""
    table = np.full((len(spellings), max(map(len, spellings), default=0)), _PAD, dtype=np.uint8)
    for k, text in enumerate(spellings):
        table[k, : len(text)] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return table[codes]


def _header_line(header: list[str]) -> bytes:
    """The header row as csv.writer spells it, CR LF included."""
    head = io.StringIO()
    csv.writer(head).writerow(header)
    return head.getvalue().encode("utf-8")


def _write_table(path_or_buf, header: list[str], fields: list[np.ndarray]) -> None:
    """Write the header row and one row per field row: the bytes ``write_csv``
    gives for the same cells."""
    rows = len(fields[0])
    matrix = np.full((rows, sum(f.shape[1] for f in fields) + len(fields) + 1), _PAD, dtype=np.uint8)
    at = 0
    for f in fields:
        matrix[:, at : at + f.shape[1]] = f
        at += f.shape[1]
        matrix[:, at] = _COMMA
        at += 1
    matrix[:, at - 1 :] = [_CR, _LF]
    data = _header_line(header) + matrix[matrix != _PAD].tobytes()
    if isinstance(path_or_buf, (str, Path)):
        Path(path_or_buf).write_bytes(data)
    else:
        path_or_buf.write(data.decode("utf-8"))


class _CsvTable:
    """The cells of a transcript file whose first row must be ``header``.

    Every row must hold one cell per header column. The cells are located
    once; each column is parsed from the file's bytes when asked for.
    """

    def __init__(self, path, header: list[str]):
        data = Path(path).read_bytes()
        expected = _header_line(header)[:-2]
        line_end = data[len(expected) : len(expected) + 2]
        if not data.startswith(expected) or line_end[:1] not in (b"\n", b"\r", b""):
            raise ConfigError("transcript header does not match the network's participants")
        offset = len(expected) + (2 if line_end == b"\r\n" else 1)
        if len(data) > offset and data[-1:] not in (b"\n", b"\r"):
            data += b"\n"
        self.body = body = np.frombuffer(data, dtype=np.uint8, offset=min(offset, len(data)))
        self.header = header
        # the separators, and the bytes no cell may hold, sort at or below the
        # comma; the CR of a CR LF pair is part of the line end the LF marks
        mark = body <= _COMMA
        cr = np.flatnonzero(body[:-1] == _CR)
        mark[cr[body[cr + 1] == _LF]] = False
        marks = np.flatnonzero(mark)
        del mark
        byte = body[marks]
        separator = (byte == _COMMA) | (byte == _LF) | (byte == _CR)
        if not separator.all():
            # a NUL would read as padding
            if ((byte == _QUOTE) | (byte == _PAD)).any():
                raise ConfigError("transcript cells must not be quoted or hold NUL bytes")
            marks, byte = marks[separator], byte[separator]
        cells = np.diff(np.flatnonzero(byte != _COMMA), prepend=-1)
        wrong = np.flatnonzero(cells != len(header))
        if wrong.size:
            row = int(wrong[0])
            raise ConfigError(
                f"transcript row {row + 1} has {cells[row]} cells; rows must have one cell per header column"
            )
        # ends[k] holds where each row's k-th cell ends (narrow positions are
        # quicker to transpose); a line's last cell ends before the CR of a CR LF pair
        self.ends = marks.reshape(-1, len(header)).T.astype(np.int32 if len(body) < 2**31 else np.int64)
        self.line_starts = np.zeros_like(self.ends[0])
        self.line_starts[1:] = self.ends[-1, :-1] + 1
        self.ends[-1] -= body[self.ends[-1] - 1] == _CR

    def _cell(self, column: int):
        """Start and width of every row's cell in ``column``."""
        start = self.line_starts if column == 0 else self.ends[column - 1] + 1
        return start, self.ends[column] - start

    def _reject(self, row: int, column: int, why: str):
        start, width = (int(v[row]) for v in self._cell(column))
        cell = self.body[start : start + min(width, 40)].tobytes().decode("utf-8", "replace")
        cell = repr(cell) + ("..." if width > 40 else "")
        raise ConfigError(f"transcript row {row + 1}, column {self.header[column]!r}: cell {cell} {why}")

    def integers(self, column: int, empty: Optional[int] = None) -> np.ndarray:
        """A column of decimal integers: digits only, no leading zero; an
        empty cell reads as ``empty`` where one is allowed."""
        start, width = self._cell(column)
        valid = (width > 0) | (empty is not None)
        valid &= width <= 18  # fits an int64
        values = np.zeros(len(start), dtype=np.int64)
        for place in range(int(min(width.max(initial=0), 18))):
            inside = place < width
            # uint8 arithmetic: a byte below '0' wraps past 9
            digit = np.take(self.body, start + place, mode="clip") - np.uint8(_ZERO)
            valid &= ~inside | (digit <= 9)
            if place == 0:
                valid &= (digit != 0) | (width == 1)
            values = np.where(inside, values * 10 + digit, values)
        if not valid.all():
            self._reject(int(np.argmin(valid)), column, "is not a decimal integer")
        if empty is not None:
            values[width == 0] = empty
        return values

    def integer_block(self, first: int, count: int, empty: Optional[int] = None) -> np.ndarray:
        """(rows, count) integers of the columns ``first`` .. ``first + count - 1``."""
        return np.stack([self.integers(first + k, empty) for k in range(count)], axis=1)

    def choices(self, column: int, parse, dtype, shape: tuple = ()) -> np.ndarray:
        """``parse(cell)`` of every cell, called once per distinct cell; it
        raises ConfigError for a cell outside the column's spellings."""
        start, width = self._cell(column)
        # each cell's bytes packed eight to a word, so equal cells have equal words
        words = []
        for place in range(int(width.max(initial=0))):
            if place % 8 == 0:
                words.append(np.zeros(len(start), dtype=np.uint64))
            byte = np.where(place < width, np.take(self.body, start + place, mode="clip"), _PAD)
            words[-1] |= byte.astype(np.uint64) << np.uint64(8 * (place % 8))
        codes = np.zeros(len(start), dtype=np.intp)
        values = []
        left = np.ones(len(start), dtype=bool)
        while left.any():
            row = int(left.argmax())
            text = self.body[start[row] : start[row] + width[row]].tobytes().decode("utf-8", "replace")
            try:
                values.append(parse(text))
            except ConfigError as exc:
                self._reject(row, column, str(exc))
            same = left.copy()
            for word in words:
                same &= word == word[row]
            codes[same] = len(values) - 1
            left &= ~same
        return np.array(values, dtype=dtype).reshape(-1, *shape)[codes]


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
    network = spec.resolved_network()
    attack = _bound_attack(spec, network)
    if attack.kind != "intercept_resend":
        raise ConfigError("field 'sweep': parameter 'l' requires an intercept_resend attack")
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
