"""Run transcripts: one integer (or bool) numpy column per per-round field.

Both protocols' transcripts, the names and spellings of their CSV
columns, the range checks a read transcript must pass, and the byte codec
that writes and reads them. Row r of every column holds round
``index[r]``, so equality and row permutations treat all fields alike.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import resgen
from .nettop import Network
from .resgen import ConfigError

MEASURE = "measure"
REFLECT = "reflect"
ACTIONS = (MEASURE, REFLECT)  # indexed by the drawn action code
EVE_FILL = -1  # every cell of the eve column on a row that was not attacked


def columns_equal(a, b) -> bool:
    """Field-by-field equality of two columnar transcripts of one type."""
    if type(a) is not type(b):
        return False
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


class _Columns:
    """What both transcript types share. Eve's columns default to a run
    nobody attacked: no row attacked, a zero-width readout."""

    def __post_init__(self):
        if self.attacked is None:
            self.attacked = np.zeros(len(self.index), dtype=bool)
        if self.eve is None:
            self.eve = np.full((len(self.index), 0), EVE_FILL, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.index)

    __eq__ = columns_equal


@dataclass(eq=False)
class QkdTranscript(_Columns):
    """Every round of a one-way run, one column per field.

    Slot s is the s-th non-hub participant in index order, layer i the
    network's i-th layer.
    """

    index: np.ndarray  # (rounds,) round numbers
    alice_set: np.ndarray  # (rounds,) prepare set id, 1 or 2
    alice_state: np.ndarray  # (rounds,) state drawn from the set
    bases: np.ndarray  # (rounds, slots) measurement set id of each participant
    outcomes: np.ndarray  # (rounds, slots) local outcome of each participant
    retained: np.ndarray  # (rounds, layers) bool: the layer survived sifting
    check: np.ndarray  # (rounds,) bool: disclosed for the eavesdropping check
    attacked: Optional[np.ndarray] = None  # (rounds,) bool: Eve intercepted the round
    eve: Optional[np.ndarray] = None  # (rounds, width) Eve's readout; EVE_FILL where not attacked


@dataclass(eq=False)
class SqkdTranscript(_Columns):
    """Every round of a two-way run, one column per field; slots are the
    non-hub participants in index order."""

    index: np.ndarray  # (rounds,) round numbers
    alice_set: np.ndarray  # (rounds,) prepare set id, 1 or 2
    alice_state: np.ndarray  # (rounds,) state drawn from the set
    actions: np.ndarray  # (rounds, slots) action code, an index into ACTIONS
    outcomes: np.ndarray  # (rounds, slots) participant's outcome; -1 where not measured
    returns: np.ndarray  # (rounds, slots) hub's outcome on the returned subsystem
    attacked: Optional[np.ndarray] = None  # (rounds,) bool: Eve intercepted the round
    eve: Optional[np.ndarray] = None  # (rounds, width) Eve's readout; EVE_FILL where not attacked


# ---------------------------------------------------------------------------
# CSV columns, cell spellings and range checks
#
# The CSV holds the protocol's columns only; a transcript read back has
# no attacked row.


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
# Byte codec
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
    """Write the header row and one row per field row: the bytes
    ``csv.writer`` gives for the same cells."""
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
