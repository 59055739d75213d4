"""The columnar transcript against the per-row code it replaced.

Key extraction, both report builders and the CSV transcript I/O work on
numpy columns. The references below are the per-row loops they replaced,
written out over a row view of a transcript. Both must give identical
key material, identical reports and identical CSV bytes.
"""

import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqkd import analysis, nettop
from lqkd.attacks import AttackSpec
from lqkd.harness import canonical_json, canonical_report_bytes, run_experiment, spec_from_dict, write_csv
from lqkd.qkd_engine import (
    ConfigError,
    KeyMaterial,
    LayerKey,
    QkdConfig,
    extract_keys_compiled,
    layer_alphabets,
    report_from_transcript,
    run_qkd,
)
from lqkd.resgen import compile_network, compile_truncated
from lqkd.sqkd_engine import SqkdConfig, extract_sqkd_keys, run_sqkd, sqkd_report_from_transcript
from lqkd.transcript import (
    ACTIONS,
    EVE_FILL,
    MEASURE,
    REFLECT,
    QkdTranscript,
    SqkdTranscript,
    qkd_transcript_columns,
    read_qkd_transcript,
    read_sqkd_transcript,
    sqkd_transcript_columns,
    write_qkd_transcript,
    write_sqkd_transcript,
)

DEMO_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 2},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}
SCALED_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 3},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}


# --- row view and per-row references -------------------------------------------


def _readout(t, r: int):
    """Eve's readout of row r as a tuple; None where she did not attack."""
    return tuple(t.eve[r].tolist()) if t.attacked[r] else None


def qkd_rows(t: QkdTranscript) -> list:
    return [
        SimpleNamespace(
            index=int(t.index[r]),
            alice_set=int(t.alice_set[r]),
            alice_state=int(t.alice_state[r]),
            bases=tuple(t.bases[r].tolist()),
            outcomes=tuple(t.outcomes[r].tolist()),
            retained_for=tuple(np.flatnonzero(t.retained[r]).tolist()),
            used_for_check=bool(t.check[r]),
            eve=_readout(t, r),
        )
        for r in range(len(t))
    ]


def sqkd_rows(t: SqkdTranscript) -> list:
    return [
        SimpleNamespace(
            index=int(t.index[r]),
            alice_set=int(t.alice_set[r]),
            alice_state=int(t.alice_state[r]),
            actions=tuple(ACTIONS[a] for a in t.actions[r].tolist()),
            outcomes=tuple(None if o < 0 else o for o in t.outcomes[r].tolist()),
            returns=tuple(t.returns[r].tolist()),
            eve=_readout(t, r),
        )
        for r in range(len(t))
    ]


def _layer_key(compiled, i, rounds, streams, dropped):
    return LayerKey(
        layer=i,
        alphabet=layer_alphabets(compiled)[i],
        hub_name=compiled.network.names[compiled.network.hub],
        rounds=tuple(rounds),
        streams={name: tuple(vals) for name, vals in streams.items()},
        dropped=dropped,
    )


def reference_keys(rows, compiled, keep) -> KeyMaterial:
    """Per-row key extraction; ``keep(rec, members, slots, i)`` is the protocol's round filter."""
    network = compiled.network
    hub_name = network.names[network.hub]
    slots = {coding.participant: slot for slot, coding in enumerate(compiled.codings)}
    material = KeyMaterial()
    for i in range(len(network.layers)):
        members = network.layer_non_hub(i)
        rounds, dropped = [], 0
        streams = {hub_name: [], **{network.names[j]: [] for j in members}}
        for rec in rows:
            if not keep(rec, members, slots, i):
                continue
            hub_symbol = compiled.prepare_set(rec.alice_set).states[rec.alice_state].layer_symbols[i]
            if hub_symbol is None:
                continue
            decoded = [compiled.codings[slots[j]].symbols_for(rec.outcomes[slots[j]])[i] for j in members]
            if any(s is None for s in decoded):
                dropped += 1
                continue
            rounds.append(rec.index)
            streams[hub_name].append(hub_symbol)
            for j, symbol in zip(members, decoded):
                streams[network.names[j]].append(symbol)
        material.layers[i] = _layer_key(compiled, i, rounds, streams, dropped)
    return material


def reference_qkd_keys(rows, compiled) -> KeyMaterial:
    return reference_keys(rows, compiled, lambda rec, members, slots, i: i in rec.retained_for
                          and not rec.used_for_check)


def reference_sqkd_keys(rows, compiled) -> KeyMaterial:
    return reference_keys(rows, compiled, lambda rec, members, slots, i: rec.alice_set == 1
                          and all(rec.actions[slots[j]] == MEASURE for j in members))


def _reference_attack(attack):
    if attack is None or attack.kind == "none":
        return None
    doc = {"kind": attack.kind, "target": attack.target, "probability": attack.probability}
    if attack.fidelity is not None:
        doc["F"] = attack.fidelity
    return doc


def _reference_mi(rows, compiled, keys, sqkd: bool) -> dict:
    network = compiled.network
    bobs = [coding.participant for coding in compiled.codings]
    outcome_by_round = {rec.index: rec.outcomes for rec in rows}
    hub_member, outsider = {}, {}
    for i, key in keys.layers.items():
        hub_stream = key.streams[key.hub_name]
        if len(hub_stream) < 2:
            continue
        hub_member[str(i)] = {}
        for name, stream in key.streams.items():
            if name != key.hub_name:
                hub_member[str(i)][name] = analysis.empirical_mi(list(hub_stream), list(stream))
        members = set(network.layer_non_hub(i))
        leak = {}
        for slot, j in enumerate(bobs):
            if j in members:
                continue
            stream = [outcome_by_round[r][slot] for r in key.rounds]
            if not sqkd:
                leak[network.names[j]] = analysis.empirical_mi(stream, list(hub_stream))
                continue
            pairs = [(x, y) for x, y in zip(stream, hub_stream) if x is not None]
            if len(pairs) >= 2:
                leak[network.names[j]] = analysis.empirical_mi([p[0] for p in pairs], [p[1] for p in pairs])
        if leak:
            outsider[str(i)] = leak
    return {"hub_member": hub_member, "outsider_key": outsider}


def _reference_eve(rows, compiled, attack):
    if attack is None or attack.kind == "none":
        return None
    network = compiled.network
    bobs = [coding.participant for coding in compiled.codings]
    slot = bobs.index(network.index_of(attack.target))
    by_set = {}
    for set_id in (1, 2):
        codes = {}  # readout -> code, numbered in order of first appearance
        feats, prepared = [], []
        for rec in rows:
            if rec.eve is None or rec.alice_set != set_id:
                continue
            feats.append(codes.setdefault(rec.eve, len(codes)))
            prepared.append(compiled.prepare_set(set_id).states[rec.alice_state].indices[slot])
        if len(feats) >= 2:
            by_set[str(set_id)] = analysis.empirical_mi(feats, prepared)
    return by_set or None


def _reference_report(protocol, rows, compiled, keys, attack, participants, retention, detection, sqkd):
    mi = _reference_mi(rows, compiled, keys, sqkd)
    eve_mi = _reference_eve(rows, compiled, attack)
    if eve_mi is not None:
        mi["eve_prepared_index"] = eve_mi
    return analysis.Report(
        protocol=protocol,
        rounds=len(rows),
        abort=(detection["reflect_mismatches"] if sqkd else detection["check_mismatches"]) > 0,
        participants=participants,
        layer_rates=analysis.key_rate_report(keys, len(rows)),
        retention=retention,
        keys_identical={
            i: all(stream == key.streams[key.hub_name] for stream in key.streams.values())
            for i, key in keys.layers.items()
        },
        mutual_information=mi,
        detection=detection,
        pinpoint=analysis.pinpoint_eve(compiled.network, participants),
        attack=_reference_attack(attack),
    )


def reference_qkd_report(protocol, rows, compiled, keys, attack=None) -> analysis.Report:
    network = compiled.network
    names = [network.names[coding.participant] for coding in compiled.codings]
    tallies = {name: analysis.ErrorTally() for name in names}
    checked = 0
    retained = {i: 0 for i in range(len(network.layers))}
    for rec in rows:
        for i in rec.retained_for:
            retained[i] += 1
        if not rec.used_for_check:
            continue
        checked += 1
        state = compiled.prepare_set(rec.alice_set).states[rec.alice_state]
        for slot, name in enumerate(names):
            if rec.bases[slot] == rec.alice_set:
                tallies[name].add(rec.alice_set, rec.outcomes[slot] != state.indices[slot])
    n = len(rows)
    retention = {
        i: {"retained_rounds": c, "retention_fraction": c / n if n else 0.0} for i, c in retained.items()
    }
    detection = {"checked_rounds": checked, "check_mismatches": sum(t.errors for t in tallies.values())}
    return _reference_report(protocol, rows, compiled, keys, attack, tallies, retention, detection, sqkd=False)


def reference_sqkd_report(rows, compiled, keys, attack=None) -> analysis.Report:
    network = compiled.network
    names = [network.names[coding.participant] for coding in compiled.codings]
    reflect = {name: analysis.ErrorTally() for name in names}
    resend = {name: analysis.ErrorTally() for name in names}
    outcome = {name: analysis.ErrorTally() for name in names}
    for rec in rows:
        state = compiled.prepare_set(rec.alice_set).states[rec.alice_state]
        for slot, name in enumerate(names):
            prepared = state.indices[slot]
            if rec.actions[slot] == REFLECT:
                reflect[name].add(rec.alice_set, rec.returns[slot] != prepared)
            elif rec.alice_set == 1:
                outcome[name].add(1, rec.outcomes[slot] != prepared)
                resend[name].add(1, rec.returns[slot] != rec.outcomes[slot])
    n = len(rows)
    retention = {
        i: {"key_rounds": len(key.rounds), "key_yield_fraction": len(key.rounds) / n if n else 0.0}
        for i, key in keys.layers.items()
    }
    detection = {
        "reflect_checks": {name: t.to_dict() for name, t in reflect.items()},
        "reflect_mismatches": sum(t.errors for t in reflect.values()),
        "resend_mismatches": {name: t.errors for name, t in resend.items()},
    }
    return _reference_report("sqkd", rows, compiled, keys, attack, outcome, retention, detection, sqkd=True)


# --- engine transcripts against the references -----------------------------------

QKD_CASES = {
    "honest": (DEMO_NET, False, None),
    "honest-scaled": (SCALED_NET, False, None),
    "honest-truncated": (SCALED_NET, True, None),
    "intercept-resend": (DEMO_NET, False, AttackSpec(kind="intercept_resend", target="Bob2")),
    "entangle-measure": (DEMO_NET, False, AttackSpec(kind="entangle_measure", target="Bob1")),
    "cloning": (DEMO_NET, False, AttackSpec(kind="cloning", target="Bob1", fidelity=0.8, probability=0.5)),
    "truncated-intercept-resend": (SCALED_NET, True, AttackSpec(kind="intercept_resend", target="Bob1")),
}
SQKD_CASES = {
    "honest": (DEMO_NET, False, None),
    "two-way-cnot": (DEMO_NET, False, AttackSpec(kind="two_way", target="Bob2", forward="cnot",
                                                 backward="identity")),
    "intercept-resend": (DEMO_NET, False, AttackSpec(kind="intercept_resend", target="Bob1")),
    "cloning": (SCALED_NET, False, AttackSpec(kind="cloning", target="Bob2", fidelity=0.7)),
    "truncated-intercept-resend": (SCALED_NET, True, AttackSpec(kind="intercept_resend", target="Bob1")),
}


def _compile(network, truncated):
    return compile_truncated(network) if truncated else compile_network(network)


def _qkd_run(case, seed=3):
    net_doc, truncated, attack = QKD_CASES[case]
    network = nettop.from_dict(net_doc)
    config = QkdConfig(network=network, rounds=1500, check_fraction=0.3, seed=seed, attack=attack,
                       truncated=truncated)
    return run_qkd(config), _compile(network, truncated), attack


def _sqkd_run(case, seed=4):
    net_doc, truncated, attack = SQKD_CASES[case]
    network = nettop.from_dict(net_doc)
    config = SqkdConfig(network=network, key_length=150, seed=seed, attack=attack, truncated=truncated)
    return run_sqkd(config), _compile(network, truncated), attack


def _assert_python_ints(keys: KeyMaterial):
    for key in keys.layers.values():
        assert all(type(r) is int for r in key.rounds)
        for stream in key.streams.values():
            assert type(stream) is tuple and all(type(s) is int for s in stream)


def _assert_same_report(report, reference):
    assert report.to_dict() == reference.to_dict()
    assert canonical_json(report.to_dict()) == canonical_json(reference.to_dict())


@pytest.mark.parametrize("case", sorted(QKD_CASES))
def test_qkd_columns_match_per_row_reference(case):
    result, compiled, attack = _qkd_run(case)
    rows = qkd_rows(result.transcript)
    keys = reference_qkd_keys(rows, compiled)
    assert result.keys == keys
    _assert_python_ints(result.keys)
    _assert_same_report(result.report, reference_qkd_report("qkd", rows, compiled, keys, attack))


@pytest.mark.parametrize("case", sorted(SQKD_CASES))
def test_sqkd_columns_match_per_row_reference(case):
    result, compiled, attack = _sqkd_run(case)
    t = result.transcript
    assert (t.actions == ACTIONS.index(REFLECT)).any()
    rows = sqkd_rows(t)
    keys = reference_sqkd_keys(rows, compiled)
    assert result.keys == keys
    _assert_python_ints(result.keys)
    _assert_same_report(result.report, reference_sqkd_report(rows, compiled, keys, attack))


def _relabel(t, seed: int):
    """The transcript with its rows shuffled and non-contiguous round numbers."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(t))
    labels = rng.choice(10 * len(t), size=len(t), replace=False)
    columns = {f.name: getattr(t, f.name)[order] for f in dataclasses.fields(t) if f.name != "index"}
    return type(t)(index=labels[order], **columns)


def test_non_contiguous_round_index_matches_reference():
    result, compiled, attack = _qkd_run("truncated-intercept-resend")
    t = _relabel(result.transcript, 1)
    rows = qkd_rows(t)
    keys = extract_keys_compiled(t, compiled)
    assert keys == reference_qkd_keys(rows, compiled)
    _assert_same_report(
        report_from_transcript("qkd", t, compiled, keys, attack),
        reference_qkd_report("qkd", rows, compiled, keys, attack),
    )

    result, compiled, attack = _sqkd_run("two-way-cnot")
    t = _relabel(result.transcript, 2)
    rows = sqkd_rows(t)
    keys = extract_sqkd_keys(t, compiled)
    assert keys == reference_sqkd_keys(rows, compiled)
    _assert_same_report(
        sqkd_report_from_transcript(t, compiled, keys, attack),
        reference_sqkd_report(rows, compiled, keys, attack),
    )


def test_repeated_round_numbers_read_the_last_row_like_a_dict():
    result, compiled, _ = _qkd_run("honest")
    t = result.transcript
    index = t.index.copy()
    index[1::2] = index[0::2][: len(index[1::2])]  # every round number twice
    t = dataclasses.replace(t, index=index)
    rows = qkd_rows(t)
    keys = extract_keys_compiled(t, compiled)
    assert keys == reference_qkd_keys(rows, compiled)
    _assert_same_report(
        report_from_transcript("qkd", t, compiled, keys),
        reference_qkd_report("qkd", rows, compiled, keys),
    )


def test_empirical_mi_matches_summing_ones():
    rng = np.random.default_rng(0)
    for n in (1, 2, 50, 999):
        xs, ys = rng.integers(0, 5, n), rng.integers(-2, 3, n)
        xi, yi = np.unique(xs, return_inverse=True)[1], np.unique(ys, return_inverse=True)[1]
        joint = np.zeros((xi.max() + 1, yi.max() + 1))
        np.add.at(joint, (xi, yi), 1.0)
        joint /= joint.sum()
        outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        nz = joint > 0
        expected = float((joint[nz] * np.log2(joint[nz] / outer[nz])).sum())
        assert analysis.empirical_mi(xs, ys) == expected
        assert analysis.empirical_mi(xs.tolist(), ys.tolist()) == expected


# --- Eve's columns ---------------------------------------------------------------

# attack kind -> (AttackSpec fields, width of Eve's readout)
EVE_WIDTHS = {
    "intercept_resend": ({}, 2),
    "entangle_measure": ({}, 3),
    "cloning": ({"fidelity": 0.8}, 3),
    "two_way": ({"forward": "cnot", "backward": "cnot"}, 4),
}


@pytest.mark.parametrize("engine", ["qkd", "sqkd"])
@pytest.mark.parametrize("kind", sorted(EVE_WIDTHS))
def test_eve_readout_width_and_fill(engine, kind):
    fields, width = EVE_WIDTHS[kind]
    attack = AttackSpec(kind=kind, target="Bob1", probability=0.5, **fields)
    if engine == "qkd":
        if kind == "two_way":
            with pytest.raises(ConfigError):
                run_qkd(QkdConfig(network=DEMO, rounds=10, attack=attack))
            return
        t = run_qkd(QkdConfig(network=DEMO, rounds=300, seed=1, attack=attack)).transcript
    else:
        t = run_sqkd(SqkdConfig(network=DEMO, key_length=40, seed=1, attack=attack)).transcript
    assert t.attacked.shape == (len(t),) and t.attacked.dtype == bool
    assert t.eve.shape == (len(t), width) and t.eve.dtype == np.int64
    assert 0 < np.count_nonzero(t.attacked) < len(t)
    assert (t.eve[~t.attacked] == EVE_FILL).all()
    readouts = t.eve[t.attacked]
    intercepted = kind == "intercept_resend"
    assert set(readouts[:, 0].tolist()) == ({1, 2} if intercepted else {0})
    assert (readouts[:, 1] >= 0).all() if intercepted else (readouts[:, 1] == -1).all()
    assert (readouts[:, 2:] >= 0).all()


@pytest.mark.parametrize("protocol", ["qkd", "sqkd"])
def test_honest_and_read_transcripts_have_zero_width_eve(protocol, tmp_path):
    t, write, read = _honest(protocol)
    path = tmp_path / "t.csv"
    write(path, t, DEMO)
    for transcript in (t, read(path, compile_network(DEMO))):
        assert transcript.eve.shape == (len(t), 0)
        assert transcript.attacked.shape == (len(t),) and not transcript.attacked.any()
    attacked, _, _ = (_qkd_run if protocol == "qkd" else _sqkd_run)("intercept-resend")
    write(path, attacked.transcript, DEMO)
    assert read(path, compile_network(DEMO)).eve.shape == (len(attacked.transcript), 0)


# --- rounds dropped by decoding ---------------------------------------------------


def test_dropped_by_decoding_counts_match_reference():
    spec = spec_from_dict({
        "protocol": "qkd", "network": SCALED_NET, "rounds": 3000, "seed": 17, "truncated": True,
        "check_fraction": 0.2, "attack": {"kind": "intercept_resend", "target": "Bob1"},
    })
    out = run_experiment(spec)
    compiled = compile_truncated(spec.resolved_network())
    rows = qkd_rows(out.result.transcript)
    keys = reference_qkd_keys(rows, compiled)
    dropped = {str(i): key.dropped for i, key in keys.layers.items()}
    assert out.document["meta"]["dropped_by_decoding"] == dropped
    assert dropped["0"] > 0
    # honest members decode every symbol the hub sent
    honest = run_experiment(dataclasses.replace(spec, attack=None))
    assert set(honest.document["meta"]["dropped_by_decoding"].values()) == {0}
    # the counts live in meta only: the canonical bytes are the reference report's
    reference = reference_qkd_report("qkd", rows, compiled, keys, AttackSpec(kind="intercept_resend", target="Bob1"))
    expected = {k: v for k, v in out.document.items() if k != "report"}
    expected["report"] = reference.to_dict()
    assert canonical_report_bytes(out.document) == canonical_report_bytes(expected)


# --- CSV transcript I/O ------------------------------------------------------------


def reference_qkd_csv(t: QkdTranscript, network) -> str:
    buf = io.StringIO()
    write_csv(buf, qkd_transcript_columns(network), [
        [rec.index, rec.alice_set, rec.alice_state] + list(rec.bases) + list(rec.outcomes)
        + [";".join(str(i) for i in rec.retained_for), rec.used_for_check]
        for rec in qkd_rows(t)
    ])
    return buf.getvalue()


def reference_sqkd_csv(t: SqkdTranscript, network) -> str:
    buf = io.StringIO()
    write_csv(buf, sqkd_transcript_columns(network), [
        [rec.index, rec.alice_set, rec.alice_state] + list(rec.actions) + list(rec.outcomes) + list(rec.returns)
        for rec in sqkd_rows(t)
    ])
    return buf.getvalue()


DEMO = nettop.from_dict(DEMO_NET)


def _ints(draw, lo, hi, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=np.int64).reshape(shape)


def _round_numbers(draw, n):
    return np.array(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)), dtype=np.int64)


@st.composite
def qkd_transcripts(draw):
    n = draw(st.integers(0, 25))
    return QkdTranscript(
        index=_round_numbers(draw, n),
        alice_set=_ints(draw, 1, 2, (n,)),
        alice_state=_ints(draw, 0, 3, (n,)),
        bases=_ints(draw, 1, 2, (n, 2)),
        outcomes=np.stack([_ints(draw, 0, 3, (n,)), _ints(draw, 0, 1, (n,))], axis=1),
        retained=_ints(draw, 0, 1, (n, 2)).astype(bool),
        check=_ints(draw, 0, 1, (n,)).astype(bool),
    )


@st.composite
def sqkd_transcripts(draw):
    n = draw(st.integers(0, 25))
    actions = _ints(draw, 0, 1, (n, 2))
    outcomes = np.stack([_ints(draw, -1, 3, (n,)), _ints(draw, -1, 1, (n,))], axis=1)
    # only a participant that reflected may have no outcome
    outcomes[(outcomes < 0) & (actions == ACTIONS.index(MEASURE))] = 0
    return SqkdTranscript(
        index=_round_numbers(draw, n),
        alice_set=_ints(draw, 1, 2, (n,)),
        alice_state=_ints(draw, 0, 3, (n,)),
        actions=actions,
        outcomes=outcomes,
        returns=np.stack([_ints(draw, 0, 3, (n,)), _ints(draw, 0, 1, (n,))], axis=1),
    )


def _round_trip(write, read, t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write(path, t, DEMO)
        return path.read_bytes().decode("utf-8"), read(path, compile_network(DEMO))


@settings(max_examples=60, deadline=None)
@given(qkd_transcripts())
def test_qkd_csv_matches_csv_writer_and_round_trips(t):
    buf = io.StringIO()
    write_qkd_transcript(buf, t, DEMO)
    assert buf.getvalue() == reference_qkd_csv(t, DEMO)
    text, loaded = _round_trip(write_qkd_transcript, read_qkd_transcript, t)
    assert text == buf.getvalue()
    assert loaded == t


@settings(max_examples=60, deadline=None)
@given(sqkd_transcripts())
def test_sqkd_csv_matches_csv_writer_and_round_trips(t):
    buf = io.StringIO()
    write_sqkd_transcript(buf, t, DEMO)
    assert buf.getvalue() == reference_sqkd_csv(t, DEMO)
    text, loaded = _round_trip(write_sqkd_transcript, read_sqkd_transcript, t)
    assert text == buf.getvalue()
    assert loaded == t


def _rewrite(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _drop_cell(rows):
    rows[3].pop()


def _quote_cells(rows):
    rows[2][0] = "1,2"


def _unknown_layer(rows):
    rows[1][rows[0].index("retained")] = "0;7"


def _unknown_action(rows):
    rows[1][rows[0].index("action_Bob1")] = "bounce"


def _set_cell(column, value, row_is=lambda header, row: True):
    """An edit writing ``value`` into ``column`` of the first data row ``row_is`` accepts."""

    def edit(rows):
        row = next(row for row in rows[1:] if row_is(rows[0], row))
        row[rows[0].index(column)] = value

    edit.__name__ = f"{column}={value or 'empty'}"
    return edit


def _misspell_last(column, old, new):
    """An edit writing ``new`` over the last ``old`` in ``column``: a cell one
    byte away from a spelling the reader has already met in earlier rows."""

    def edit(rows):
        k = rows[0].index(column)
        row = [row for row in rows[1:] if row[k] == old][-1]
        row[k] = new

    edit.__name__ = f"last {column}={new}"
    return edit


def _retained(header, row):
    return row[header.index("retained")] != ""


def _measured(header, row):
    return row[header.index("action_Bob1")] == MEASURE


def _reflected(header, row):
    return row[header.index("action_Bob1")] == REFLECT


# cells the DEMO network cannot produce: Bob1 holds a d = 4 qudit, Bob2 a
# qubit, and each set has four states
OUTSIDE_THE_NETWORK = [
    ("qkd", _set_cell("outcome_Bob1", "-1", _retained)),
    ("qkd", _set_cell("outcome_Bob2", "2")),
    ("qkd", _set_cell("basis_Bob1", "7")),
    ("qkd", _set_cell("basis_Bob2", "0")),
    ("qkd", _set_cell("set", "3")),
    ("qkd", _set_cell("state", "99")),
    ("qkd", _set_cell("state", "-1")),
    ("sqkd", _set_cell("outcome_Bob1", "", _measured)),
    ("sqkd", _set_cell("outcome_Bob1", "4", _measured)),
    ("sqkd", _set_cell("outcome_Bob1", "-2", _reflected)),
    ("sqkd", _set_cell("return_Bob2", "2")),
    ("sqkd", _set_cell("set", "0")),
    ("sqkd", _set_cell("state", "4")),
]


@pytest.mark.parametrize("protocol", ["qkd", "sqkd"])
def test_header_mismatch_raises_config_error(protocol, pair_network, tmp_path):
    path = tmp_path / "t.csv"
    if protocol == "qkd":
        write_qkd_transcript(path, _qkd_run("honest")[0].transcript, DEMO)
        read = read_qkd_transcript
    else:
        write_sqkd_transcript(path, _sqkd_run("honest")[0].transcript, DEMO)
        read = read_sqkd_transcript
    with pytest.raises(ConfigError, match="header"):
        read(path, compile_network(pair_network))


# cells inside the network's ranges but not spelled as the writer spells
# them: each was read as a number (or as "not checked") or raised a bare
# ValueError before the reader parsed the file's bytes
NOT_CANONICAL = [
    ("qkd", _set_cell("state", "abc")),
    ("qkd", _set_cell("round", "")),
    ("qkd", _set_cell("outcome_Bob2", "1.5")),
    ("qkd", _set_cell("set", "+1")),
    ("qkd", _set_cell("state", " 3")),
    ("qkd", _set_cell("round", "1_0")),
    ("qkd", _set_cell("state", "\u0663")),  # ARABIC-INDIC DIGIT THREE
    ("qkd", _set_cell("round", "-0")),
    ("qkd", _set_cell("round", "007")),
    ("qkd", _set_cell("check", "yes")),
    ("qkd", _set_cell("check", "2")),
    ("qkd", _set_cell("retained", "1;0")),
    ("qkd", _set_cell("retained", "01")),
    ("sqkd", _set_cell("return_Bob1", "abc")),
    ("sqkd", _set_cell("outcome_Bob1", "+1", _measured)),
    ("sqkd", _set_cell("return_Bob2", " 0")),
    ("sqkd", _set_cell("state", "\u0663")),
    ("qkd", _misspell_last("retained", "0;1", "0:1")),
    ("qkd", _misspell_last("retained", "0;1", "0;1;")),
    ("sqkd", _misspell_last("action_Bob1", "measure", "mEasure")),
    ("sqkd", _misspell_last("action_Bob2", "reflect", "reflecT")),
]


@pytest.mark.parametrize(
    "protocol, edit",
    [("qkd", _drop_cell), ("qkd", _quote_cells), ("qkd", _unknown_layer), ("sqkd", _drop_cell),
     ("sqkd", _unknown_action)] + OUTSIDE_THE_NETWORK + NOT_CANONICAL,
)
def test_malformed_transcripts_raise_config_error(protocol, edit, tmp_path):
    path = tmp_path / "t.csv"
    if protocol == "qkd":
        write_qkd_transcript(path, _qkd_run("honest")[0].transcript, DEMO)
        read = read_qkd_transcript
    else:
        write_sqkd_transcript(path, _sqkd_run("honest")[0].transcript, DEMO)
        read = read_sqkd_transcript
    read(path, compile_network(DEMO))
    _rewrite(path, edit)
    with pytest.raises(ConfigError):
        read(path, compile_network(DEMO))


def test_truncated_transcript_rejects_states_and_outcomes_outside_the_reduced_family(tmp_path):
    # the general construction on SCALED_NET has six states and a d = 6 Bob1;
    # the reduced family has three states and a qutrit
    result, compiled, _ = _qkd_run("honest-truncated")
    path = tmp_path / "t.csv"
    write_qkd_transcript(path, result.transcript, compiled.network)
    assert read_qkd_transcript(path, compiled) == result.transcript
    for edit in (_set_cell("state", "3"), _set_cell("outcome_Bob1", "3")):
        write_qkd_transcript(path, result.transcript, compiled.network)
        _rewrite(path, edit)
        read_qkd_transcript(path, compile_network(compiled.network))
        with pytest.raises(ConfigError):
            read_qkd_transcript(path, compiled)


def test_saved_report_json_is_unchanged_by_meta_counts(tmp_path):
    spec = spec_from_dict({"protocol": "qkd", "network": DEMO_NET, "rounds": 400, "seed": 2,
                           "out_dir": str(tmp_path)})
    out = run_experiment(spec)
    saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert saved["meta"]["dropped_by_decoding"] == {"0": 0, "1": 0}
    assert canonical_report_bytes(saved) == canonical_report_bytes(out.document)


# --- the byte codec's edge cases ---------------------------------------------------


def _written(write, t, network=DEMO) -> bytes:
    buf = io.StringIO()
    write(buf, t, network)
    return buf.getvalue().encode("utf-8")


def _honest(protocol):
    """An honest run's transcript (the reader's too: nobody attacked), its writer and its reader."""
    if protocol == "qkd":
        return _qkd_run("honest")[0].transcript, write_qkd_transcript, read_qkd_transcript
    return _sqkd_run("honest")[0].transcript, write_sqkd_transcript, read_sqkd_transcript


def _read_bytes(read, data: bytes, tmp_path, network=DEMO):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    return read(path, compile_network(network))


@pytest.mark.parametrize("line_ends", ["lf", "cr", "mixed", "no-final", "lf-no-final", "cr-no-final"])
@pytest.mark.parametrize("protocol", ["qkd", "sqkd"])
def test_any_line_end_and_a_missing_final_one_are_read(protocol, line_ends, tmp_path):
    t, write, read = _honest(protocol)
    data = _written(write, t)
    assert data.count(b"\r\n") == len(t) + 1
    lines = data.split(b"\r\n")[:-1]
    if line_ends == "mixed":
        ends = [(b"\r\n", b"\n", b"\r")[k % 3] for k in range(len(lines))]
        data = b"".join(line + end for line, end in zip(lines, ends))
    else:
        end = {"lf": b"\n", "cr": b"\r", "no-final": b"\r\n"}.get(line_ends.removesuffix("-no-final"), b"\r\n")
        data = end.join(lines) + (b"" if line_ends.endswith("no-final") else end)
    assert _read_bytes(read, data, tmp_path) == t


@pytest.mark.parametrize("data", [b"\r\n\r\n", b"\n\n", b"\r\r", b"\r\n\n"])
def test_a_blank_line_is_a_row_of_one_cell(data, tmp_path):
    t = _qkd_run("honest")[0].transcript
    with pytest.raises(ConfigError, match="one cell per header column"):
        _read_bytes(read_qkd_transcript, _written(write_qkd_transcript, t)[:-2] + data, tmp_path)


def _empty_qkd():
    z = np.zeros(0, dtype=np.int64)
    return QkdTranscript(index=z, alice_set=z, alice_state=z, bases=np.zeros((0, 2), np.int64),
                         outcomes=np.zeros((0, 2), np.int64), retained=np.zeros((0, 2), bool),
                         check=np.zeros(0, bool))


def _empty_sqkd():
    z = np.zeros(0, dtype=np.int64)
    pair = np.zeros((0, 2), np.int64)
    return SqkdTranscript(index=z, alice_set=z, alice_state=z, actions=pair, outcomes=pair, returns=pair)


@pytest.mark.parametrize("line_end", [b"\r\n", b"\n", b"\r", b""])
def test_header_only_transcripts(line_end, tmp_path):
    for empty, write, read, columns, reference in (
        (_empty_qkd(), write_qkd_transcript, read_qkd_transcript, qkd_transcript_columns, reference_qkd_csv),
        (_empty_sqkd(), write_sqkd_transcript, read_sqkd_transcript, sqkd_transcript_columns, reference_sqkd_csv),
    ):
        data = _written(write, empty)
        assert data == reference(empty, DEMO).encode()
        assert data == (",".join(columns(DEMO)) + "\r\n").encode()
        loaded = _read_bytes(read, data[:-2] + line_end, tmp_path)
        assert loaded == empty
        assert {f.name: getattr(loaded, f.name).shape for f in dataclasses.fields(loaded)} == {
            f.name: getattr(empty, f.name).shape for f in dataclasses.fields(empty)}


def test_header_must_match_byte_for_byte(tmp_path):
    data = _written(write_qkd_transcript, _qkd_run("honest")[0].transcript)
    for edited in (b" " + data, data.replace(b"round", b"Round", 1), data.replace(b"check\r\n", b"check,\r\n", 1),
                   data.replace(b"check\r\n", b"check", 1)[:60], b""):
        with pytest.raises(ConfigError, match="header"):
            _read_bytes(read_qkd_transcript, edited, tmp_path)


def test_round_numbers_of_different_widths_share_a_column(tmp_path):
    t = _qkd_run("honest")[0].transcript
    index = np.arange(len(t), dtype=np.int64)
    index[:6] = [1, 10**6, 7, 0, 12345, 999999]
    t = dataclasses.replace(t, index=index)
    data = _written(write_qkd_transcript, t)
    assert data == reference_qkd_csv(t, DEMO).encode()
    assert data.split(b"\r\n")[1:7] == [line.encode() for line in reference_qkd_csv(t, DEMO).split("\r\n")[1:7]]
    assert _read_bytes(read_qkd_transcript, data, tmp_path) == t


def test_empty_sqkd_outcomes_only_on_reflect_rounds(tmp_path):
    t = _sqkd_run("honest")[0].transcript
    reflected = t.actions == ACTIONS.index(REFLECT)
    assert reflected.any() and (t.outcomes[reflected] == -1).all() and (t.outcomes[~reflected] >= 0).all()
    data = _written(write_sqkd_transcript, t)
    assert data == reference_sqkd_csv(t, DEMO).encode()
    assert _read_bytes(read_sqkd_transcript, data, tmp_path) == t
    # the writer spells a missing outcome as an empty cell wherever it is;
    # the reader accepts it only where that participant reflected
    outcomes = t.outcomes.copy()
    row = int(np.flatnonzero(~reflected[:, 0])[0])
    outcomes[row, 0] = -1
    data = _written(write_sqkd_transcript, dataclasses.replace(t, outcomes=outcomes))
    with pytest.raises(ConfigError, match="outcome"):
        _read_bytes(read_sqkd_transcript, data, tmp_path)


def test_writer_rejects_negative_integer_cells():
    t = _qkd_run("honest")[0].transcript
    with pytest.raises(ValueError):
        _written(write_qkd_transcript, dataclasses.replace(t, index=t.index - 1))


@pytest.mark.parametrize("protocol", ["qkd", "sqkd"])
def test_large_transcripts_match_csv_writer_and_round_trip(protocol, tmp_path):
    rng = np.random.default_rng(11)
    n = 10**5
    index = rng.permutation(10 * n)[:n].astype(np.int64)
    common = dict(index=index, alice_set=rng.integers(1, 3, n), alice_state=rng.integers(0, 4, n))
    if protocol == "qkd":
        t = QkdTranscript(**common, bases=rng.integers(1, 3, (n, 2)),
                          outcomes=np.stack([rng.integers(0, 4, n), rng.integers(0, 2, n)], axis=1),
                          retained=rng.random((n, 2)) < 0.5, check=rng.random(n) < 0.1)
        write, read, reference = write_qkd_transcript, read_qkd_transcript, reference_qkd_csv
    else:
        actions = rng.integers(0, 2, (n, 2))
        outcomes = np.stack([rng.integers(0, 4, n), rng.integers(0, 2, n)], axis=1)
        outcomes[actions == ACTIONS.index(REFLECT)] = -1
        t = SqkdTranscript(**common, actions=actions, outcomes=outcomes,
                           returns=np.stack([rng.integers(0, 4, n), rng.integers(0, 2, n)], axis=1))
        write, read, reference = write_sqkd_transcript, read_sqkd_transcript, reference_sqkd_csv
    data = _written(write, t)
    assert data == reference(t, DEMO).encode()
    assert _read_bytes(read, data, tmp_path) == t


@pytest.mark.parametrize("protocol, old, new", [
    ("sqkd", b",reflect,", b",reflect\x00,"), ("sqkd", b",measure,", b',"measure",'),
    ("qkd", b",0\r\n", b',"0"\r\n'), ("qkd", b",1,", b",1\x00,"),
])
def test_quoted_cells_and_nul_bytes_are_rejected(protocol, old, new, tmp_path):
    # a NUL past a cell's text would read as the padding of a shorter cell
    t, write, read = _honest(protocol)
    data = _written(write, t)
    assert old in data
    with pytest.raises(ConfigError, match="quoted or hold NUL"):
        _read_bytes(read, data.replace(old, new, 1), tmp_path)
