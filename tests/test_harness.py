import json
import subprocess
import sys

import numpy as np
import pytest

from lqkd import harness, nettop
from lqkd.harness import (
    ExperimentSpec,
    analyze_transcript,
    canonical_json,
    canonical_report_bytes,
    read_qkd_transcript,
    read_sqkd_transcript,
    run_experiment,
    spec_from_dict,
    write_qkd_transcript,
    write_sqkd_transcript,
)
from lqkd.qkd_engine import ConfigError, QkdConfig, run_qkd
from lqkd.seeding import _seed_sequence_words, derive_round_seed, round_rng, round_rngs
from lqkd.sqkd_engine import SqkdConfig, run_sqkd


# --- seed derivation ----------------------------------------------------------


def test_derived_seeds_are_deterministic():
    assert derive_round_seed(42, 7, "outcome") == derive_round_seed(42, 7, "outcome")


def test_distinct_tags_and_rounds_separate_streams():
    base = derive_round_seed(1, 0, "a")
    assert derive_round_seed(1, 0, "b") != base
    assert derive_round_seed(1, 1, "a") != base
    assert derive_round_seed(2, 0, "a") != base


def test_round_rngs_draw_what_round_rng_draws():
    rounds = list(range(0, 3000, 7)) + [2**33, 10**12]
    for master, tag in ((0, "eve"), (2**64 - 1, "outcome")):
        for r, rng in zip(rounds, round_rngs(master, tag, rounds)):
            reference = round_rng(master, tag, r)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.random(3).tolist() == reference.random(3).tolist()


def test_seed_sequence_words_match_numpy():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + list(range(12345, 2**64, 2**58 + 99))
    words = _seed_sequence_words(np.array(seeds, dtype=np.uint64), 8)
    for k, seed in enumerate(seeds):
        assert [int(w[k]) for w in words] == np.random.SeedSequence(seed).generate_state(8).tolist()


def test_derived_seeds_have_no_collisions_at_scale():
    seeds = np.fromiter(
        (derive_round_seed(123, i, "outcome") for i in range(1_000_000)),
        dtype=np.uint64,
        count=1_000_000,
    )
    assert np.unique(seeds).size == seeds.size


# --- canonical serialization ---------------------------------------------------


def test_canonical_json_rounds_floats_to_twelve_digits():
    assert canonical_json({"x": 0.1234567890123456789}) == b'{"x":0.123456789012}'
    assert canonical_json({"x": 1.0}) == b'{"x":1.0}'
    assert canonical_json([np.float64(0.5), np.int64(3), np.bool_(True)]) == b"[0.5,3,true]"


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_canonical_report_bytes_ignores_timestamps():
    doc1 = {"meta": {"generated_at": "2020"}, "report": {"x": 1}}
    doc2 = {"meta": {"generated_at": "2021"}, "report": {"x": 1}}
    assert canonical_report_bytes(doc1) == canonical_report_bytes(doc2)


# --- experiment runs -----------------------------------------------------------


def _qkd_spec(demo_network, **overrides) -> ExperimentSpec:
    doc = {
        "protocol": "qkd",
        "network": nettop.to_dict(demo_network),
        "rounds": 2000,
        "seed": 5,
    }
    doc.update(overrides)
    return spec_from_dict(doc)


def test_run_experiment_writes_report(demo_network, tmp_path):
    spec = _qkd_spec(demo_network, out_dir=str(tmp_path))
    result = run_experiment(spec)
    assert not result.report.abort
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["schema_version"] == harness.SCHEMA_VERSION
    assert saved["report"]["abort"] is False
    assert saved["config"]["rounds"] == 2000


def test_identical_specs_give_identical_canonical_reports(demo_network):
    a = run_experiment(_qkd_spec(demo_network))
    b = run_experiment(_qkd_spec(demo_network))
    assert canonical_report_bytes(a.document) == canonical_report_bytes(b.document)


def test_reports_independent_of_thread_count(demo_network, monkeypatch):
    spec = _qkd_spec(
        demo_network,
        attack={"kind": "cloning", "target": "Bob1", "F": 0.9},
        sweep=("F", (1.0, 0.9, 0.8)),
    )
    monkeypatch.setenv("LQKD_THREADS", "1")
    serial = run_experiment(spec)
    monkeypatch.setenv("LQKD_THREADS", "4")
    threaded = run_experiment(spec)
    assert canonical_report_bytes(serial.document) == canonical_report_bytes(threaded.document)


def test_sweep_rows_are_order_independent(demo_network):
    values = (1.0, 0.9, 0.8)
    spec = _qkd_spec(
        demo_network,
        attack={"kind": "cloning", "target": "Bob1", "F": 0.9},
        sweep=("F", values),
    )
    shuffled = _qkd_spec(
        demo_network,
        attack={"kind": "cloning", "target": "Bob1", "F": 0.9},
        sweep=("F", values[::-1]),
    )
    rows = {canonical_json(r) for r in run_experiment(spec).sweep_rows}
    rows_shuffled = {canonical_json(r) for r in run_experiment(shuffled).sweep_rows}
    assert rows == rows_shuffled


@pytest.mark.parametrize(
    "param, spellings",
    [("F", (1, 1.0)), ("probability", (1, 1.0)), ("delta", (1, 1.0)), ("rounds", (500, 500.0)),
     ("key_length", (20, 20.0))],
)
def test_sweep_point_seed_ignores_the_spelling_of_its_value(demo_network, param, spellings):
    spec = _qkd_spec(demo_network, attack={"kind": "cloning", "target": "Bob1", "F": 0.9})
    seeds = {harness._sweep_point_spec(spec, param, value).seed for value in spellings}
    assert len(seeds) == 1


def test_sweep_config_block_replays_the_sweep(demo_network, tmp_path):
    spec = _qkd_spec(
        demo_network,
        rounds=600,
        attack={"kind": "intercept_resend", "target": "Bob2"},
        sweep=("probability", (0.5, 1.0)),
        out_dir=str(tmp_path),
    )
    run_experiment(spec)
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["config"]["sweep"] == {"parameter": "probability", "values": [0.5, 1.0]}
    replayed = run_experiment(spec_from_dict(saved["config"]))
    assert canonical_report_bytes(replayed.document) == canonical_report_bytes(saved)


def test_cloning_sweep_carries_information_curves(demo_network):
    spec = _qkd_spec(
        demo_network,
        rounds=1500,
        attack={"kind": "cloning", "target": "Bob1", "F": 0.9},
        sweep=("F", (1.0, 0.9)),
    )
    rows = run_experiment(spec).sweep_rows
    assert rows[0]["i_ab"] == pytest.approx(2.0)
    assert rows[0]["i_ae"] == pytest.approx(0.0, abs=1e-12)
    assert set(rows[0]) == set(rows[1])


def test_detection_sweep_uses_trial_frequencies(demo_network):
    spec = _qkd_spec(
        demo_network,
        attack={"kind": "intercept_resend", "target": "Bob1"},
        sweep=("l", (1, 2, 3)),
        trials=4000,
    )
    rows = run_experiment(spec).sweep_rows
    for row in rows:
        p = 1 - 0.25 ** row["l"]
        assert row["expected"] == pytest.approx(p)
        assert abs(row["frequency"] - p) < 4 * np.sqrt(p * (1 - p) / 4000) + 1e-9


def test_sweep_rejects_unknown_parameter(demo_network):
    with pytest.raises(ConfigError, match="sweep"):
        run_experiment(_qkd_spec(demo_network, sweep=("warp", (1,))))


def test_spec_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown experiment fields"):
        spec_from_dict({"protocol": "qkd", "bogus": 1})


# --- transcript round trips ------------------------------------------------------


def test_qkd_transcript_round_trip(demo_network, tmp_path):
    result = run_qkd(QkdConfig(network=demo_network, rounds=400, seed=3))
    path = tmp_path / "t.csv"
    write_qkd_transcript(path, result.transcript, demo_network)
    loaded = read_qkd_transcript(path, demo_network)
    stripped = [
        type(rec)(**{**rec.__dict__, "eve": None}) for rec in result.transcript
    ]
    assert loaded == stripped


def test_analyze_matches_engine_report(demo_network, tmp_path):
    result = run_qkd(QkdConfig(network=demo_network, rounds=1500, seed=12))
    path = tmp_path / "t.csv"
    write_qkd_transcript(path, result.transcript, demo_network)
    rebuilt = analyze_transcript("qkd", demo_network, path)
    assert canonical_json(rebuilt.to_dict()) == canonical_json(result.report.to_dict())


def test_sqkd_transcript_round_trip_and_analyze(demo_network, tmp_path):
    result = run_sqkd(SqkdConfig(network=demo_network, key_length=60, seed=21))
    path = tmp_path / "t.csv"
    write_sqkd_transcript(path, result.transcript, demo_network)
    loaded = read_sqkd_transcript(path, demo_network)
    assert [(r.actions, r.outcomes, r.returns) for r in loaded] == [
        (r.actions, r.outcomes, r.returns) for r in result.transcript
    ]
    rebuilt = analyze_transcript("sqkd", demo_network, path)
    assert canonical_json(rebuilt.to_dict()) == canonical_json(result.report.to_dict())


def test_transcript_header_must_match_network(demo_network, pair_network, tmp_path):
    result = run_qkd(QkdConfig(network=demo_network, rounds=50, seed=1))
    path = tmp_path / "t.csv"
    write_qkd_transcript(path, result.transcript, demo_network)
    with pytest.raises(ConfigError):
        read_qkd_transcript(path, pair_network)


# --- compiled-states document -----------------------------------------------------


def test_states_document_lists_both_sets(demo_network):
    doc = harness.states_document(demo_network, amplitudes=True)
    assert doc["local_dimensions"] == {"Bob1": 4, "Bob2": 2}
    assert [s["local"]["Bob1"]["index"] for s in doc["set1"]] == [0, 1, 2, 3]
    assert [s["local"]["Bob2"]["index"] for s in doc["set2"]] == [0, 1, 0, 1]
    amp = doc["set2"][0]["local"]["Bob2"]["amplitudes"]
    assert amp[0][0] == pytest.approx(1 / np.sqrt(2))


# --- command-line interface --------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lqkd.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def network_file(demo_network, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(nettop.to_dict(demo_network)))
    return path


def test_cli_build_states(network_file):
    proc = _cli("build-states", "--network", str(network_file))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["set1"]) == 4


def test_cli_run_qkd_and_analyze(network_file, tmp_path):
    out = tmp_path / "out"
    proc = _cli(
        "run-qkd",
        "--network", str(network_file),
        "--rounds", "800",
        "--seed", "4",
        "--out", str(out),
        "--transcript",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["abort"] is False
    proc2 = _cli(
        "analyze",
        "--protocol", "qkd",
        "--network", str(network_file),
        "--transcript", str(out / "transcript.csv"),
    )
    assert proc2.returncode == 0, proc2.stderr
    rebuilt = json.loads(proc2.stdout)
    assert rebuilt["report"] == report["report"]


def test_cli_run_boyer(tmp_path):
    out = tmp_path / "boyer"
    proc = _cli("run-boyer", "--key-length", "64", "--seed", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["protocol"] == "boyer"


def test_cli_scan_cloning():
    proc = _cli("scan", "cloning", "--dim", "4", "--f-values", "1.0,0.75")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split(",")[:2] == ["F", "i_ab"]
    assert len(lines) == 3


def test_cli_scan_intercept():
    proc = _cli("scan", "intercept", "--dim", "2", "--l-max", "3", "--trials", "500")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4


def test_cli_reports_config_errors(network_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"participants": ["Alice"], "hub": "Alice", "layers": []}))
    proc = _cli("run-qkd", "--network", str(bad), "--rounds", "10")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_rejects_malformed_attack(network_file):
    proc = _cli(
        "run-qkd",
        "--network", str(network_file),
        "--rounds", "10",
        "--attack", '{"kind": "warp", "target": "Bob1"}',
    )
    assert proc.returncode == 2
    assert "warp" in proc.stderr


def test_cli_attack_preset_shorthand(network_file, tmp_path):
    out = tmp_path / "preset"
    proc = _cli(
        "run-qkd",
        "--network", str(network_file),
        "--rounds", "600",
        "--attack", "cloning:Bob2:0.8",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["attack"] == {
        "kind": "cloning",
        "target": "Bob2",
        "probability": 1.0,
        "F": 0.8,
    }
    assert report["report"]["abort"] is True
