import numpy as np
import pytest

from lqkd.attacks import AttackSpec
from lqkd.qkd_engine import (
    ConfigError,
    QkdConfig,
    extract_keys_compiled,
    run_qkd,
    sift_layers,
)
from lqkd.resgen import compile_states
from lqkd.transcript import QkdTranscript


def _record(alice_set, state, bases, outcomes, retained, check=False, index=0):
    return {"index": index, "alice_set": alice_set, "alice_state": state, "bases": bases,
            "outcomes": outcomes, "retained": retained, "check": check}


def _transcript(*records, layers=2):
    """A hand-built transcript with one row per record."""
    return QkdTranscript(
        **{key: np.array([rec[key] for rec in records])
           for key in ("index", "alice_set", "alice_state", "bases", "outcomes", "check")},
        retained=np.array([[i in rec["retained"] for i in range(layers)] for rec in records]),
    )


def _sifted(alice_set, bases, network):
    """Layer ids retained by one round's basis choices."""
    mask = sift_layers(network, np.array([alice_set]), np.array([bases]))[0]
    return tuple(np.flatnonzero(mask).tolist())


# --- sifting ----------------------------------------------------------------


def test_sift_full_match_keeps_both_layers(demo_network):
    assert _sifted(1, (1, 1), demo_network) == (0, 1)
    assert _sifted(2, (2, 2), demo_network) == (0, 1)


def test_sift_partial_match_keeps_first_layer_only(demo_network):
    assert _sifted(1, (1, 2), demo_network) == (0,)
    assert _sifted(2, (2, 1), demo_network) == (0,)


def test_sift_mismatch_discards_round(demo_network):
    assert _sifted(2, (1, 1), demo_network) == ()
    assert _sifted(1, (2, 1), demo_network) == ()


# --- key extraction ---------------------------------------------------------


def test_extract_keys_digit_rule(demo_network):
    # outcome 2 splits into first-layer symbol 1 and second-layer symbol 0
    rec = _record(1, 2, (1, 1), (2, 0), (0, 1))
    keys = extract_keys_compiled(_transcript(rec), compile_states(demo_network))
    assert keys.layers[0].streams == {"Alice": (1,), "Bob1": (1,)}
    assert keys.layers[1].streams == {"Alice": (0,), "Bob1": (0,), "Bob2": (0,)}


def test_extract_keys_zero_row(demo_network):
    rec = _record(1, 0, (1, 1), (0, 0), (0, 1))
    keys = extract_keys_compiled(_transcript(rec), compile_states(demo_network))
    assert keys.layers[0].streams["Bob1"] == (0,)
    assert keys.layers[1].streams["Bob2"] == (0,)


def test_extract_keys_scaled_digit_rule(scaled_network):
    # six-dimensional outcome 4 has digits (2, 0) under radices (3, 2)
    rec = _record(1, 4, (1, 1), (4, 0), (0, 1))
    keys = extract_keys_compiled(_transcript(rec), compile_states(scaled_network))
    assert keys.layers[0].streams["Bob1"] == (2,)
    assert keys.layers[1].streams["Bob1"] == (0,)
    assert keys.layers[0].alphabet == 3


def test_extract_keys_skips_checked_rounds(demo_network):
    rec = _record(1, 3, (1, 1), (3, 1), (0, 1), check=True)
    keys = extract_keys_compiled(_transcript(rec), compile_states(demo_network))
    assert keys.layers[0].streams["Alice"] == ()
    assert keys.layers[1].streams["Alice"] == ()


def test_extract_keys_partial_round_feeds_only_first_layer(demo_network):
    rec = _record(1, 2, (1, 2), (2, 1), (0,))
    keys = extract_keys_compiled(_transcript(rec), compile_states(demo_network))
    assert keys.layers[0].streams["Bob1"] == (1,)
    assert keys.layers[1].streams["Alice"] == ()


def test_extract_keys_truncated_rule(scaled_network):
    rows = [
        _record(1, 0, (1, 1), (0, 0), (0, 1), index=0),
        _record(1, 1, (1, 1), (1, 1), (0, 1), index=1),
        _record(1, 2, (1, 1), (2, 1), (0, 1), index=2),
    ]
    keys = extract_keys_compiled(_transcript(*rows), compile_states(scaled_network, truncated=True))
    # index 0 yields no first-layer symbol; 1 -> 1 and 2 -> 0
    assert keys.layers[0].streams["Alice"] == (1, 0)
    assert keys.layers[0].streams["Bob1"] == (1, 0)
    assert keys.layers[1].streams["Alice"] == (0, 1, 1)
    assert keys.layers[1].streams["Bob2"] == (0, 1, 1)


# --- honest runs ------------------------------------------------------------


@pytest.fixture(scope="module")
def honest_run():
    from lqkd.nettop import Layer, Network

    net = Network(
        names=("Alice", "Bob1", "Bob2"),
        hub=0,
        layers=(Layer(members=(0, 1)), Layer(members=(0, 1, 2))),
    )
    return run_qkd(QkdConfig(network=net, rounds=30_000, seed=2024))


def test_honest_run_has_no_errors(honest_run):
    report = honest_run.report
    assert not report.abort
    assert all(t.errors == 0 for t in report.participants.values())
    assert all(t.qber == 0.0 for t in report.participants.values())


def test_honest_run_keys_agree_across_members(honest_run):
    for key in honest_run.keys.layers.values():
        hub = key.streams[key.hub_name]
        assert len(hub) > 1000
        for stream in key.streams.values():
            assert stream == hub


def test_honest_run_retention_fractions(honest_run):
    n = honest_run.report.rounds
    doc = honest_run.report.to_dict()
    for layer_id, p in (("0", 0.5), ("1", 0.25)):
        frac = doc["layers"][layer_id]["retention_fraction"]
        assert abs(frac - p) < 3 * np.sqrt(p * (1 - p) / n)


def test_honest_run_key_entropy_near_one_bit(honest_run):
    doc = honest_run.report.to_dict()
    for layer_id in ("0", "1"):
        assert abs(doc["layers"][layer_id]["entropy_bits"] - 1.0) < 0.02


def test_honest_run_confidentiality(honest_run):
    leak = honest_run.report.to_dict()["mutual_information"]["outsider_key"]
    assert leak["0"]["Bob2"] < 0.01


def test_transcript_is_deterministic(demo_network):
    first = run_qkd(QkdConfig(network=demo_network, rounds=500, seed=9))
    second = run_qkd(QkdConfig(network=demo_network, rounds=500, seed=9))
    assert first.transcript == second.transcript
    third = run_qkd(QkdConfig(network=demo_network, rounds=500, seed=10))
    assert third.transcript != first.transcript


def test_retained_rounds_follow_sifting_rule(demo_network):
    result = run_qkd(QkdConfig(network=demo_network, rounds=300, seed=5))
    t = result.transcript
    for r in range(len(t)):
        # a layer is retained when every member measured in the set's basis
        expected = [all(t.bases[r, slot] == t.alice_set[r] for slot in slots) for slots in ([0], [0, 1])]
        assert t.retained[r].tolist() == expected
        if t.check[r]:
            assert t.retained[r].any()


# --- attacked runs ----------------------------------------------------------


def test_intercept_resend_on_shared_participant_aborts(demo_network):
    result = run_qkd(
        QkdConfig(
            network=demo_network,
            rounds=20_000,
            seed=31,
            attack=AttackSpec(kind="intercept_resend", target="Bob1"),
        )
    )
    report = result.report
    assert report.abort
    tally = report.participants["Bob1"]
    # half the rounds the interceptor picks the wrong basis and then the
    # recipient errs with probability 1 - 1/4
    expected = 0.5 * (1 - 1 / 4)
    sigma = np.sqrt(expected * (1 - expected) / tally.compared)
    assert abs(tally.qber - expected) < 3 * sigma
    assert report.participants["Bob2"].errors == 0
    assert report.pinpoint.compromised == ("Bob1",)
    assert report.pinpoint.secure_layers == ()


def test_cloning_attack_error_rate_by_set(demo_network):
    from lqkd.analysis import mi_cloning_qubit

    result = run_qkd(
        QkdConfig(
            network=demo_network,
            rounds=20_000,
            seed=77,
            check_fraction=0.5,
            attack=AttackSpec(kind="cloning", target="Bob2", fidelity=0.8),
        )
    )
    tally = result.report.participants["Bob2"]
    d = 1 - 0.8
    n1 = tally.compared_by_set[1]
    assert abs(tally.qber_for_set(1) - d) < 3 * np.sqrt(d * (1 - d) / n1)
    assert result.report.participants["Bob1"].errors == 0
    assert result.report.pinpoint.secure_layers == (0,)
    # the estimated fidelity reproduces the analytic channel information
    estimated = 1.0 - tally.qber_for_set(1)
    assert abs(mi_cloning_qubit(estimated).i_ab - mi_cloning_qubit(0.8).i_ab) < 0.1


def test_pinpoint_false_positive_rate_over_many_honest_runs(demo_network):
    # the ideal channel never produces errors, so the significance test
    # must keep every layer across repeated honest runs
    for seed in range(100):
        result = run_qkd(QkdConfig(network=demo_network, rounds=400, seed=seed))
        assert result.report.pinpoint.compromised == ()
        assert result.report.pinpoint.secure_layers == (0, 1)


def test_partial_rate_attack_leaves_unattacked_rounds_clean(demo_network):
    from lqkd.resgen import compile_network

    result = run_qkd(
        QkdConfig(
            network=demo_network,
            rounds=4000,
            seed=13,
            attack=AttackSpec(kind="intercept_resend", target="Bob2", probability=0.5),
        )
    )
    t = result.transcript
    attacked = int(np.count_nonzero(t.attacked))
    assert abs(attacked / 4000 - 0.5) < 3 * np.sqrt(0.25 / 4000)
    compiled = compile_network(demo_network)
    for r in range(len(t)):
        # unattacked checked rounds stay error-free for the qubit holder
        if not t.attacked[r] and t.check[r] and t.bases[r, 1] == t.alice_set[r]:
            prepared = compiled.prepare_set(int(t.alice_set[r])).states[t.alice_state[r]].indices[1]
            assert t.outcomes[r, 1] == prepared


# --- truncated resource runs ------------------------------------------------


def test_truncated_run_statistics(scaled_network):
    result = run_qkd(QkdConfig(network=scaled_network, rounds=30_000, seed=6, truncated=True))
    report = result.report.to_dict()
    assert not result.report.abort
    for key in result.keys.layers.values():
        hub = key.streams[key.hub_name]
        for stream in key.streams.values():
            assert stream == hub
    # second-layer symbols carry twice as many ones as zeros
    stream = np.array(result.keys.layers[1].streams["Alice"])
    ones = (stream == 1).mean()
    assert abs(ones - 2 / 3) < 3 * np.sqrt((2 / 3) * (1 / 3) / stream.size)
    # first-layer symbols stay balanced
    assert abs(report["layers"]["0"]["entropy_bits"] - 1.0) < 0.02


# --- config validation ------------------------------------------------------


def test_rejects_zero_rounds(demo_network):
    with pytest.raises(ConfigError):
        run_qkd(QkdConfig(network=demo_network, rounds=0))


def test_rejects_bad_check_fraction(demo_network):
    with pytest.raises(ConfigError):
        run_qkd(QkdConfig(network=demo_network, rounds=10, check_fraction=1.0))


def test_rejects_two_way_attack(demo_network):
    attack = AttackSpec(kind="two_way", target="Bob2", forward="cnot", backward="identity")
    with pytest.raises(ConfigError):
        run_qkd(QkdConfig(network=demo_network, rounds=10, attack=attack))


def test_rejects_unknown_target(demo_network):
    with pytest.raises(KeyError):
        run_qkd(
            QkdConfig(
                network=demo_network,
                rounds=10,
                attack=AttackSpec(kind="intercept_resend", target="Mallory"),
            )
        )
