import math

import numpy as np
import pytest

from lqkd.attacks import AttackSpec, entangle_measure_unitary, simulate_reflect_distribution
from lqkd.harness import run_experiment, spec_from_dict, two_party_network
from lqkd.qkd_engine import ConfigError
from lqkd.qmath import Basis
from lqkd.sqkd_engine import (
    ACTIONS,
    MEASURE,
    REFLECT,
    SqkdConfig,
    run_sqkd,
)


@pytest.fixture(scope="module")
def honest_run():
    from lqkd.nettop import Layer, Network

    net = Network(
        names=("Alice", "Bob1", "Bob2"),
        hub=0,
        layers=(Layer(members=(0, 1)), Layer(members=(0, 1, 2))),
    )
    return run_sqkd(SqkdConfig(network=net, key_length=3000, delta=0.25, seed=404))


def test_round_count_formula(demo_network):
    assert SqkdConfig(network=demo_network, key_length=256, delta=0.25).rounds == 2560
    assert SqkdConfig(network=demo_network, key_length=3, delta=0.1).rounds == math.ceil(8 * 3 * 1.1)
    assert SqkdConfig(network=demo_network, key_length=1000, delta=0.5).rounds == 12000


def test_honest_run_reflects_match_exactly(honest_run):
    doc = honest_run.report.to_dict()
    assert doc["detection"]["reflect_mismatches"] == 0
    assert not honest_run.report.abort
    for name in ("Bob1", "Bob2"):
        checks = doc["detection"]["reflect_checks"][name]
        assert checks["errors"] == 0
        assert checks["compared"] > 1000


def test_honest_run_resend_correlation_is_perfect(honest_run):
    doc = honest_run.report.to_dict()
    assert all(v == 0 for v in doc["detection"]["resend_mismatches"].values())
    assert all(t.errors == 0 for t in honest_run.report.participants.values())


def test_honest_run_keys_agree(honest_run):
    for key in honest_run.keys.layers.values():
        hub = key.streams[key.hub_name]
        assert len(hub) >= honest_run.report.rounds // 16
        for stream in key.streams.values():
            assert stream == hub


def test_only_computational_set_rounds_make_keys(honest_run):
    t = honest_run.transcript
    row_of = {r: row for row, r in enumerate(t.index.tolist())}
    for key in honest_run.keys.layers.values():
        for r in key.rounds:
            row = row_of[r]
            assert t.alice_set[row] == 1
            members = {"0": ("Bob1",), "1": ("Bob1", "Bob2")}[str(key.layer)]
            for slot, name in enumerate(("Bob1", "Bob2")):
                if name in members:
                    assert ACTIONS[t.actions[row, slot]] == MEASURE


def test_key_yield_fractions(honest_run):
    rounds = honest_run.report.rounds
    doc = honest_run.report.to_dict()
    for layer_id, p in (("0", 1 / 4), ("1", 1 / 8)):
        frac = doc["layers"][layer_id]["key_yield_fraction"]
        assert abs(frac - p) < 3 * np.sqrt(p * (1 - p) / rounds)


def test_key_entropy_near_one_bit(honest_run):
    doc = honest_run.report.to_dict()
    for layer_id in ("0", "1"):
        assert abs(doc["layers"][layer_id]["entropy_bits"] - 1.0) < 0.02


def test_transcripts_are_deterministic(demo_network):
    a = run_sqkd(SqkdConfig(network=demo_network, key_length=50, seed=1))
    b = run_sqkd(SqkdConfig(network=demo_network, key_length=50, seed=1))
    assert a.transcript == b.transcript
    c = run_sqkd(SqkdConfig(network=demo_network, key_length=50, seed=2))
    assert c.transcript != a.transcript


# --- two-party baseline ------------------------------------------------------


def _boyer(key_length, seed, attack=None):
    spec = {"protocol": "boyer", "key_length": key_length, "delta": 0.25, "seed": seed, "attack": attack}
    return run_experiment(spec_from_dict(spec)).result


def test_boyer_honest_run():
    result = _boyer(1000, seed=5)
    doc = result.report.to_dict()
    assert result.report.protocol == "boyer"
    assert not result.report.abort
    assert doc["detection"]["reflect_mismatches"] == 0
    key = result.keys.layers[0]
    assert key.streams["Bob"] == key.streams["Alice"]
    assert len(key.streams["Alice"]) >= 1000


def test_boyer_key_yield_quarter():
    result = _boyer(2000, seed=6)
    rounds = result.report.rounds
    frac = len(result.keys.layers[0].rounds) / rounds
    assert abs(frac - 0.25) < 3 * np.sqrt(0.25 * 0.75 / rounds)


def _expected_intercept_reflect_mismatch() -> float:
    # enumeration over prepared basis/index and interceptor basis/outcome:
    # probability the returned state fails the reflection check
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    bases = {1: np.eye(2), 2: h}
    total, cases = 0.0, 0
    for pb in (1, 2):
        for idx in (0, 1):
            prepared = bases[pb][:, idx]
            for eb in (1, 2):
                p_mismatch = 0.0
                for eout in (0, 1):
                    p_e = abs(np.vdot(bases[eb][:, eout], prepared)) ** 2
                    p_back = abs(np.vdot(bases[pb][:, idx], bases[eb][:, eout])) ** 2
                    p_mismatch += p_e * (1.0 - p_back)
                total += p_mismatch
                cases += 1
    return total / cases


def test_boyer_intercept_resend_detection_rate():
    oracle = _expected_intercept_reflect_mismatch()
    assert oracle == pytest.approx(0.25, abs=1e-12)
    result = _boyer(2500, seed=8, attack={"kind": "intercept_resend", "target": "Bob"})
    assert result.report.abort
    checks = result.report.to_dict()["detection"]["reflect_checks"]["Bob"]
    n = checks["compared"]
    assert abs(checks["qber"] - oracle) < 3 * np.sqrt(oracle * (1 - oracle) / n)


# --- two-way attacks ---------------------------------------------------------


def test_forward_entangler_attack_disturbs_conjugate_reflections(demo_network):
    # brute-force oracle from the joint state: the forward entangler flips
    # reflected conjugate states half the time and computational ones never
    cnot, ident = entangle_measure_unitary(2), np.eye(4, dtype=complex)
    for j in range(2):
        dist = simulate_reflect_distribution(cnot, ident, 2, 2, Basis.FOURIER, j)
        assert 1 - dist[j] == pytest.approx(0.5, abs=1e-12)
        dist_c = simulate_reflect_distribution(cnot, ident, 2, 2, Basis.COMPUTATIONAL, j)
        assert 1 - dist_c[j] == pytest.approx(0.0, abs=1e-12)

    attack = AttackSpec(kind="two_way", target="Bob2", forward="cnot", backward="identity")
    result = run_sqkd(SqkdConfig(network=demo_network, key_length=1500, seed=99, attack=attack))
    checks = result.report.to_dict()["detection"]["reflect_checks"]["Bob2"]["by_set"]
    assert checks["1"]["errors"] == 0
    n = checks["2"]["compared"]
    assert abs(checks["2"]["qber"] - 0.5) < 3 * np.sqrt(0.25 / n)
    assert result.report.abort


def test_identity_two_way_attack_is_invisible_and_uninformative(demo_network):
    attack = AttackSpec(kind="two_way", target="Bob2", forward="identity", backward="identity")
    result = run_sqkd(SqkdConfig(network=demo_network, key_length=1500, seed=3, attack=attack))
    report = result.report.to_dict()
    assert not result.report.abort
    assert report["detection"]["reflect_mismatches"] == 0
    assert all(t.errors == 0 for t in result.report.participants.values())
    eve_mi = report["mutual_information"]["eve_prepared_index"]
    assert eve_mi["1"] < 0.01 and eve_mi["2"] < 0.01


def test_intercept_resend_on_forward_leg(demo_network):
    attack = AttackSpec(kind="intercept_resend", target="Bob1")
    result = run_sqkd(SqkdConfig(network=demo_network, key_length=1000, seed=11, attack=attack))
    assert result.report.abort
    checks = result.report.to_dict()["detection"]["reflect_checks"]
    assert checks["Bob1"]["errors"] > 0
    assert checks["Bob2"]["errors"] == 0


# --- transcript structure and validation --------------------------------------


def test_reflect_rounds_have_no_outcome(honest_run):
    t = honest_run.transcript
    for row in range(500):
        for slot in range(2):
            # a negative outcome means "none"
            if ACTIONS[t.actions[row, slot]] == REFLECT:
                assert t.outcomes[row, slot] < 0
            else:
                assert t.outcomes[row, slot] >= 0


def test_two_party_network_shape():
    net = two_party_network()
    assert net.names == ("Alice", "Bob")
    assert len(net.layers) == 1


def test_rejects_bad_config(demo_network):
    with pytest.raises(ConfigError):
        run_sqkd(SqkdConfig(network=demo_network, key_length=0))
    with pytest.raises(ConfigError):
        run_sqkd(SqkdConfig(network=demo_network, key_length=10, delta=0.0))
