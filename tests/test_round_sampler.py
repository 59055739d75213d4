"""The cached round samplers against the per-round state-vector path.

The engines sample attacked rounds from memoized measurement trees on
each ``ChannelAttack`` and honest slots column-wise from cumulative
transition tables. The references below are the per-round paths they
replaced, written out: build the carrier with ``forward`` (and
``backward``), measure it with ``measure``/``measure_joint`` and read
out the ancillas with ``measure_ancillas``. Both must give identical
outcomes and Eve readouts from identical generators.
"""

import itertools

import numpy as np
import pytest

from lqkd.attacks import AttackSpec, ChannelAttack, measure_ancillas
from lqkd.qkd_engine import QkdConfig, run_qkd
from lqkd.qmath import (
    Basis,
    JointState,
    Ket,
    MeasurementNode,
    basis_state,
    cumulative_transition_table,
    measure,
    measure_joint,
    pick_outcome,
    pick_outcomes,
)

ROUND_SEEDS = range(200)
# label -> AttackSpec fields
ONE_WAY_ATTACKS = {
    "intercept_resend": {"kind": "intercept_resend"},
    "entangle_measure": {"kind": "entangle_measure"},
    "cloning": {"kind": "cloning", "fidelity": 0.7},
}
TWO_WAY_ATTACKS = {
    **ONE_WAY_ATTACKS,
    "two_way_cnot": {"kind": "two_way", "forward": "cnot", "backward": "cnot"},
    "two_way_random": {"kind": "two_way", "forward": "random:11", "backward": "random:12", "ancilla_dim": 2},
}


def make_attack(label: str, d: int) -> ChannelAttack:
    return ChannelAttack(AttackSpec(target="Bob", **TWO_WAY_ATTACKS[label]), d)


def reference_one_way(channel, basis, index, meas_basis, rng):
    carrier, eve = channel.forward(basis_state(channel.dim, basis, index), rng)
    if isinstance(carrier, Ket):
        outcome, _ = measure(carrier, meas_basis, rng)
    else:
        outcome, post = measure_joint(carrier, 0, meas_basis, rng)
        eve += measure_ancillas(post, rng)
    return outcome, eve


def reference_two_way(channel, basis, index, measures, rng):
    carrier, eve = channel.forward(basis_state(channel.dim, basis, index), rng)
    ancillas = ()
    outcome = None
    if measures:
        if isinstance(carrier, Ket):
            outcome, _ = measure(carrier, Basis.COMPUTATIONAL, rng)
        else:
            outcome, post = measure_joint(carrier, 0, Basis.COMPUTATIONAL, rng)
            ancillas += measure_ancillas(post, rng)
        carrier = basis_state(channel.dim, Basis.COMPUTATIONAL, outcome)
    carrier = channel.backward(carrier, rng)
    if isinstance(carrier, Ket):
        returned, _ = measure(carrier, basis, rng)
    else:
        returned, post = measure_joint(carrier, 0, basis, rng)
        ancillas += measure_ancillas(post, rng)
    return outcome, returned, eve + ancillas


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("label", sorted(ONE_WAY_ATTACKS))
def test_one_way_round_matches_state_vector_path(label, d):
    cached, reference = make_attack(label, d), make_attack(label, d)
    for prep, meas in itertools.product(Basis, Basis):
        for seed in ROUND_SEEDS:
            index = seed % d
            expected = reference_one_way(reference, prep, index, meas, np.random.default_rng(seed))
            got = cached.one_way_round(prep, index, meas, np.random.default_rng(seed))
            assert got == expected, (prep, meas, seed)


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("label", sorted(TWO_WAY_ATTACKS))
def test_two_way_round_matches_state_vector_path(label, d):
    cached, reference = make_attack(label, d), make_attack(label, d)
    for prep, measures in itertools.product(Basis, (True, False)):
        for seed in ROUND_SEEDS:
            index = seed % d
            expected = reference_two_way(reference, prep, index, measures, np.random.default_rng(seed))
            got = cached.two_way_round(prep, index, measures, np.random.default_rng(seed))
            assert got == expected, (prep, measures, seed)


def test_measurement_node_replays_measure_joint():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    node = MeasurementNode(JointState((3, 4), amps / np.linalg.norm(amps)))
    for seed in range(100):
        outcome, post = node.sample(1, Basis.FOURIER, np.random.default_rng(seed))
        fresh_outcome, fresh_post = measure_joint(node.state, 1, Basis.FOURIER, np.random.default_rng(seed))
        assert outcome == fresh_outcome
        assert np.array_equal(post.state.amplitudes, fresh_post.amplitudes)


@pytest.mark.parametrize("d", (2, 3, 4, 6))
def test_pick_outcomes_matches_pick_outcome(d):
    table = cumulative_transition_table(d)
    rows = table.reshape(-1, d)
    # uniform draws plus every edge itself, where < and <= part ways
    u = np.concatenate([np.random.default_rng(d).random(500), np.unique(rows), [np.nextafter(1.0, 0.0)]])
    for row in rows:
        picked = pick_outcomes(np.broadcast_to(row, (u.size, d)), u)
        assert picked.tolist() == [pick_outcome(tuple(row), x) for x in u]


def test_transition_table_is_cumulative_born_rule():
    for d in (2, 3, 5):
        table = cumulative_transition_table(d)
        for (p, prep), (m, meas), j in itertools.product(enumerate(Basis), enumerate(Basis), range(d)):
            amps = basis_state(d, prep, j).amplitudes
            probs = [abs(np.vdot(basis_state(d, meas, k).amplitudes, amps)) ** 2 for k in range(d)]
            assert np.allclose(table[p, m, j], np.cumsum(probs), atol=1e-12)


def test_attacked_run_builds_each_carrier_once(demo_network, monkeypatch):
    calls = []
    original = ChannelAttack.forward

    def counting_forward(self, ket, rng):
        calls.append(ket.dim)
        return original(self, ket, rng)

    monkeypatch.setattr(ChannelAttack, "forward", counting_forward)
    config = QkdConfig(network=demo_network, rounds=1000, seed=3,
                       attack=AttackSpec(kind="entangle_measure", target="Bob1"))
    run_qkd(config)
    # Bob1 holds a d=4 qudit: at most one forward call per (basis, index)
    assert 0 < len(calls) <= 2 * 4
