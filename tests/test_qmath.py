import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from lqkd import qmath
from lqkd.qmath import (
    Basis,
    DimensionError,
    JointState,
    Ket,
    NotUnitaryError,
    apply_joint,
    basis_ket,
    fourier_ket,
    measure,
    measure_joint,
    product_state,
)

RT2 = 1.0 / np.sqrt(2)


def test_fourier_ket_qubit_plus():
    ket = fourier_ket(2, 0)
    assert np.allclose(ket.amplitudes, [RT2, RT2], atol=1e-15)
    minus = fourier_ket(2, 1)
    assert np.allclose(minus.amplitudes, [RT2, -RT2], atol=1e-15)


def test_fourier_ket_dim4_alternating_signs():
    # the real alternating-sign state sits at index 2 of the d=4 transform
    ket = fourier_ket(4, 2)
    assert np.allclose(ket.amplitudes, np.array([1, -1, 1, -1]) / 2, atol=1e-14)


def test_fourier_ket_qutrit_uniform():
    ket = fourier_ket(3, 0)
    assert np.allclose(ket.amplitudes, np.full(3, 1 / np.sqrt(3)), atol=1e-15)


def test_fourier_ket_index_out_of_range():
    with pytest.raises(ValueError):
        fourier_ket(4, 4)
    with pytest.raises(ValueError):
        fourier_ket(4, -1)


@pytest.mark.parametrize("d", range(2, 17))
def test_fourier_kets_orthonormal(d):
    mat = np.column_stack([fourier_ket(d, j).amplitudes for j in range(d)])
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(d))) < 1e-12


@given(st.integers(min_value=2, max_value=32).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))))
def test_fourier_ket_normalized(dim_and_index):
    d, j = dim_and_index
    assert abs(np.linalg.norm(fourier_ket(d, j).amplitudes) - 1.0) < 1e-12


def test_measure_computational_eigenstate():
    rng = np.random.default_rng(0)
    for _ in range(20):
        outcome, post = measure(basis_ket(4, 2), Basis.COMPUTATIONAL, rng)
        assert outcome == 2
        assert np.allclose(post.amplitudes, basis_ket(4, 2).amplitudes)


def test_measure_fourier_eigenstate():
    rng = np.random.default_rng(1)
    for _ in range(20):
        outcome, post = measure(fourier_ket(2, 0), Basis.FOURIER, rng)
        assert outcome == 0
        assert np.allclose(post.amplitudes, fourier_ket(2, 0).amplitudes)


def test_measure_uniform_over_computational():
    # |0'> of dimension 4 has squared amplitude 1/4 on every outcome
    rng = np.random.default_rng(7)
    n = 100_000
    counts = np.zeros(4, dtype=int)
    probs = qmath.outcome_distribution(fourier_ket(4, 0), Basis.COMPUTATIONAL)
    assert np.allclose(probs, 0.25, atol=1e-14)
    draws = rng.choice(4, size=n, p=probs)
    for k in range(4):
        counts[k] = int((draws == k).sum())
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_measure_frequencies_match_born_rule():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amps /= np.linalg.norm(amps)
    ket = Ket(3, amps)
    n = 100_000
    counts = np.zeros(3, dtype=int)
    for _ in range(n):
        outcome, _ = measure(ket, Basis.COMPUTATIONAL, rng)
        counts[outcome] += 1
    expected = np.abs(amps) ** 2 * n
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 0.001


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def test_apply_joint_identity():
    state = product_state([fourier_ket(2, 0), basis_ket(2, 0)])
    out = apply_joint(np.eye(4), state, (0, 1))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_apply_joint_cnot_creates_bell_pair():
    state = product_state([fourier_ket(2, 0), basis_ket(2, 0)])
    out = apply_joint(CNOT, state, (0, 1))
    assert np.allclose(out.amplitudes, np.array([RT2, 0, 0, RT2]), atol=1e-14)


def test_apply_joint_cnot_on_one_zero():
    state = product_state([basis_ket(2, 1), basis_ket(2, 0)])
    out = apply_joint(CNOT, state, (0, 1))
    assert np.allclose(out.amplitudes, np.array([0, 0, 0, 1]), atol=1e-14)


def test_apply_joint_rejects_non_unitary():
    state = product_state([basis_ket(2, 0), basis_ket(2, 0)])
    with pytest.raises(NotUnitaryError):
        apply_joint(np.ones((4, 4)), state, (0, 1))


def test_apply_joint_rejects_bad_shape():
    state = product_state([basis_ket(2, 0), basis_ket(3, 0)])
    with pytest.raises(DimensionError):
        apply_joint(np.eye(4), state, (0, 1))


def test_apply_joint_preserves_norm_and_inner_products():
    from lqkd.attacks import random_unitary

    rng = np.random.default_rng(5)
    for _ in range(10):
        u = random_unitary(6, rng)
        a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        sa = JointState((2, 3, 2), a / np.linalg.norm(a))
        sb = JointState((2, 3, 2), b / np.linalg.norm(b))
        ua = apply_joint(u, sa, (0, 1))
        ub = apply_joint(u, sb, (0, 1))
        assert abs(np.linalg.norm(ua.amplitudes) - 1.0) < 1e-10
        assert abs(np.vdot(ua.amplitudes, ub.amplitudes) - np.vdot(sa.amplitudes, sb.amplitudes)) < 1e-10


def test_apply_joint_on_non_adjacent_subsystems():
    # same unitary on subsystems (0, 2) of a three-party state
    state = product_state([fourier_ket(2, 0), basis_ket(2, 1), basis_ket(2, 0)])
    out = apply_joint(CNOT, state, (0, 2))
    expected = np.zeros(8, dtype=complex)
    expected[0b010] = RT2  # |0 1 0>
    expected[0b111] = RT2  # |1 1 1>
    assert np.allclose(out.amplitudes, expected, atol=1e-14)


def test_measure_joint_bell_pair_collapses_both():
    bell = JointState((2, 2), np.array([RT2, 0, 0, RT2]))
    rng = np.random.default_rng(11)
    counts = [0, 0]
    for _ in range(400):
        outcome, post = measure_joint(bell, 0, Basis.COMPUTATIONAL, rng)
        counts[outcome] += 1
        expected = np.zeros(4)
        expected[outcome * 2 + outcome] = 1.0
        assert np.allclose(post.amplitudes, expected, atol=1e-12)
    assert counts[0] > 100 and counts[1] > 100


def test_measure_joint_product_state_leaves_rest():
    state = product_state([basis_ket(3, 2), basis_ket(2, 0)])
    rng = np.random.default_rng(2)
    outcome, post = measure_joint(state, 0, Basis.COMPUTATIONAL, rng)
    assert outcome == 2
    assert np.allclose(post.amplitudes, state.amplitudes, atol=1e-12)


def test_measure_joint_hadamard_pair_in_computational_basis():
    # (|++> + |-->)/sqrt(2) equals the computational Bell pair
    plus, minus = fourier_ket(2, 0).amplitudes, fourier_ket(2, 1).amplitudes
    amps = (np.kron(plus, plus) + np.kron(minus, minus)) / np.sqrt(2)
    state = JointState((2, 2), amps)
    assert np.allclose(state.amplitudes, [RT2, 0, 0, RT2], atol=1e-14)
    probs = qmath.subsystem_distribution(state, 0, Basis.COMPUTATIONAL)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-14)
    rng = np.random.default_rng(4)
    outcome, post = measure_joint(state, 0, Basis.COMPUTATIONAL, rng)
    other = qmath.subsystem_distribution(post, 1, Basis.COMPUTATIONAL)
    assert other[outcome] > 1 - 1e-12


def test_measure_joint_index_out_of_range():
    state = product_state([basis_ket(2, 0), basis_ket(2, 0)])
    with pytest.raises(DimensionError):
        measure_joint(state, 2, Basis.COMPUTATIONAL, np.random.default_rng(0))


def test_joint_dimension_cap():
    with pytest.raises(DimensionError):
        JointState((2,) * 21, np.zeros(2**21))


def test_ket_requires_normalization():
    with pytest.raises(ValueError):
        Ket(2, np.array([1.0, 1.0]))


def test_transition_probabilities_are_doubly_stochastic():
    for d in (2, 3, 4, 6):
        probs = qmath.transition_probabilities(d, Basis.COMPUTATIONAL, Basis.FOURIER)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(probs, 1.0 / d, atol=1e-12)  # mutually unbiased
        same = qmath.transition_probabilities(d, Basis.FOURIER, Basis.FOURIER)
        assert np.allclose(same, np.eye(d), atol=1e-12)
