import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lqkd import analysis
from lqkd.analysis import (
    ErrorTally,
    binary_entropy,
    empirical_entropy,
    empirical_mi,
    mi_cloning_ququart,
    mi_cloning_qubit,
    pinpoint_eve,
    rounds_for_confidence,
)

# exact closed form: h(1/3) = log2(3) - 2/3
H_ONE_THIRD = math.log2(3) - 2.0 / 3.0


def test_binary_entropy_endpoints_and_maximum():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(1 / 3) == pytest.approx(H_ONE_THIRD, abs=1e-12)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric_and_bounded(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


# --- cloning curves ---------------------------------------------------------


def test_cloning_qubit_zero_disturbance():
    point = mi_cloning_qubit(1.0)
    assert point.i_ab == pytest.approx(1.0)
    assert point.eve_fidelity == pytest.approx(0.5)
    assert point.i_ae == pytest.approx(0.0, abs=1e-15)
    assert not point.eve_fidelity_clamped


def test_cloning_qubit_half_fidelity_kills_channel():
    assert mi_cloning_qubit(0.5).i_ab == pytest.approx(0.0, abs=1e-15)


def test_cloning_qubit_example_point():
    point = mi_cloning_qubit(0.96)
    assert point.eve_fidelity == pytest.approx(0.7, abs=1e-12)
    expected = 1.0 - (-0.7 * math.log2(0.7) - 0.3 * math.log2(0.3))
    assert point.i_ae == pytest.approx(expected, abs=1e-12)
    assert point.i_ae == pytest.approx(0.1187, abs=5e-5)


def test_cloning_qubit_clamps_below_three_quarters():
    point = mi_cloning_qubit(0.5)
    assert point.eve_fidelity_clamped
    assert point.eve_fidelity == 1.0
    assert point.i_ae == pytest.approx(1.0)
    assert not mi_cloning_qubit(0.75).eve_fidelity_clamped


def test_cloning_ququart_zero_disturbance():
    point = mi_cloning_ququart(1.0)
    assert point.i_ab == 2.0
    assert point.eve_fidelity == pytest.approx(0.25)
    assert point.i_ae == pytest.approx(0.0, abs=1e-12)


def test_cloning_ququart_uniform_noise_floor():
    assert mi_cloning_ququart(0.25).i_ab == pytest.approx(0.0, abs=1e-12)


def test_cloning_ququart_example_point():
    expected = 2 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25 / 3)
    assert mi_cloning_ququart(0.75).i_ab == pytest.approx(expected, abs=1e-12)
    assert mi_cloning_ququart(0.75).i_ab == pytest.approx(0.7925, abs=5e-5)


def test_cloning_ququart_monotone_above_noise_floor():
    grid = np.linspace(0.25, 1.0, 61)
    values = [mi_cloning_ququart(f).i_ab for f in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == 2.0


def test_cloning_curves_reject_bad_fidelity():
    with pytest.raises(ValueError):
        mi_cloning_qubit(-0.2)
    with pytest.raises(ValueError):
        mi_cloning_ququart(1.2)


# --- detection-round budget -------------------------------------------------


def test_rounds_for_confidence_examples():
    assert rounds_for_confidence(0.25, 4) == 1
    assert rounds_for_confidence(1e-6, 4) == 10
    assert rounds_for_confidence(1e-6, 2) == 20


def test_rounds_for_confidence_rejects_bad_args():
    with pytest.raises(ValueError):
        rounds_for_confidence(0.0, 2)
    with pytest.raises(ValueError):
        rounds_for_confidence(0.5, 1)


@given(
    st.floats(min_value=1e-12, max_value=0.999, allow_nan=False),
    st.integers(min_value=2, max_value=16),
)
def test_rounds_for_confidence_is_tight(epsilon, d):
    l = rounds_for_confidence(epsilon, d)
    assert float(d) ** (-l) <= epsilon
    if l > 1:
        assert float(d) ** (-(l - 1)) > epsilon


# --- empirical estimators ---------------------------------------------------


def test_empirical_mi_identical_streams():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 2, size=100_000)
    assert empirical_mi(xs, xs) == pytest.approx(1.0, abs=0.01)


def test_empirical_mi_independent_streams():
    rng = np.random.default_rng(1)
    xs = rng.integers(0, 2, size=100_000)
    ys = rng.integers(0, 2, size=100_000)
    assert empirical_mi(xs, ys) < 0.01


def test_empirical_mi_symmetric_and_nonnegative():
    rng = np.random.default_rng(2)
    xs = rng.integers(0, 3, size=5000)
    ys = (xs + rng.integers(0, 2, size=5000)) % 3
    forward = empirical_mi(xs, ys)
    assert forward >= 0.0
    assert forward == pytest.approx(empirical_mi(ys, xs), abs=1e-12)


def test_empirical_mi_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        empirical_mi([0, 1], [0])


def test_empirical_entropy_uniform():
    assert empirical_entropy([0, 1, 2, 3] * 100) == pytest.approx(2.0)
    assert empirical_entropy([5] * 10) == 0.0


# --- error tallies and pinpointing ------------------------------------------


def _tally(errors: int, compared: int) -> ErrorTally:
    t = ErrorTally()
    for i in range(compared):
        t.add(1, i < errors)
    return t


def test_error_tally_confidence_interval():
    t = _tally(10, 1000)
    low, high = t.confidence_interval()
    assert low < 0.01 < high
    assert t.qber == pytest.approx(0.01)
    empty = ErrorTally()
    assert empty.confidence_interval() == (0.0, 0.0)


def test_pinpoint_flags_only_attacked_participant(demo_network):
    tallies = {"Bob1": _tally(0, 2000), "Bob2": _tally(500, 2000)}
    verdict = pinpoint_eve(demo_network, tallies)
    assert verdict.compromised == ("Bob2",)
    assert verdict.secure_layers == (0,)


def test_pinpoint_honest_run_keeps_all_layers(demo_network):
    tallies = {"Bob1": _tally(0, 2000), "Bob2": _tally(0, 2000)}
    verdict = pinpoint_eve(demo_network, tallies)
    assert verdict.compromised == ()
    assert verdict.secure_layers == (0, 1)


def test_pinpoint_attack_on_shared_participant_voids_everything(demo_network):
    tallies = {"Bob1": _tally(700, 2000), "Bob2": _tally(0, 2000)}
    verdict = pinpoint_eve(demo_network, tallies)
    assert verdict.compromised == ("Bob1",)
    assert verdict.secure_layers == ()


def test_pinpoint_requires_significance_not_just_excess(demo_network):
    # 2 errors in 60 comparisons exceeds the threshold but not at 3 sigma
    tallies = {"Bob1": _tally(2, 60), "Bob2": _tally(0, 60)}
    verdict = pinpoint_eve(demo_network, tallies)
    assert verdict.compromised == ()


# --- key rates ---------------------------------------------------------------


class _FakeLayerKey:
    def __init__(self, hub_name, stream, alphabet):
        self.hub_name = hub_name
        self.streams = {hub_name: stream}
        self.alphabet = alphabet


class _FakeKeys:
    def __init__(self, layers):
        self.layers = layers


def test_key_rate_report_counts_bits_per_transmission():
    keys = _FakeKeys({0: _FakeLayerKey("Alice", tuple([0, 1] * 250), 2)})
    rates = analysis.key_rate_report(keys, rounds=1000)
    rate = rates[0]
    assert rate.entropy_bits == pytest.approx(1.0)
    assert rate.symbols_per_transmission == pytest.approx(0.5)
    assert rate.bits_per_transmission == pytest.approx(0.5)


def test_key_rate_report_empty_layer():
    keys = _FakeKeys({0: _FakeLayerKey("Alice", (), 2)})
    rate = analysis.key_rate_report(keys, rounds=100)[0]
    assert rate.entropy_bits == 0.0
    assert rate.length == 0
