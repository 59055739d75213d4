import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqkd.nettop import Layer, Network
from lqkd.qmath import basis_ket, fourier_ket
from lqkd.resgen import (
    DigitCodec,
    compile_network,
    compile_truncated,
    decompose_to_parallel,
    factored_local_ket,
    recompose,
    states_equal,
    subnetwork,
)

RT2 = 1.0 / np.sqrt(2)

# Two-qubit product realization of the four-dimensional conjugate
# states: H|m1> (x) H|m0> with m = 2*m1 + m0.
PRIMED_4 = {
    0: np.array([1, 1, 1, 1]) / 2,
    1: np.array([1, -1, 1, -1]) / 2,
    2: np.array([1, 1, -1, -1]) / 2,
    3: np.array([1, -1, -1, 1]) / 2,
}
PLUS = np.array([RT2, RT2])
MINUS = np.array([RT2, -RT2])


# --- digit codec ----------------------------------------------------------


def test_codec_binary_pair():
    codec = DigitCodec((2, 2))
    assert codec.encode((1, 1)) == 3
    assert codec.decode(3) == (1, 1)
    assert codec.encode((0, 0)) == 0


def test_codec_mixed_radix():
    codec = DigitCodec((3, 2))
    assert codec.encode((2, 0)) == 4
    assert codec.decode(4) == (2, 0)


def test_codec_rejects_out_of_range():
    codec = DigitCodec((3, 2))
    with pytest.raises(ValueError):
        codec.encode((3, 0))
    with pytest.raises(ValueError):
        codec.decode(6)
    with pytest.raises(ValueError):
        codec.decode(-1)


@given(st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=5).filter(lambda r: np.prod(r) <= 4096))
@settings(max_examples=80)
def test_codec_bijective(radices):
    codec = DigitCodec(tuple(radices))
    for value in range(codec.size):
        assert codec.encode(codec.decode(value)) == value


# --- network compilation ---------------------------------------------------


def test_compile_demo_network_set1(demo_network):
    compiled = compile_network(demo_network)
    assert [s.indices for s in compiled.set1.states] == [(0, 0), (1, 1), (2, 0), (3, 1)]
    assert [s.layer_symbols for s in compiled.set1.states] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k, (b1, b2) in enumerate([(0, 0), (1, 1), (2, 0), (3, 1)]):
        assert np.allclose(compiled.local_ket(1, k, 0).amplitudes, basis_ket(4, b1).amplitudes)
        assert np.allclose(compiled.local_ket(1, k, 1).amplitudes, basis_ket(2, b2).amplitudes)


def test_compile_demo_network_set2_pairing(demo_network):
    compiled = compile_network(demo_network)
    assert [s.indices for s in compiled.set2.states] == [(0, 0), (1, 1), (2, 0), (3, 1)]
    for k in range(4):
        assert np.allclose(
            compiled.local_ket(2, k, 0).amplitudes, fourier_ket(4, k).amplitudes, atol=1e-14
        )
        expected = PLUS if k % 2 == 0 else MINUS
        assert np.allclose(compiled.local_ket(2, k, 1).amplitudes, expected, atol=1e-14)


def test_factored_realization_matches_hand_written_states(demo_network):
    # the per-layer product realization yields these conjugate states
    # amplitude-for-amplitude, pairing included
    compiled = compile_network(demo_network)
    for k in range(4):
        assert np.allclose(
            factored_local_ket(compiled, 2, k, 1).amplitudes, PRIMED_4[k], atol=1e-14
        )
        expected = PLUS if k % 2 == 0 else MINUS
        assert np.allclose(factored_local_ket(compiled, 2, k, 2).amplitudes, expected, atol=1e-14)
        assert np.allclose(
            factored_local_ket(compiled, 1, k, 1).amplitudes, basis_ket(4, k).amplitudes
        )


def test_compile_scaled_network(scaled_network):
    compiled = compile_network(scaled_network)
    assert [s.indices for s in compiled.set1.states] == [
        (0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (5, 1)
    ]
    assert compiled.codings[0].dim == 6 and compiled.codings[1].dim == 2
    for k in range(6):
        assert np.allclose(
            compiled.local_ket(2, k, 0).amplitudes, fourier_ket(6, k).amplitudes, atol=1e-14
        )


def test_compile_single_layer_reduces_to_two_state_sets(pair_network):
    compiled = compile_network(pair_network)
    assert [s.indices for s in compiled.set1.states] == [(0,), (1,)]
    assert np.allclose(compiled.local_ket(2, 0, 0).amplitudes, PLUS)
    assert np.allclose(compiled.local_ket(2, 1, 0).amplitudes, MINUS)


def test_set_sizes_match_reference_dimension_product(demo_network, scaled_network):
    for net in (demo_network, scaled_network):
        compiled = compile_network(net)
        expected = int(np.prod([layer.ref_dim for layer in net.layers]))
        assert len(compiled.set1.states) == len(compiled.set2.states) == expected


def test_inner_symbols_balanced_for_fixed_outer_symbol(demo_network, scaled_network):
    # confidentiality precondition: fixing any one layer's symbol leaves
    # every other layer's symbol equally frequent across set 1
    for net in (demo_network, scaled_network):
        compiled = compile_network(net)
        k = len(net.layers)
        for fixed in range(k):
            for other in range(k):
                if fixed == other:
                    continue
                for symbol in range(net.layers[fixed].ref_dim):
                    counts = {}
                    for state in compiled.set1.states:
                        if state.layer_symbols[fixed] == symbol:
                            s = state.layer_symbols[other]
                            counts[s] = counts.get(s, 0) + 1
                    assert len(set(counts.values())) == 1
                    assert sorted(counts) == list(range(net.layers[other].ref_dim))


def test_compile_rejects_invalid_network():
    net = Network(names=("Alice", "Bob"), hub=0, layers=(Layer(members=(1,)),))
    with pytest.raises(Exception):
        compile_network(net)


# --- decomposition ---------------------------------------------------------


def test_decompose_then_recompose_is_identity(demo_network, scaled_network, pair_network):
    for net in (demo_network, scaled_network, pair_network):
        compiled = compile_network(net)
        parts = decompose_to_parallel(compiled)
        assert states_equal(recompose(net, parts), compiled)


def test_decompose_demo_structure(demo_network):
    parts = decompose_to_parallel(compile_network(demo_network))
    assert parts[0].members == (1,) and parts[0].ref_dim == 2
    assert parts[1].members == (1, 2) and parts[1].ref_dim == 2
    assert parts[0].digit_position[1] == 0
    assert parts[1].digit_position[1] == 1


def test_decompose_scaled_structure(scaled_network):
    parts = decompose_to_parallel(compile_network(scaled_network))
    assert (parts[0].ref_dim, parts[1].ref_dim) == (3, 2)


def test_decompose_single_layer_identity(pair_network):
    parts = decompose_to_parallel(compile_network(pair_network))
    assert len(parts) == 1
    assert parts[0].digit_position == {1: 0}


def test_subnetwork_builds_single_layer_networks(demo_network):
    sub = subnetwork(demo_network, 0)
    assert sub.names == ("Alice", "Bob1")
    assert len(sub.layers) == 1
    sub2 = subnetwork(demo_network, 1)
    assert sub2.names == ("Alice", "Bob1", "Bob2")


# --- truncated (reduced three-state) resource ------------------------------


def test_truncated_sets_and_rule(scaled_network):
    compiled = compile_truncated(scaled_network)
    assert compiled.truncated
    assert [s.indices for s in compiled.set1.states] == [(0, 0), (1, 1), (2, 1)]
    assert [s.layer_symbols for s in compiled.set1.states] == [(None, 0), (1, 1), (0, 1)]
    coding = compiled.codings[0]
    assert coding.participant == 1
    assert coding.dim == 3
    assert coding.symbols_for(0) == {0: None, 1: 0}
    assert coding.symbols_for(1) == {0: 1, 1: 1}
    assert coding.symbols_for(2) == {0: 0, 1: 1}
    # conjugate partners pair the qutrit index with (+, -, -)
    for k, sign in enumerate([0, 1, 1]):
        assert np.allclose(
            compiled.local_ket(2, k, 0).amplitudes, fourier_ket(3, k).amplitudes, atol=1e-14
        )
        expected = PLUS if sign == 0 else MINUS
        assert np.allclose(compiled.local_ket(2, k, 1).amplitudes, expected, atol=1e-14)


def test_truncated_requires_matching_shape(demo_network):
    with pytest.raises(ValueError):
        compile_truncated(demo_network)


def test_truncated_has_no_factorization(scaled_network):
    compiled = compile_truncated(scaled_network)
    with pytest.raises(ValueError):
        decompose_to_parallel(compiled)
    with pytest.raises(ValueError):
        factored_local_ket(compiled, 1, 0, 1)


# --- property: compile works on random hub-spanning networks ---------------


@st.composite
def small_networks(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    layers = []
    for _ in range(k):
        others = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 1))
        ref = draw(st.sampled_from([2, 2, 3]))
        layers.append(Layer(members=(0, *sorted(others)), ref_dim=ref))
    missing = set(range(1, n)) - {m for layer in layers for m in layer.members}
    if missing:
        layers.append(Layer(members=(0, *sorted(missing)), ref_dim=2))
    return Network(names=tuple(f"p{i}" for i in range(n)), hub=0, layers=tuple(layers))


@given(small_networks())
@settings(max_examples=40, deadline=None)
def test_compile_properties_on_random_networks(net):
    compiled = compile_network(net)
    expected = int(np.prod([layer.ref_dim for layer in net.layers]))
    assert compiled.size == expected
    # every participant's index decodes back to the layer symbols
    for state in compiled.set1.states:
        for slot, coding in enumerate(compiled.codings):
            decoded = coding.symbols_for(state.indices[slot])
            for layer_id, symbol in decoded.items():
                assert state.layer_symbols[layer_id] == symbol
    assert states_equal(recompose(net, decompose_to_parallel(compiled)), compiled)
