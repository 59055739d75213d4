"""Resource-state compilation for layered networks.

Compiles a network into the two prepare sets of multidimensional separable
states: one reference set per layer, tensored over layers, with each
participant's per-layer factors fused into a single qudit through a
mixed-radix digit mapping. The inverse digit extraction drives key
generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .nettop import Layer, Network, require_valid
from .qmath import Basis, Ket, basis_state


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class DigitCodec:
    """Mixed-radix place-value codec; the first digit is most significant."""

    radices: tuple[int, ...]

    def __post_init__(self):
        radices = tuple(int(r) for r in self.radices)
        if not radices or any(r < 2 for r in radices):
            raise ValueError(f"radices must all be >= 2, got {radices}")
        object.__setattr__(self, "radices", radices)

    @property
    def size(self) -> int:
        return prod(self.radices)

    def encode(self, digits) -> int:
        digits = tuple(int(d) for d in digits)
        if len(digits) != len(self.radices):
            raise ValueError(f"expected {len(self.radices)} digits, got {len(digits)}")
        value = 0
        for digit, radix in zip(digits, self.radices):
            if not 0 <= digit < radix:
                raise ValueError(f"digit {digit} out of range for radix {radix}")
            value = value * radix + digit
        return value

    def decode(self, value: int) -> tuple[int, ...]:
        value = int(value)
        if not 0 <= value < self.size:
            raise ValueError(f"value {value} out of range for radices {self.radices}")
        digits = []
        for radix in reversed(self.radices):
            value, digit = divmod(value, radix)
            digits.append(digit)
        return tuple(reversed(digits))


@dataclass(frozen=True)
class ParticipantCoding:
    """How one participant's local index maps to per-layer key symbols."""

    participant: int
    dim: int
    layers: tuple[int, ...]
    symbol_table: tuple[tuple[int | None, ...], ...]

    def symbols_for(self, local_index: int) -> dict[int, int | None]:
        return dict(zip(self.layers, self.symbol_table[local_index]))


@dataclass(frozen=True)
class SeparableState:
    """One product state, recorded as the per-participant local basis indices.

    ``layer_symbols`` is aligned with the network's layer list; the
    truncated resource family may leave a layer symbol undefined.
    """

    layer_symbols: tuple[int | None, ...]
    indices: tuple[int, ...]


@dataclass(frozen=True)
class PrepareSet:
    set_id: int
    basis: Basis
    states: tuple[SeparableState, ...]


@dataclass(frozen=True)
class CompiledStates:
    """Both prepare sets plus the per-participant index codings."""

    network: Network
    codings: tuple[ParticipantCoding, ...]
    set1: PrepareSet
    set2: PrepareSet
    truncated: bool = False

    @property
    def size(self) -> int:
        return len(self.set1.states)

    def prepare_set(self, set_id: int) -> PrepareSet:
        return self.set1 if set_id == 1 else self.set2

    def local_ket(self, set_id: int, state_index: int, slot: int) -> Ket:
        """The ket actually sent to the slot-th non-hub participant."""
        state = self.prepare_set(set_id).states[state_index]
        return basis_state(self.codings[slot].dim, set_basis(set_id), state.indices[slot])


def set_basis(set_id: int) -> Basis:
    if set_id == 1:
        return Basis.COMPUTATIONAL
    if set_id == 2:
        return Basis.FOURIER
    raise ValueError(f"set_id must be 1 or 2, got {set_id}")


def compile_network(network: Network) -> CompiledStates:
    """Compile the general product construction for a valid network.

    Layer symbol tuples are enumerated in mixed-radix order (first layer
    most significant); each participant's local index fuses the digits of
    the layers containing them.
    """
    require_valid(network)
    radices = tuple(layer.ref_dim for layer in network.layers)
    full = DigitCodec(radices)

    codings = []
    for j in sorted(network.non_hub()):
        layer_ids = network.membership(j)
        codec = DigitCodec(tuple(radices[i] for i in layer_ids))
        table = tuple(codec.decode(v) for v in range(codec.size))
        codings.append(ParticipantCoding(participant=j, dim=codec.size, layers=layer_ids, symbol_table=table))
    codings = tuple(codings)

    states = []
    for value in range(full.size):
        symbols = full.decode(value)
        indices = tuple(
            DigitCodec(tuple(radices[i] for i in coding.layers)).encode(tuple(symbols[i] for i in coding.layers))
            for coding in codings
        )
        states.append(SeparableState(layer_symbols=symbols, indices=indices))
    states = tuple(states)

    return CompiledStates(
        network=network,
        codings=codings,
        set1=PrepareSet(1, Basis.COMPUTATIONAL, states),
        set2=PrepareSet(2, Basis.FOURIER, states),
    )


# Key rule of the reduced three-state resource on the two-layer topology
# with reference dimensions (3, 2): local index -> (first-layer symbol,
# second-layer symbol). Index 0 yields no symbol in the first layer.
_TRUNCATED_SYMBOLS: tuple[tuple[int | None, int], ...] = ((None, 0), (1, 1), (0, 1))


def compile_truncated(network: Network) -> CompiledStates:
    """Compile the reduced (3, 2)-dimensional resource family.

    Instead of the six product states of the general construction, only
    three states are prepared; participants spanning both layers hold a
    single qutrit whose index decodes through a fixed non-uniform rule.
    """
    require_valid(network)
    if len(network.layers) != 2:
        raise ConfigError("truncated resource requires exactly two layers")
    if tuple(layer.ref_dim for layer in network.layers) != (3, 2):
        raise ConfigError("truncated resource requires reference dimensions (3, 2)")
    first = set(network.layer_non_hub(0))
    second = set(network.layer_non_hub(1))
    if not first <= second:
        raise ConfigError("truncated resource requires first-layer members inside the second layer")

    codings = []
    for j in sorted(network.non_hub()):
        if j in first:
            codings.append(
                ParticipantCoding(participant=j, dim=3, layers=(0, 1), symbol_table=_TRUNCATED_SYMBOLS)
            )
        else:
            codings.append(
                ParticipantCoding(participant=j, dim=2, layers=(1,), symbol_table=((0,), (1,)))
            )
    codings = tuple(codings)

    states = []
    for m, (l1_symbol, l2_symbol) in enumerate(_TRUNCATED_SYMBOLS):
        indices = tuple(m if coding.dim == 3 else l2_symbol for coding in codings)
        states.append(SeparableState(layer_symbols=(l1_symbol, l2_symbol), indices=indices))
    states = tuple(states)

    return CompiledStates(
        network=network,
        codings=codings,
        set1=PrepareSet(1, Basis.COMPUTATIONAL, states),
        set2=PrepareSet(2, Basis.FOURIER, states),
        truncated=True,
    )


def compile_states(network: Network, truncated: bool = False) -> CompiledStates:
    """The prepare sets a run uses: the reduced family when ``truncated``, else the general one."""
    if truncated:
        return compile_truncated(network)
    return compile_network(network)


def factored_local_ket(compiled: CompiledStates, set_id: int, state_index: int, participant: int) -> Ket:
    """Realize a participant's subsystem as the product of its per-layer factors.

    Set-2 factors are Fourier-transformed per layer before fusing, which
    is how the construction arrives at the states; the fused ``local_ket``
    realization instead uses the Fourier basis of the full local
    dimension. The two are related by a fixed local basis convention and
    produce identical protocol statistics.
    """
    if compiled.truncated:
        raise ValueError("truncated states have no per-layer factorization")
    slot = [c.participant for c in compiled.codings].index(participant)
    coding = compiled.codings[slot]
    state = compiled.prepare_set(set_id).states[state_index]
    basis = set_basis(set_id)
    radices = tuple(compiled.network.layers[i].ref_dim for i in coding.layers)
    digits = DigitCodec(radices).decode(state.indices[slot])
    factors = [basis_state(r, basis, digit).amplitudes for r, digit in zip(radices, digits)]
    return Ket(coding.dim, reduce(np.kron, factors))


@dataclass(frozen=True)
class LayerFactors:
    """One layer's share of the compiled sets: a standalone qudit sub-protocol."""

    layer: int
    members: tuple[int, ...]
    ref_dim: int
    digit_position: dict[int, int]


def decompose_to_parallel(compiled: CompiledStates) -> tuple[LayerFactors, ...]:
    """Split the compiled sets back into their per-layer factor protocols."""
    if compiled.truncated:
        raise ValueError("truncated states do not factor into parallel layer protocols")
    network = compiled.network
    parts = []
    for i, layer in enumerate(network.layers):
        members = network.layer_non_hub(i)
        position = {}
        for j in members:
            position[j] = network.membership(j).index(i)
        parts.append(LayerFactors(layer=i, members=members, ref_dim=layer.ref_dim, digit_position=position))
    return tuple(parts)


def recompose(network: Network, parts) -> CompiledStates:
    """Rebuild full prepare sets from per-layer factors (inverse of decompose)."""
    parts = sorted(parts, key=lambda p: p.layer)
    if [p.layer for p in parts] != list(range(len(network.layers))):
        raise ValueError("parts do not cover the network's layers")
    layers = tuple(Layer(members=(network.hub, *p.members), ref_dim=p.ref_dim) for p in parts)
    return compile_network(Network(names=network.names, hub=network.hub, layers=layers))


def subnetwork(network: Network, layer_id: int) -> Network:
    """Single-layer network for running one factor protocol independently."""
    layer = network.layers[layer_id]
    keep = sorted(set(layer.members))
    names = tuple(network.names[j] for j in keep)
    remap = {j: i for i, j in enumerate(keep)}
    return Network(
        names=names,
        hub=remap[network.hub],
        layers=(Layer(members=tuple(remap[j] for j in keep), ref_dim=layer.ref_dim),),
    )


def states_equal(a: CompiledStates, b: CompiledStates) -> bool:
    """Structural equality of two compilations (same codings and state tables)."""
    return (
        a.codings == b.codings
        and a.set1.states == b.set1.states
        and a.set2.states == b.set2.states
        and a.truncated == b.truncated
    )
