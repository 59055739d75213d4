"""Adversary models acting on the quantum channel legs.

Four attack families: intercept-resend, entangle-and-measure, asymmetric
cloning, and two-way entangling (forward and backward unitaries with one
fresh ancilla per leg). Besides the per-leg interceptors and the memoized
per-round samplers built on them for the protocol engines, this module
carries the closed-form detection probabilities and the ancilla-component
analysis of two-way attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import qmath
from .qmath import Basis, JointState, Ket

KINDS = ("none", "intercept_resend", "entangle_measure", "cloning", "two_way")


class AttackConfigError(ValueError):
    """Malformed or inconsistent attack specification."""


@dataclass(frozen=True, eq=False)
class AttackSpec:
    """Declarative attack description, as parsed from JSON.

    Two-way unitaries may be given as arrays or as preset names
    ("identity", "cnot", "random:<seed>"); they are instantiated once the
    target's dimension is known.
    """

    kind: str = "none"
    target: Optional[str] = None
    fidelity: Optional[float] = None
    forward: object = None
    backward: object = None
    ancilla_dim: Optional[int] = None
    probability: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise AttackConfigError(f"unknown attack kind {self.kind!r}; expected one of {KINDS}")
        if self.kind != "none" and self.target is None:
            raise AttackConfigError(f"attack kind {self.kind!r} requires a target participant")
        if not 0 < self.probability <= 1:
            raise AttackConfigError(f"attack probability must be in (0, 1], got {self.probability}")
        if self.kind == "cloning":
            if self.fidelity is None or not 0 <= self.fidelity <= 1:
                raise AttackConfigError(f"cloning requires fidelity F in [0, 1], got {self.fidelity}")

    @staticmethod
    def none() -> "AttackSpec":
        return AttackSpec(kind="none")


def attack_from_dict(doc: dict | None) -> AttackSpec:
    if not doc:
        return AttackSpec.none()
    known = {"kind", "target", "F", "fidelity", "forward", "backward", "ancilla_dim", "probability"}
    unknown = set(doc) - known
    if unknown:
        raise AttackConfigError(f"unknown attack fields: {sorted(unknown)}")
    fid = doc.get("F", doc.get("fidelity"))
    return AttackSpec(
        kind=doc.get("kind", "none"),
        target=doc.get("target"),
        fidelity=None if fid is None else float(fid),
        forward=doc.get("forward"),
        backward=doc.get("backward"),
        ancilla_dim=doc.get("ancilla_dim"),
        probability=float(doc.get("probability", 1.0)),
    )


@dataclass
class EveRecord:
    """Everything the eavesdropper obtains in one attacked round."""

    kind: str
    basis: Optional[int] = None
    outcome: Optional[int] = None
    ancillas: tuple[int, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Attack constructors


def intercept_resend(ket: Ket, rng: np.random.Generator) -> tuple[Ket, int, Basis]:
    """Measure in a uniformly chosen basis and forward the post-measurement state."""
    basis = Basis.COMPUTATIONAL if rng.random() < 0.5 else Basis.FOURIER
    outcome, post = qmath.measure(ket, basis, rng)
    return post, outcome, basis


def detection_probability_intercept(d: int, mismatched_rounds: int) -> float:
    """Probability that intercept-resend is caught in the given number of
    basis-mismatched checked rounds: 1 - d^-l."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if mismatched_rounds < 0:
        raise ValueError("round count must be >= 0")
    return 1.0 - float(d) ** (-mismatched_rounds)


def entangle_measure_unitary(d: int) -> np.ndarray:
    """Generalized-CNOT entangler on d (x) d: |i>|j> -> |i>|(i+j) mod d>."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            mat[i * d + (i + j) % d, i * d + j] = 1.0
    return mat


def cloning_isometry(d: int, fidelity: float) -> np.ndarray:
    """Isometry coupling the traveler to a d^2-dimensional ancilla.

    |i> |0>  ->  sqrt(F) |i>|a_ii> + sqrt((1-F)/(d-1)) sum_{j != i} |j>|a_ij>

    with orthonormal ancilla states |a_ij> = |i*d + j>. Columns are the
    images of the traveler basis kets; shape (d*d^2, d).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    err_amp = np.sqrt((1.0 - fidelity) / (d - 1))
    mat = np.zeros((d * d * d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            amp = np.sqrt(fidelity) if j == i else err_amp
            mat[j * d * d + (i * d + j), i] = amp
    return mat


# ---------------------------------------------------------------------------
# Two-way entangling attacks


def resolve_unitary(spec: object, d: int, ancilla_dim: int) -> np.ndarray:
    """Instantiate a two-way leg unitary from an array or preset name."""
    if spec is None or (isinstance(spec, str) and spec == "identity"):
        return np.eye(d * ancilla_dim, dtype=np.complex128)
    if isinstance(spec, str):
        if spec == "cnot":
            if ancilla_dim != d:
                raise AttackConfigError("cnot preset requires ancilla_dim == traveler dimension")
            return entangle_measure_unitary(d)
        if spec.startswith("random:"):
            return random_unitary(d * ancilla_dim, np.random.default_rng(int(spec.split(":", 1)[1])))
        raise AttackConfigError(f"unknown unitary preset {spec!r}")
    mat = np.asarray(spec, dtype=np.float64 if _is_real_doc(spec) else np.complex128)
    if mat.ndim == 3 and mat.shape[-1] == 2:
        mat = mat[..., 0] + 1j * mat[..., 1]
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (d * ancilla_dim, d * ancilla_dim):
        raise AttackConfigError(
            f"unitary shape {mat.shape} does not match traveler x ancilla dimension {d * ancilla_dim}"
        )
    if not qmath.is_unitary(mat):
        raise AttackConfigError("supplied matrix is not unitary within tolerance")
    return mat


def _is_real_doc(spec) -> bool:
    arr = np.asarray(spec)
    return arr.ndim == 3 and arr.shape[-1] == 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def attack_components(unitary: np.ndarray, d: int, ancilla_dim: int) -> np.ndarray:
    """Unnormalized ancilla components of one leg.

    components[i, j] is the ancilla vector multiplying |j> in the image of
    |i>|0>; unitarity forces sum_j ||components[i, j]||^2 = 1.
    """
    unitary = np.asarray(unitary, dtype=np.complex128)
    if unitary.shape != (d * ancilla_dim, d * ancilla_dim):
        raise ValueError(f"unitary shape {unitary.shape} does not match {d}x{ancilla_dim}")
    if not qmath.is_unitary(unitary):
        raise qmath.NotUnitaryError("leg matrix is not unitary within tolerance")
    tensor = unitary.reshape(d, ancilla_dim, d, ancilla_dim)
    # image of |i>|0> expanded over traveler index j
    return np.transpose(tensor[:, :, :, 0], (2, 0, 1)).copy()


@dataclass(frozen=True, eq=False)
class TwoWayComponents:
    """Extracted forward (E) and backward (F) ancilla components."""

    dim: int
    ancilla_dim: int
    forward: np.ndarray
    backward: np.ndarray


def two_way_attack(forward_unitary: np.ndarray, backward_unitary: np.ndarray, d: int,
                   ancilla_dim: int | None = None) -> TwoWayComponents:
    """Validate both leg unitaries and extract their ancilla components."""
    a = ancilla_dim if ancilla_dim is not None else d
    return TwoWayComponents(
        dim=d,
        ancilla_dim=a,
        forward=attack_components(forward_unitary, d, a),
        backward=attack_components(backward_unitary, d, a),
    )


@dataclass(frozen=True)
class MeasureResendScenario:
    """Round where the target measured: Alice sent ``sent``, the target got
    ``bob`` and resent it, Alice's return measurement gave ``alice``."""

    sent: int
    bob: int
    alice: int


@dataclass(frozen=True)
class ReflectScenario:
    """Round where the target reflected a state prepared as (basis, index)."""

    basis: Basis
    index: int


def analytic_two_way_detection(components: TwoWayComponents, scenario) -> float:
    """Closed-form probability for a two-way attack scenario.

    Measure-resend scenarios return the probability of the full outcome
    triple; mismatched triples are the detection events. Reflect
    scenarios return the probability that Alice's return measurement
    differs from what she prepared.
    """
    ef, fb = components.forward, components.backward
    d = components.dim
    if isinstance(scenario, MeasureResendScenario):
        i, j, k = scenario.sent, scenario.bob, scenario.alice
        return float(np.sum(np.abs(ef[i, j]) ** 2) * np.sum(np.abs(fb[j, k]) ** 2))
    if isinstance(scenario, ReflectScenario):
        if scenario.basis is Basis.COMPUTATIONAL:
            i = scenario.index
            same = sum(np.outer(ef[i, j], fb[j, i]).ravel() for j in range(d))
            return float(1.0 - np.sum(np.abs(same) ** 2))
        if scenario.basis is Basis.FOURIER:
            j = scenario.index
            total = np.zeros(components.ancilla_dim ** 2, dtype=np.complex128)
            for n in range(d):
                for x in range(d):
                    for y in range(d):
                        phase = np.exp(2j * np.pi * j * (n - y) / d)
                        total += phase * np.outer(ef[n, x], fb[x, y]).ravel()
            return float(1.0 - np.sum(np.abs(total / d) ** 2))
    raise ValueError(f"unknown scenario {scenario!r}")


def simulate_reflect_distribution(forward_unitary: np.ndarray, backward_unitary: np.ndarray,
                                  d: int, ancilla_dim: int, basis: Basis, index: int) -> np.ndarray:
    """Alice's return-outcome distribution for a reflected state.

    Independent of the component formulas: evolves the joint state vector
    through both legs and reads marginal Born probabilities.
    """
    prepared = qmath.basis_state(d, basis, index)
    state = qmath.product_state([prepared, qmath.basis_ket(ancilla_dim, 0), qmath.basis_ket(ancilla_dim, 0)])
    state = qmath.apply_joint(forward_unitary, state, (0, 1))
    state = qmath.apply_joint(backward_unitary, state, (0, 2))
    return qmath.subsystem_distribution(state, 0, basis)


def intercept_detection_frequency(d: int, mismatched_rounds: int, trials: int,
                                  rng: np.random.Generator) -> float:
    """Monte Carlo frequency of catching intercept-resend.

    Each trial simulates ``mismatched_rounds`` checked rounds in which the
    eavesdropper's basis differs from the preparation basis; a trial counts
    as a detection when any round's final outcome disagrees with the
    prepared index. Probabilities are derived from the state vectors, not
    from the closed form being tested.
    """
    prep_basis = Basis.COMPUTATIONAL if rng.random() < 0.5 else Basis.FOURIER
    eve_basis = Basis.FOURIER if prep_basis is Basis.COMPUTATIONAL else Basis.COMPUTATIONAL
    to_eve = qmath.transition_probabilities(d, prep_basis, eve_basis)
    back = qmath.transition_probabilities(d, eve_basis, prep_basis)

    shape = (trials, mismatched_rounds)
    prepared = rng.integers(0, d, size=shape)
    eve_outcome = _sample_rows(to_eve, prepared, rng)
    final = _sample_rows(back, eve_outcome, rng)
    detected = (final != prepared).any(axis=1)
    return float(detected.mean()) if trials else 0.0


def _sample_rows(prob_rows: np.ndarray, row_indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(prob_rows, axis=1)
    cum /= cum[:, -1:]
    u = rng.random(row_indices.shape)
    picked = cum[row_indices.ravel()]
    out = (u.ravel()[:, None] >= picked).sum(axis=1)
    return out.reshape(row_indices.shape)


# ---------------------------------------------------------------------------
# Per-round interceptor used by the engines


class ChannelAttack:
    """Attack bound to one target subsystem of known dimension."""

    def __init__(self, spec: AttackSpec, dim: int):
        self.spec = spec
        self.dim = dim
        self.kind = spec.kind
        if spec.kind == "entangle_measure":
            self._entangler = entangle_measure_unitary(dim)
        elif spec.kind == "cloning":
            self._isometry = cloning_isometry(dim, spec.fidelity)
        elif spec.kind == "two_way":
            self.ancilla_dim = spec.ancilla_dim if spec.ancilla_dim is not None else dim
            self._forward = resolve_unitary(spec.forward, dim, self.ancilla_dim)
            self._backward = resolve_unitary(spec.backward, dim, self.ancilla_dim)
        # Roots of this run's memoized measurement trees, keyed by what
        # determines their state. Each run builds its own ChannelAttack, so
        # no tree is shared between threads.
        self._nodes: dict[tuple, qmath.MeasurementNode] = {}

    def components(self) -> TwoWayComponents:
        if self.kind != "two_way":
            raise AttackConfigError("components are defined for two-way attacks only")
        return two_way_attack(self._forward, self._backward, self.dim, self.ancilla_dim)

    def forward(self, ket: Ket, rng: np.random.Generator) -> tuple[Ket | JointState, EveRecord]:
        """Intercept the hub -> target leg."""
        if self.kind == "intercept_resend":
            post, outcome, basis = intercept_resend(ket, rng)
            code = 1 if basis is Basis.COMPUTATIONAL else 2
            return post, EveRecord(kind=self.kind, basis=code, outcome=outcome)
        if self.kind == "entangle_measure":
            joint = qmath.product_state([ket, qmath.basis_ket(self.dim, 0)])
            joint = qmath.apply_joint(self._entangler, joint, (0, 1))
            return joint, EveRecord(kind=self.kind)
        if self.kind == "cloning":
            amps = self._isometry @ ket.amplitudes
            return JointState((self.dim, self.dim * self.dim), amps), EveRecord(kind=self.kind)
        if self.kind == "two_way":
            joint = qmath.product_state([ket, qmath.basis_ket(self.ancilla_dim, 0)])
            joint = qmath.apply_joint(self._forward, joint, (0, 1))
            return joint, EveRecord(kind=self.kind)
        raise AttackConfigError(f"attack kind {self.kind!r} has no forward leg")

    def backward(self, carrier: Ket | JointState, rng: np.random.Generator) -> Ket | JointState:
        """Intercept the target -> hub leg (two-way attacks only)."""
        if self.kind != "two_way":
            return carrier
        if isinstance(carrier, Ket):
            joint = qmath.product_state([carrier, qmath.basis_ket(self.ancilla_dim, 0)])
            return qmath.apply_joint(self._backward, joint, (0, 1))
        joint = qmath.tensor_with(carrier, qmath.basis_ket(self.ancilla_dim, 0))
        return qmath.apply_joint(self._backward, joint, (0, len(joint.dims) - 1))

    # -- Cached per-round sampling ------------------------------------------
    #
    # Every carrier state is a fixed function of the prepared (basis, index),
    # and every later state a fixed function of the outcomes drawn so far.
    # The rounds below walk memoized measurement trees rooted at those
    # carriers. They draw from ``rng`` in the same order as measuring the
    # state vectors afresh (forward, measure the traveler, read out the
    # ancillas, backward, ...), so they give the same outcomes and records.

    def _node(self, key: tuple, build) -> qmath.MeasurementNode:
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = qmath.MeasurementNode(build())
        return node

    def _ket_node(self, basis: Basis, index: int) -> qmath.MeasurementNode:
        return self._node(("ket", basis, index), lambda: qmath.basis_state(self.dim, basis, index))

    def _forward_node(self, basis: Basis, index: int,
                      rng: np.random.Generator) -> tuple[qmath.MeasurementNode, EveRecord]:
        """Carrier after the forward leg, and Eve's record so far."""
        if self.kind == "intercept_resend":
            eve_basis = Basis.COMPUTATIONAL if rng.random() < 0.5 else Basis.FOURIER
            outcome, post = self._ket_node(basis, index).sample(0, eve_basis, rng)
            code = 1 if eve_basis is Basis.COMPUTATIONAL else 2
            return post, EveRecord(kind=self.kind, basis=code, outcome=outcome)
        node = self._node(("forward", basis, index),
                          lambda: self.forward(qmath.basis_state(self.dim, basis, index), rng)[0])
        return node, EveRecord(kind=self.kind)

    def _backward_node(self, key: tuple, carrier: qmath.MeasurementNode, rng) -> qmath.MeasurementNode:
        """Carrier after the backward leg; ``key`` names the carrier's state."""
        if self.kind != "two_way":
            return carrier
        return self._node(("backward",) + key, lambda: self.backward(carrier.state, rng))

    def one_way_round(self, basis: Basis, index: int, meas_basis: Basis,
                      rng: np.random.Generator) -> tuple[int, EveRecord]:
        """One attacked hub -> target round: the target's outcome and Eve's record."""
        carrier, eve = self._forward_node(basis, index, rng)
        outcome, eve.ancillas = _read_out(carrier, meas_basis, rng)
        return outcome, eve

    def two_way_round(self, basis: Basis, index: int, measures: bool,
                      rng: np.random.Generator) -> tuple[Optional[int], int, EveRecord]:
        """One attacked two-way round.

        The target measures in the computational basis and resends its
        outcome, or reflects; the hub remeasures the returned traveler in
        ``basis``. Returns the target's outcome (None when reflecting), the
        hub's return outcome and Eve's record.
        """
        carrier, eve = self._forward_node(basis, index, rng)
        outcome, ancillas = None, ()
        key = ("forward", basis, index)
        if measures:
            outcome, ancillas = _read_out(carrier, Basis.COMPUTATIONAL, rng)
            key = ("ket", Basis.COMPUTATIONAL, outcome)
            carrier = self._ket_node(Basis.COMPUTATIONAL, outcome)
        returned, more = _read_out(self._backward_node(key, carrier, rng), basis, rng)
        eve.ancillas = ancillas + more
        return outcome, returned, eve


def _read_out(node: qmath.MeasurementNode, basis: Basis,
              rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
    """Measure the traveler in ``basis``, then every ancilla in the computational basis."""
    count = 1 if isinstance(node.state, Ket) else len(node.state.dims)
    traveler, *ancillas = node.measure_in_turn((basis,) + (Basis.COMPUTATIONAL,) * (count - 1), rng)
    return traveler, tuple(ancillas)


def measure_ancillas(carrier: Ket | JointState, rng: np.random.Generator) -> tuple[int, ...]:
    """Read out every non-traveler subsystem in the computational basis."""
    if isinstance(carrier, Ket):
        return ()
    outcomes = []
    state = carrier
    for subsystem in range(1, len(carrier.dims)):
        outcome, state = qmath.measure_joint(state, subsystem, Basis.COMPUTATIONAL, rng)
        outcomes.append(outcome)
    return tuple(outcomes)


def build_channel_attack(spec: AttackSpec | None, target_dim: int) -> ChannelAttack | None:
    if spec is None or spec.kind == "none":
        return None
    return ChannelAttack(spec, target_dim)
