"""Complex linear algebra for qudits.

Dense state vectors only: kets, computational and Fourier bases, product
states, unitaries on selected subsystems of a joint space, and Born-rule
projective measurement, one-off or through memoized measurement trees.
All randomness flows through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce

import numpy as np

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
MAX_JOINT_AMPLITUDES = 2**20


class Basis(Enum):
    """The two bases every participant prepares and measures in."""

    COMPUTATIONAL = "computational"
    FOURIER = "fourier"


class DimensionError(ValueError):
    """Subsystem dimensions are inconsistent or exceed the dense-vector cap."""


class NotUnitaryError(ValueError):
    """A matrix supplied as a unitary fails the unitarity tolerance."""


def _freeze(amplitudes, length: int) -> np.ndarray:
    amps = np.array(amplitudes, dtype=np.complex128).reshape(length)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: |norm-1| = {abs(norm - 1.0):.3e}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state of one d-dimensional system, amplitudes in the computational basis."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError(f"ket dimension must be >= 2, got {self.dim}")
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes, self.dim))


@dataclass(frozen=True, eq=False)
class JointState:
    """Pure state of an ordered list of subsystems, flattened in C order."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise DimensionError(f"subsystem dimensions must all be >= 2, got {dims}")
        total = int(np.prod(dims))
        if total > MAX_JOINT_AMPLITUDES:
            raise DimensionError(f"joint dimension {total} exceeds cap {MAX_JOINT_AMPLITUDES}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes, total))

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def basis_ket(d: int, j: int) -> Ket:
    """|j> in dimension d."""
    _check_index(d, j)
    amps = np.zeros(d, dtype=np.complex128)
    amps[j] = 1.0
    return Ket(d, amps)


def fourier_ket(d: int, j: int) -> Ket:
    """j-th Fourier-basis ket of dimension d: sum_k e^{2*pi*i*j*k/d} |k> / sqrt(d)."""
    _check_index(d, j)
    k = np.arange(d)
    return Ket(d, np.exp(2j * np.pi * j * k / d) / np.sqrt(d))


@lru_cache(maxsize=None)
def basis_state(d: int, basis: Basis, j: int) -> Ket:
    """j-th ket of ``basis`` in dimension d (shared: kets are immutable)."""
    return basis_ket(d, j) if basis is Basis.COMPUTATIONAL else fourier_ket(d, j)


@lru_cache(maxsize=None)
def basis_matrix(d: int, basis: Basis) -> np.ndarray:
    """Matrix whose column j is the j-th basis ket (read-only)."""
    if basis is Basis.COMPUTATIONAL:
        mat = np.eye(d, dtype=np.complex128)
    else:
        k = np.arange(d)
        mat = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def transition_probabilities(d: int, prepared_in: Basis, measured_in: Basis) -> np.ndarray:
    """Row m: Born distribution of outcomes when basis state m is measured in another basis."""
    prep = basis_matrix(d, prepared_in)
    meas = basis_matrix(d, measured_in)
    probs = np.abs(meas.conj().T @ prep) ** 2
    probs = probs.T.copy()
    probs.setflags(write=False)
    return probs


@lru_cache(maxsize=None)
def cumulative_transition_table(d: int) -> np.ndarray:
    """Cumulative transition rows for every pair of bases, for fast sampling.

    Entry [p, m, j] is the cumulative outcome distribution of basis state j
    of the p-th basis measured in the m-th basis, bases in ``Basis`` order
    (read-only).
    """
    table = np.array([[np.cumsum(transition_probabilities(d, p, m), axis=1) for m in Basis] for p in Basis])
    table.setflags(write=False)
    return table


def pick_outcome(cumrow, u: float) -> int:
    """Index of the first cumulative edge above u (categorical sampling)."""
    for k, edge in enumerate(cumrow):
        if u < edge:
            return k
    return len(cumrow) - 1


def pick_outcomes(cumrows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``pick_outcome`` row by row: the number of edges <= u, capped at the last index."""
    return np.minimum((cumrows <= u[:, None]).sum(axis=1), cumrows.shape[1] - 1)


def outcome_distribution(state: Ket, basis: Basis) -> np.ndarray:
    """Born probabilities of each outcome for a projective measurement in ``basis``."""
    mat = basis_matrix(state.dim, basis)
    return np.abs(mat.conj().T @ state.amplitudes) ** 2


def measure(state: Ket, basis: Basis, rng: np.random.Generator) -> tuple[int, Ket]:
    """Projective measurement; returns the outcome and the post-measurement basis ket."""
    outcome, post = MeasurementNode(state).sample(0, basis, rng)
    return outcome, post.state


def product_state(kets) -> JointState:
    kets = list(kets)
    amps = reduce(np.kron, [k.amplitudes for k in kets])
    return JointState(tuple(k.dim for k in kets), amps)


def tensor_with(state: JointState, ket: Ket) -> JointState:
    """Append one fresh subsystem at the end."""
    return JointState(state.dims + (ket.dim,), np.kron(state.amplitudes, ket.amplitudes))


def is_unitary(mat: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    eye = np.eye(mat.shape[0])
    return bool(np.max(np.abs(mat.conj().T @ mat - eye)) <= tol)


def apply_joint(unitary: np.ndarray, state: JointState, subsystems) -> JointState:
    """Apply a unitary to the product space of the selected subsystems.

    ``subsystems`` lists subsystem indices in the order matching the
    unitary's tensor factor ordering.
    """
    subsystems = tuple(int(s) for s in subsystems)
    if len(set(subsystems)) != len(subsystems):
        raise DimensionError(f"repeated subsystem index in {subsystems}")
    for s in subsystems:
        if not 0 <= s < len(state.dims):
            raise DimensionError(f"subsystem {s} out of range for dims {state.dims}")
    unitary = np.asarray(unitary, dtype=np.complex128)
    d_sel = int(np.prod([state.dims[s] for s in subsystems]))
    if unitary.shape != (d_sel, d_sel):
        raise DimensionError(f"unitary shape {unitary.shape} does not match selected dimension {d_sel}")
    if not is_unitary(unitary):
        raise NotUnitaryError("matrix is not unitary within tolerance")

    tensor = state.tensor()
    moved = np.moveaxis(tensor, subsystems, range(len(subsystems)))
    shape = moved.shape
    out = unitary @ moved.reshape(d_sel, -1)
    back = np.moveaxis(out.reshape(shape), range(len(subsystems)), subsystems)
    return JointState(state.dims, back.ravel())


def _measured_coefficients(state: JointState, subsystem: int, basis: Basis):
    if not 0 <= subsystem < len(state.dims):
        raise DimensionError(f"subsystem {subsystem} out of range for dims {state.dims}")
    d = state.dims[subsystem]
    moved = np.moveaxis(state.tensor(), subsystem, 0)
    coeffs = basis_matrix(d, basis).conj().T @ moved.reshape(d, -1)
    return coeffs, moved.shape


def subsystem_distribution(state: JointState, subsystem: int, basis: Basis) -> np.ndarray:
    """Marginal Born distribution of one subsystem's measurement outcomes."""
    coeffs, _ = _measured_coefficients(state, subsystem, basis)
    return (np.abs(coeffs) ** 2).sum(axis=1)


def measure_joint(
    state: JointState, subsystem: int, basis: Basis, rng: np.random.Generator
) -> tuple[int, JointState]:
    """Born-rule measurement of one subsystem; the post-state is renormalized."""
    outcome, post = MeasurementNode(state).sample(subsystem, basis, rng)
    return outcome, post.state


@dataclass(eq=False, slots=True)
class _Branch:
    """One (subsystem, basis) measurement of a node's state."""

    subsystem: int
    basis: Basis
    cum: list[float]  # normalised cumulative Born distribution
    probs: np.ndarray
    coeffs: np.ndarray | None  # joint states: amplitudes per outcome, measured axis first
    moved_shape: tuple[int, ...] | None
    children: dict


def _draw(cum: list[float], rng: np.random.Generator) -> int:
    """Inverse-CDF sample: the number of cumulative edges <= u, capped at the last index."""
    return min(bisect_right(cum, rng.random()), len(cum) - 1)


class MeasurementNode:
    """A fixed pure state whose projective measurements are worked out once.

    For each (subsystem, basis) the Born distribution is computed on first
    use; each post-measurement state is built, renormalized and checked on
    first use and kept as a child node. Sampling draws one ``rng.random()``
    and bisects the normalised cumulative distribution, so a node gives
    the same outcomes, draw for draw, as measuring its state afresh, and a
    tree of nodes replays a chain of measurements without rebuilding any
    state. A ``Ket`` is one subsystem, and its post-measurement states are
    basis kets.
    """

    __slots__ = ("state", "_branches")

    def __init__(self, state: Ket | JointState):
        self.state = state
        self._branches: dict[tuple[int, Basis], _Branch] = {}

    def _branch(self, subsystem: int, basis: Basis) -> _Branch:
        branch = self._branches.get((subsystem, basis))
        if branch is None:
            if isinstance(self.state, Ket):
                if subsystem != 0:
                    raise DimensionError(f"subsystem {subsystem} out of range for a single ket")
                coeffs, moved_shape = None, None
                probs = outcome_distribution(self.state, basis)
            else:
                coeffs, moved_shape = _measured_coefficients(self.state, subsystem, basis)
                probs = (np.abs(coeffs) ** 2).sum(axis=1)
            cum = np.cumsum(probs)
            cum /= cum[-1]
            branch = _Branch(subsystem, basis, cum.tolist(), probs, coeffs, moved_shape, {})
            self._branches[(subsystem, basis)] = branch
        return branch

    def _child(self, branch: _Branch, outcome: int) -> "MeasurementNode":
        node = branch.children.get(outcome)
        if node is None:
            if branch.coeffs is None:
                post = basis_state(self.state.dim, branch.basis, outcome)
            else:
                conditional = branch.coeffs[outcome] / np.sqrt(branch.probs[outcome])
                d = self.state.dims[branch.subsystem]
                axis_vec = basis_state(d, branch.basis, outcome).amplitudes
                moved = np.outer(axis_vec, conditional).reshape(branch.moved_shape)
                post = JointState(self.state.dims, np.moveaxis(moved, 0, branch.subsystem).ravel())
            node = branch.children[outcome] = MeasurementNode(post)
        return node

    def sample(self, subsystem: int, basis: Basis, rng: np.random.Generator) -> tuple[int, "MeasurementNode"]:
        """Measure ``subsystem`` in ``basis``: the outcome and the post-measurement node."""
        branch = self._branch(subsystem, basis)
        outcome = _draw(branch.cum, rng)
        return outcome, self._child(branch, outcome)

    def measure_in_turn(self, bases, rng: np.random.Generator) -> list[int]:
        """Measure subsystem k in ``bases[k]`` for k = 0, 1, ... in turn; the outcomes.

        Each measurement acts on the state the one before left; the state
        after the last is never built.
        """
        node, outcomes, last = self, [], len(bases) - 1
        for subsystem, basis in enumerate(bases):
            branch = node._branch(subsystem, basis)
            outcome = _draw(branch.cum, rng)
            outcomes.append(outcome)
            if subsystem < last:
                node = node._child(branch, outcome)
        return outcomes


def _check_index(d: int, j: int) -> None:
    if d < 2:
        raise DimensionError(f"dimension must be >= 2, got {d}")
    if not 0 <= j < d:
        raise ValueError(f"basis index {j} out of range for dimension {d}")
