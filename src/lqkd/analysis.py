"""Analytic formulas and empirical estimators.

Entropies, the cloning-attack mutual-information curves for qubit and
ququart channels, detection-round budgeting, plug-in mutual information,
per-layer key-rate summaries, and attribution of elevated error rates to
specific participants' channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .nettop import Network


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must be in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shannon_entropy(counts: Iterable[int]) -> float:
    """Plug-in entropy in bits from symbol counts."""
    arr = np.asarray(list(counts), dtype=np.float64)
    total = arr.sum()
    if total <= 0:
        return 0.0
    probs = arr[arr > 0] / total
    return float(-(probs * np.log2(probs)).sum())


def empirical_entropy(symbols) -> float:
    """Plug-in entropy in bits of a symbol sequence (an array or a sequence)."""
    _, counts = np.unique(np.asarray(symbols), return_counts=True)
    return shannon_entropy(counts)


@dataclass(frozen=True)
class CloningCurvePoint:
    """Mutual-information triple for one cloning fidelity."""

    fidelity: float
    i_ab: float
    eve_fidelity: float
    i_ae: float
    eve_fidelity_clamped: bool


def _dim_entropy_term(dim: int, p_correct: float) -> float:
    """log2(d) + p log2 p + (1-p) log2((1-p)/(d-1)): symmetric-channel MI."""
    bits = math.log2(dim)
    if p_correct > 0:
        bits += p_correct * math.log2(p_correct)
    if p_correct < 1:
        bits += (1.0 - p_correct) * math.log2((1.0 - p_correct) / (dim - 1))
    return bits


def mi_cloning_qubit(fidelity: float) -> CloningCurvePoint:
    """Curves for cloning a qubit channel: I_AB = 1 - h(F), Eve's optimal
    two-basis fidelity F_E = 1/2 + sqrt(1-F) (clamped to 1 where the
    expression leaves [0, 1]), I_AE = 1 - h(F_E)."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    i_ab = 1.0 - binary_entropy(fidelity)
    fe = 0.5 + math.sqrt(1.0 - fidelity)
    clamped = fe > 1.0
    fe = min(fe, 1.0)
    return CloningCurvePoint(fidelity, i_ab, fe, 1.0 - binary_entropy(fe), clamped)


def mi_cloning_ququart(fidelity: float) -> CloningCurvePoint:
    """Curves for cloning a ququart channel:
    I_AB = 2 + F log2 F + (1-F) log2((1-F)/3),
    F_E = 3/4 - F/2 + sqrt(3(1-F))/2 (clamped), same form for I_AE."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    i_ab = _dim_entropy_term(4, fidelity)
    fe = 0.75 - fidelity / 2.0 + math.sqrt(3.0 * (1.0 - fidelity)) / 2.0
    clamped = fe > 1.0
    fe = min(fe, 1.0)
    return CloningCurvePoint(fidelity, i_ab, fe, _dim_entropy_term(4, fe), clamped)


def rounds_for_confidence(epsilon: float, d: int) -> int:
    """Smallest l with d^-l <= epsilon (missed-detection budget)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    l = max(1, math.ceil(math.log(1.0 / epsilon) / math.log(d)))
    while float(d) ** (-l) > epsilon:
        l += 1
    while l > 1 and float(d) ** (-(l - 1)) <= epsilon:
        l -= 1
    return l


def empirical_mi(xs, ys) -> float:
    """Plug-in mutual information (bits) between two aligned symbol streams
    (arrays or sequences)."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.shape != ys.shape or xs.size == 0:
        raise ValueError("streams must be non-empty and of equal length")
    _, xi = np.unique(xs, return_inverse=True)
    _, yi = np.unique(ys, return_inverse=True)
    nx, ny = xi.max() + 1, yi.max() + 1
    # integer counts are exact in float64, so this equals summing ones
    joint = np.bincount(xi * ny + yi, minlength=nx * ny).reshape(nx, ny).astype(np.float64)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(px, py)
    return float((joint[nz] * np.log2(joint[nz] / outer[nz])).sum())


# ---------------------------------------------------------------------------
# Error tallies and reports


@dataclass
class ErrorTally:
    """Mismatch counts for one participant's disclosed comparisons."""

    compared: int = 0
    errors: int = 0
    compared_by_set: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0})
    errors_by_set: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0})

    @classmethod
    def from_masks(cls, sets: np.ndarray, compared: np.ndarray, errors: np.ndarray) -> "ErrorTally":
        """Tally of the rows ``compared`` selects; ``errors`` flags mismatches, ``sets`` holds set ids."""
        wrong = compared & errors
        return cls(
            compared=int(np.count_nonzero(compared)),
            errors=int(np.count_nonzero(wrong)),
            compared_by_set={s: int(np.count_nonzero(compared & (sets == s))) for s in (1, 2)},
            errors_by_set={s: int(np.count_nonzero(wrong & (sets == s))) for s in (1, 2)},
        )

    def add(self, set_id: int, error: bool) -> None:
        self.compared += 1
        self.compared_by_set[set_id] += 1
        if error:
            self.errors += 1
            self.errors_by_set[set_id] += 1

    @property
    def qber(self) -> float:
        return self.errors / self.compared if self.compared else 0.0

    def qber_for_set(self, set_id: int) -> float:
        n = self.compared_by_set[set_id]
        return self.errors_by_set[set_id] / n if n else 0.0

    def confidence_interval(self, z: float = 3.0) -> tuple[float, float]:
        if not self.compared:
            return 0.0, 0.0
        q = self.qber
        delta = z * math.sqrt(q * (1.0 - q) / self.compared)
        return max(0.0, q - delta), min(1.0, q + delta)

    def to_dict(self) -> dict:
        low, high = self.confidence_interval()
        return {
            "compared": self.compared,
            "errors": self.errors,
            "qber": self.qber,
            "ci_low": low,
            "ci_high": high,
            "by_set": {
                str(s): {
                    "compared": self.compared_by_set[s],
                    "errors": self.errors_by_set[s],
                    "qber": self.qber_for_set(s),
                }
                for s in (1, 2)
            },
        }


@dataclass(frozen=True)
class PinpointVerdict:
    compromised: tuple[str, ...]
    secure_layers: tuple[int, ...]
    threshold: float

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "compromised": list(self.compromised),
            "secure_layers": list(self.secure_layers),
        }


def pinpoint_eve(network: Network, tallies: dict[str, ErrorTally],
                 threshold: float = 0.01, z: float = 3.0) -> PinpointVerdict:
    """Attribute elevated error rates to participants' channels.

    A participant is flagged when the lower end of their z-sigma error-rate
    interval (``ErrorTally.confidence_interval``) exceeds the threshold; a
    layer stays secure when none of its members is flagged.
    """
    compromised = [name for name, tally in tallies.items() if tally.confidence_interval(z)[0] > threshold]
    compromised_ids = {network.index_of(name) for name in compromised}
    secure = tuple(
        i for i, layer in enumerate(network.layers)
        if not (set(layer.members) - {network.hub}) & compromised_ids
    )
    return PinpointVerdict(tuple(sorted(compromised)), secure, threshold)


@dataclass(frozen=True)
class LayerRate:
    layer: int
    alphabet: int
    length: int
    entropy_bits: float
    symbols_per_transmission: float
    bits_per_transmission: float

    def to_dict(self) -> dict:
        return {
            "alphabet": self.alphabet,
            "length": self.length,
            "entropy_bits": self.entropy_bits,
            "symbols_per_transmission": self.symbols_per_transmission,
            "bits_per_transmission": self.bits_per_transmission,
        }


def key_rate_report(keys, rounds: int) -> dict[int, LayerRate]:
    """Per-layer sifted key rates from extracted key material.

    Entropy comes from the hub's symbol stream (identical to every
    member's in honest runs); the per-transmission rate folds in the
    retention fraction.
    """
    out: dict[int, LayerRate] = {}
    for layer_id, layer_key in keys.layers.items():
        stream = layer_key.streams[layer_key.hub_name]
        entropy = empirical_entropy(stream) if stream else 0.0
        per_round = len(stream) / rounds if rounds else 0.0
        out[layer_id] = LayerRate(
            layer=layer_id,
            alphabet=layer_key.alphabet,
            length=len(stream),
            entropy_bits=entropy,
            symbols_per_transmission=per_round,
            bits_per_transmission=entropy * per_round,
        )
    return out


@dataclass
class Report:
    """Run summary: error statistics, rates, information estimates, verdicts."""

    protocol: str
    rounds: int
    abort: bool
    participants: dict[str, ErrorTally]
    layer_rates: dict[int, LayerRate]
    retention: dict[int, dict]
    keys_identical: dict[int, bool]
    mutual_information: dict
    detection: dict
    pinpoint: PinpointVerdict
    attack: Optional[dict] = None

    def to_dict(self) -> dict:
        doc = {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "abort": self.abort,
            "participants": {name: t.to_dict() for name, t in sorted(self.participants.items())},
            "layers": {
                str(i): {
                    **self.layer_rates[i].to_dict(),
                    **self.retention.get(i, {}),
                    "keys_identical": self.keys_identical.get(i, True),
                }
                for i in sorted(self.layer_rates)
            },
            "mutual_information": self.mutual_information,
            "detection": self.detection,
            "pinpoint": self.pinpoint.to_dict(),
        }
        if self.attack:
            doc["attack"] = self.attack
        return doc
