"""Layered prepare-and-measure QKD/SQKD over multidimensional separable states."""

from .analysis import (
    CloningCurvePoint,
    Report,
    binary_entropy,
    empirical_entropy,
    empirical_mi,
    key_rate_report,
    mi_cloning_ququart,
    mi_cloning_qubit,
    pinpoint_eve,
    rounds_for_confidence,
)
from .attacks import (
    AttackSpec,
    EveRecord,
    MeasureResendScenario,
    ReflectScenario,
    analytic_two_way_detection,
    cloning_isometry,
    detection_probability_intercept,
    entangle_measure_unitary,
    intercept_resend,
    two_way_attack,
)
from .harness import ExperimentSpec, run_experiment
from .nettop import Layer, Network, local_dimensions, validate
from .qkd_engine import KeyMaterial, QkdConfig, QkdTranscript, RunResult, extract_keys, run_qkd
from .qmath import Basis, JointState, Ket, apply_joint, fourier_ket, measure, measure_joint
from .resgen import (
    CompiledStates,
    DigitCodec,
    compile_network,
    compile_truncated,
    decompose_to_parallel,
    decode_digits,
    encode_digits,
    reference_sets,
)
from .seeding import derive_round_seed
from .sqkd_engine import SqkdConfig, SqkdTranscript, run_boyer_baseline, run_sqkd

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "Basis",
    "CloningCurvePoint",
    "CompiledStates",
    "DigitCodec",
    "EveRecord",
    "ExperimentSpec",
    "JointState",
    "Ket",
    "KeyMaterial",
    "Layer",
    "MeasureResendScenario",
    "Network",
    "QkdConfig",
    "QkdTranscript",
    "ReflectScenario",
    "Report",
    "RunResult",
    "SqkdConfig",
    "SqkdTranscript",
    "analytic_two_way_detection",
    "apply_joint",
    "binary_entropy",
    "cloning_isometry",
    "compile_network",
    "compile_truncated",
    "decode_digits",
    "decompose_to_parallel",
    "derive_round_seed",
    "detection_probability_intercept",
    "empirical_entropy",
    "empirical_mi",
    "encode_digits",
    "entangle_measure_unitary",
    "extract_keys",
    "fourier_ket",
    "intercept_resend",
    "key_rate_report",
    "local_dimensions",
    "measure",
    "measure_joint",
    "mi_cloning_ququart",
    "mi_cloning_qubit",
    "pinpoint_eve",
    "reference_sets",
    "rounds_for_confidence",
    "run_boyer_baseline",
    "run_experiment",
    "run_qkd",
    "run_sqkd",
    "two_way_attack",
    "validate",
]
