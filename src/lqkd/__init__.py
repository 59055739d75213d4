"""Layered prepare-and-measure QKD/SQKD over multidimensional separable states."""

from .attacks import AttackSpec
from .harness import ExperimentSpec, analyze_transcript, run_experiment, spec_from_dict
from .nettop import Layer, Network
from .qkd_engine import ConfigError, QkdConfig, RunResult, run_qkd
from .resgen import compile_states
from .sqkd_engine import SqkdConfig, run_sqkd
from .transcript import QkdTranscript, SqkdTranscript

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "ConfigError",
    "ExperimentSpec",
    "Layer",
    "Network",
    "QkdConfig",
    "QkdTranscript",
    "RunResult",
    "SqkdConfig",
    "SqkdTranscript",
    "analyze_transcript",
    "compile_states",
    "run_experiment",
    "run_qkd",
    "run_sqkd",
    "spec_from_dict",
]
