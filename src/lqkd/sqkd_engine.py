"""Two-way layered key distribution with classical participants.

The hub is the only quantum party. Each round it prepares a state from
one of the two sets and sends the subsystems out; every other participant
either measures in the computational basis and resends the outcome afresh
or reflects the subsystem untouched. The hub remeasures every returned
subsystem in the basis it was prepared in. Reflected subsystems form the
eavesdropping check; keys come only from computational-set rounds in
which all of a layer's members measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, resgen
from .attacks import AttackSpec, measure_ancillas  # noqa: F401
from .nettop import Network, require_valid
from .qkd_engine import (
    ConfigError,
    KeyMaterial,
    RunResult,
    assemble_report,
    bind_attack,
    decode_keys,
    layer_slots,
    prepared_indices,
    slot_tallies,
)

# measure, measure_joint, measure_ancillas and pick_outcome are not called
# here; perfbench/tracer.py counts calls at these engine attributes.
from .qmath import (  # noqa: F401
    cumulative_transition_table,
    measure,
    measure_joint,
    pick_outcome,
    pick_outcomes,
)
from .seeding import round_rngs, stream_rng
from .transcript import ACTIONS, EVE_FILL, MEASURE, REFLECT, SqkdTranscript


@dataclass(frozen=True)
class SqkdConfig:
    network: Network
    key_length: int
    delta: float = 0.25
    seed: int = 0
    attack: Optional[AttackSpec] = None
    truncated: bool = False

    @property
    def rounds(self) -> int:
        return math.ceil(8 * self.key_length * (1.0 + self.delta))


def _validate(config: SqkdConfig) -> None:
    require_valid(config.network)
    if config.key_length < 1:
        raise ConfigError(f"key_length must be >= 1, got {config.key_length}")
    if config.delta <= 0:
        raise ConfigError(f"delta must be > 0, got {config.delta}")


def _sample_rounds(config: SqkdConfig, compiled: resgen.CompiledStates) -> SqkdTranscript:
    """Draw every round of a run as the columns of its transcript."""
    dims = [coding.dim for coding in compiled.codings]
    rounds = config.rounds
    seed = config.seed
    target_slot, channel = bind_attack(config.attack, compiled)

    sets = stream_rng(seed, "alice_set").integers(1, 3, size=rounds)
    state_draws = stream_rng(seed, "alice_state").integers(0, compiled.size, size=rounds)
    action_draws = stream_rng(seed, "bob_action").integers(0, 2, size=(rounds, len(dims)))
    measure_u = stream_rng(seed, "outcome").random(size=(rounds, len(dims)))
    return_u = stream_rng(seed, "return").random(size=(rounds, len(dims)))
    attack_u = stream_rng(seed, "attack").random(size=rounds)

    prepared = prepared_indices(compiled, sets, state_draws)
    measured = action_draws == ACTIONS.index(MEASURE)
    outcomes = np.empty((rounds, len(dims)), dtype=np.int64)
    returns = np.empty_like(prepared)
    for slot, dim in enumerate(dims):
        # set ids 1 and 2 name the bases in Basis order; index 0 is computational
        table = cumulative_transition_table(dim)
        outcomes[:, slot] = pick_outcomes(table[sets - 1, 0, prepared[:, slot]], measure_u[:, slot])
        # fresh computational resend, remeasured in the prepared basis
        resent = pick_outcomes(table[0, sets - 1, outcomes[:, slot]], return_u[:, slot])
        returns[:, slot] = np.where(measured[:, slot], resent, prepared[:, slot])
    outcomes[~measured] = -1

    attacked = eve = None  # the transcript's defaults: nobody attacked
    if channel is not None:
        attacked = attack_u < config.attack.probability
        eve = np.full((rounds, channel.readout_width), EVE_FILL, dtype=np.int64)
        hit = np.flatnonzero(attacked).tolist()
        for r, rng in zip(hit, round_rngs(seed, "eve", hit)):
            outcome, returns[r, target_slot], eve[r] = channel.two_way_round(
                resgen.set_basis(int(sets[r])),
                int(prepared[r, target_slot]),
                bool(measured[r, target_slot]),
                rng,
            )
            outcomes[r, target_slot] = -1 if outcome is None else outcome

    return SqkdTranscript(
        index=np.arange(rounds),
        alice_set=sets,
        alice_state=state_draws,
        actions=action_draws,
        outcomes=outcomes,
        returns=returns,
        attacked=attacked,
        eve=eve,
    )


def run_sqkd(config: SqkdConfig) -> RunResult:
    """Execute the two-way protocol and return transcript, keys, and report."""
    _validate(config)
    compiled = resgen.compile_states(config.network, config.truncated)
    transcript = _sample_rounds(config, compiled)
    keys = extract_sqkd_keys(transcript, compiled)
    report = sqkd_report_from_transcript(transcript, compiled, keys, config.attack)
    return RunResult(transcript=transcript, keys=keys, report=report)


def extract_sqkd_keys(transcript: SqkdTranscript, compiled: resgen.CompiledStates) -> KeyMaterial:
    """Key streams per layer: computational-set rounds where every member measured."""
    measured = transcript.actions == ACTIONS.index(MEASURE)
    computational = transcript.alice_set == 1
    sifted = np.stack(
        [computational & measured[:, slots].all(axis=1) for slots in layer_slots(compiled.network)], axis=1
    )
    return decode_keys(transcript, compiled, sifted)


def sqkd_report_from_transcript(
    transcript: SqkdTranscript,
    compiled: resgen.CompiledStates,
    keys: KeyMaterial,
    attack: AttackSpec | None = None,
) -> analysis.Report:
    """Assemble the analysis report for a two-way transcript."""
    rounds = len(transcript)
    sets = transcript.alice_set
    prepared = prepared_indices(compiled, sets, transcript.alice_state)
    reflected = transcript.actions == ACTIONS.index(REFLECT)
    # measured computational-set subsystems feed the key comparisons
    measured_key = ~reflected & (sets == 1)[:, None]
    # reflected subsystems: the hub must recover exactly what it sent
    reflect_tallies = slot_tallies(compiled, sets, reflected, transcript.returns != prepared)
    # hub return vs participant outcome
    resend_tallies = slot_tallies(compiled, sets, measured_key, transcript.returns != transcript.outcomes)
    # participant outcome vs prepared index (key-correlation errors)
    outcome_tallies = slot_tallies(compiled, sets, measured_key, transcript.outcomes != prepared)
    reflect_mismatches = sum(t.errors for t in reflect_tallies.values())

    retention = {
        i: {
            "key_rounds": len(key.rounds),
            "key_yield_fraction": len(key.rounds) / rounds if rounds else 0.0,
        }
        for i, key in keys.layers.items()
    }
    detection = {
        "reflect_checks": {name: t.to_dict() for name, t in reflect_tallies.items()},
        "reflect_mismatches": reflect_mismatches,
        "resend_mismatches": {name: t.errors for name, t in resend_tallies.items()},
    }
    return assemble_report("sqkd", transcript, compiled, keys, attack, outcome_tallies, reflect_mismatches > 0,
                           retention, detection)
