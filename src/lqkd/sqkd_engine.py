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
from .attacks import AttackSpec, ChannelAttack, EveRecord, build_channel_attack, measure_ancillas  # noqa: F401
from .nettop import Layer, Network, require_valid
from .qkd_engine import (
    ConfigError,
    KeyMaterial,
    LayerKey,
    RunResult,
    layer_alphabets,
    prepared_indices,
    row_tuples,
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

MEASURE = "measure"
REFLECT = "reflect"
ACTIONS = (MEASURE, REFLECT)  # indexed by the drawn action


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


@dataclass
class SqkdRound:
    """One two-way round: actions, outcomes, and the hub's return outcomes."""

    index: int
    alice_set: int
    alice_state: int
    actions: tuple[str, ...]
    outcomes: tuple[Optional[int], ...]
    returns: tuple[int, ...]
    eve: Optional[EveRecord] = None


def _validate(config: SqkdConfig) -> None:
    require_valid(config.network)
    if config.key_length < 1:
        raise ConfigError(f"key_length must be >= 1, got {config.key_length}")
    if config.delta <= 0:
        raise ConfigError(f"delta must be > 0, got {config.delta}")


def _sample_rounds(config: SqkdConfig, compiled: resgen.CompiledStates, attack: AttackSpec) -> list[SqkdRound]:
    """Draw every round of a run; its arrays are freed before keys and report are built."""
    network = config.network
    bobs = [coding.participant for coding in compiled.codings]
    dims = [coding.dim for coding in compiled.codings]
    rounds = config.rounds
    seed = config.seed

    channel: ChannelAttack | None = None
    target_slot = -1
    if attack.kind != "none":
        target = network.index_of(attack.target)
        if target not in bobs:
            raise ConfigError(f"attack target {attack.target!r} holds no subsystem")
        target_slot = bobs.index(target)
        channel = build_channel_attack(attack, dims[target_slot])

    sets = stream_rng(seed, "alice_set").integers(1, 3, size=rounds)
    state_draws = stream_rng(seed, "alice_state").integers(0, compiled.size, size=rounds)
    action_draws = stream_rng(seed, "bob_action").integers(0, 2, size=(rounds, len(bobs)))
    measure_u = stream_rng(seed, "outcome").random(size=(rounds, len(bobs)))
    return_u = stream_rng(seed, "return").random(size=(rounds, len(bobs)))
    attack_u = stream_rng(seed, "attack").random(size=rounds)

    prepared = prepared_indices(compiled, sets, state_draws)
    measured = action_draws == 0
    outcomes = np.empty((rounds, len(bobs)), dtype=np.int64)
    returns = np.empty_like(prepared)
    for slot, dim in enumerate(dims):
        # set ids 1 and 2 name the bases in Basis order; index 0 is computational
        table = cumulative_transition_table(dim)
        outcomes[:, slot] = pick_outcomes(table[sets - 1, 0, prepared[:, slot]], measure_u[:, slot])
        # fresh computational resend, remeasured in the prepared basis
        resent = pick_outcomes(table[0, sets - 1, outcomes[:, slot]], return_u[:, slot])
        returns[:, slot] = np.where(measured[:, slot], resent, prepared[:, slot])
    outcome_cells = outcomes.astype(object)
    outcome_cells[~measured] = None

    eves: dict[int, EveRecord] = {}
    if channel is not None:
        attacked = np.flatnonzero(attack_u < attack.probability).tolist()
        for r, rng in zip(attacked, round_rngs(seed, "eve", attacked)):
            outcome_cells[r, target_slot], returns[r, target_slot], eves[r] = channel.two_way_round(
                resgen.set_basis(int(sets[r])),
                int(prepared[r, target_slot]),
                bool(measured[r, target_slot]),
                rng,
            )

    transcript = [
        SqkdRound(
            index=r,
            alice_set=set_id,
            alice_state=state_index,
            actions=tuple(ACTIONS[a] for a in acts),
            outcomes=outs,
            returns=rets,
            eve=eves.get(r),
        )
        for r, (set_id, state_index, acts, outs, rets) in enumerate(
            zip(
                sets.tolist(),
                state_draws.tolist(),
                row_tuples(action_draws),
                row_tuples(outcome_cells),
                row_tuples(returns),
            )
        )
    ]

    return transcript


def run_sqkd(config: SqkdConfig) -> RunResult:
    """Execute the two-way protocol and return transcript, keys, and report."""
    _validate(config)
    network = config.network
    compiled = (
        resgen.compile_truncated(network) if config.truncated else resgen.compile_network(network)
    )
    attack = config.attack if config.attack is not None else AttackSpec.none()
    transcript = _sample_rounds(config, compiled, attack)
    keys = extract_sqkd_keys(transcript, compiled)
    report = sqkd_report_from_transcript(transcript, compiled, keys, attack)
    return RunResult(transcript=transcript, keys=keys, report=report)


def extract_sqkd_keys(transcript, compiled: resgen.CompiledStates) -> KeyMaterial:
    """Key streams per layer: computational-set rounds where every member measured."""
    network = compiled.network
    hub_name = network.names[network.hub]
    slots = {coding.participant: slot for slot, coding in enumerate(compiled.codings)}
    alphabets = layer_alphabets(compiled)

    material = KeyMaterial()
    for i in range(len(network.layers)):
        members = network.layer_non_hub(i)
        member_names = [network.names[j] for j in members]
        rounds: list[int] = []
        streams: dict[str, list[int]] = {hub_name: []}
        for name in member_names:
            streams[name] = []
        for rec in transcript:
            if rec.alice_set != 1:
                continue
            if any(rec.actions[slots[j]] != MEASURE for j in members):
                continue
            state = compiled.set1.states[rec.alice_state]
            hub_symbol = state.layer_symbols[i]
            if hub_symbol is None:
                continue
            decoded = []
            for j in members:
                coding = compiled.codings[slots[j]]
                decoded.append(coding.symbols_for(rec.outcomes[slots[j]])[i])
            if any(s is None for s in decoded):
                continue
            rounds.append(rec.index)
            streams[hub_name].append(hub_symbol)
            for name, symbol in zip(member_names, decoded):
                streams[name].append(symbol)
        material.layers[i] = LayerKey(
            layer=i,
            alphabet=alphabets[i],
            hub_name=hub_name,
            rounds=tuple(rounds),
            streams={name: tuple(vals) for name, vals in streams.items()},
        )
    return material


def sqkd_report_from_transcript(
    transcript,
    compiled: resgen.CompiledStates,
    keys: KeyMaterial,
    attack: AttackSpec | None = None,
) -> analysis.Report:
    """Assemble the analysis report for a two-way transcript."""
    network = compiled.network
    rounds = len(transcript)
    bobs = [coding.participant for coding in compiled.codings]
    names = [network.names[j] for j in bobs]

    # reflected subsystems: the hub must recover exactly what it sent
    reflect_tallies = {name: analysis.ErrorTally() for name in names}
    # measured computational-set subsystems: hub return vs participant outcome
    resend_tallies = {name: analysis.ErrorTally() for name in names}
    # participant outcome vs prepared index (key-correlation errors)
    outcome_tallies = {name: analysis.ErrorTally() for name in names}

    for rec in transcript:
        state = compiled.prepare_set(rec.alice_set).states[rec.alice_state]
        for slot, name in enumerate(names):
            prepared_index = state.indices[slot]
            if rec.actions[slot] == REFLECT:
                reflect_tallies[name].add(rec.alice_set, rec.returns[slot] != prepared_index)
            elif rec.alice_set == 1:
                outcome_tallies[name].add(1, rec.outcomes[slot] != prepared_index)
                resend_tallies[name].add(1, rec.returns[slot] != rec.outcomes[slot])

    reflect_mismatches = sum(t.errors for t in reflect_tallies.values())
    abort = reflect_mismatches > 0

    keys_identical = {
        i: all(stream == key.streams[key.hub_name] for stream in key.streams.values())
        for i, key in keys.layers.items()
    }
    layer_rates = analysis.key_rate_report(keys, rounds)
    retention = {
        i: {
            "key_rounds": len(key.rounds),
            "key_yield_fraction": len(key.rounds) / rounds if rounds else 0.0,
        }
        for i, key in keys.layers.items()
    }

    mi = _sqkd_mutual_information(transcript, compiled, keys)
    eve_mi = _sqkd_eve_information(transcript, compiled, bobs, attack)
    if eve_mi is not None:
        mi["eve_prepared_index"] = eve_mi

    detection = {
        "reflect_checks": {name: t.to_dict() for name, t in reflect_tallies.items()},
        "reflect_mismatches": reflect_mismatches,
        "resend_mismatches": {name: t.errors for name, t in resend_tallies.items()},
    }

    return analysis.Report(
        protocol="sqkd",
        rounds=rounds,
        abort=abort,
        participants=outcome_tallies,
        layer_rates=layer_rates,
        retention=retention,
        keys_identical=keys_identical,
        mutual_information=mi,
        detection=detection,
        pinpoint=analysis.pinpoint_eve(network, outcome_tallies),
        attack=None if attack is None or attack.kind == "none" else {
            "kind": attack.kind,
            "target": attack.target,
            "probability": attack.probability,
            **({"F": attack.fidelity} if attack.fidelity is not None else {}),
        },
    )


def _sqkd_mutual_information(transcript, compiled, keys: KeyMaterial) -> dict:
    network = compiled.network
    bobs = [coding.participant for coding in compiled.codings]
    outcome_by_round = {rec.index: rec.outcomes for rec in transcript}

    hub_member: dict[str, dict[str, float]] = {}
    outsider: dict[str, dict[str, float]] = {}
    for i, key in keys.layers.items():
        hub_stream = key.streams[key.hub_name]
        if len(hub_stream) < 2:
            continue
        hub_member[str(i)] = {
            name: analysis.empirical_mi(hub_stream, stream)
            for name, stream in key.streams.items()
            if name != key.hub_name
        }
        members = set(network.layer_non_hub(i))
        leak: dict[str, float] = {}
        for slot, j in enumerate(bobs):
            if j in members:
                continue
            stream = [outcome_by_round[r][slot] for r in key.rounds]
            pairs = [(x, y) for x, y in zip(stream, hub_stream) if x is not None]
            if len(pairs) >= 2:
                leak[network.names[j]] = analysis.empirical_mi(
                    [p[0] for p in pairs], [p[1] for p in pairs]
                )
        if leak:
            outsider[str(i)] = leak
    return {"hub_member": hub_member, "outsider_key": outsider}


def _sqkd_eve_information(transcript, compiled, bobs, attack: AttackSpec | None):
    if attack is None or attack.kind == "none":
        return None
    network = compiled.network
    try:
        slot = bobs.index(network.index_of(attack.target))
    except (KeyError, ValueError):
        return None
    by_set: dict[str, float] = {}
    for set_id in (1, 2):
        feats = []
        prepared = []
        for rec in transcript:
            if rec.eve is None or rec.alice_set != set_id:
                continue
            e = rec.eve
            feats.append((e.basis or 0, e.outcome if e.outcome is not None else -1) + tuple(e.ancillas))
            state = compiled.prepare_set(set_id).states[rec.alice_state]
            prepared.append(state.indices[slot])
        if len(feats) >= 2:
            by_set[str(set_id)] = analysis.empirical_mi(analysis.symbol_codes(feats), prepared)
    return by_set or None


def two_party_network(hub_name: str = "Alice", peer_name: str = "Bob") -> Network:
    """Single-layer two-party network; its sets reduce to {|0>,|1>} / {|+>,|->}."""
    return Network(names=(hub_name, peer_name), hub=0, layers=(Layer(members=(0, 1), ref_dim=2),))


def run_boyer_baseline(
    key_length: int,
    delta: float = 0.25,
    seed: int = 0,
    attack: Optional[AttackSpec] = None,
) -> RunResult:
    """Two-party semi-quantum baseline: the layered engine on the minimal network."""
    config = SqkdConfig(
        network=two_party_network(),
        key_length=key_length,
        delta=delta,
        seed=seed,
        attack=attack,
    )
    result = run_sqkd(config)
    result.report.protocol = "boyer"
    return result
