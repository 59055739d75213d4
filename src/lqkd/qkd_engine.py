"""One-way layered key-distribution protocol.

Each round the hub draws one of the two prepare sets and one state from
it, then sends every participant their subsystem; participants measure in
an independently chosen basis. Rounds are sifted per layer (a layer is
retained when all of its members' bases match the hub's set choice), a
fraction of retained rounds is sacrificed to the eavesdropping check, and
the surviving outcomes decode digit-by-digit into one key per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis, resgen
from .attacks import AttackSpec, ChannelAttack, EveRecord, build_channel_attack, measure_ancillas  # noqa: F401
from .nettop import Network, require_valid
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


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class QkdConfig:
    network: Network
    rounds: int
    check_fraction: float = 0.1
    seed: int = 0
    attack: Optional[AttackSpec] = None
    truncated: bool = False


@dataclass
class RoundRecord:
    """One protocol round: choices, outcomes, and retention status."""

    index: int
    alice_set: int
    alice_state: int
    bases: tuple[int, ...]
    outcomes: tuple[int, ...]
    retained_for: tuple[int, ...]
    used_for_check: bool
    eve: Optional[EveRecord] = None


@dataclass
class LayerKey:
    layer: int
    alphabet: int
    hub_name: str
    rounds: tuple[int, ...]
    streams: dict[str, tuple[int, ...]]


@dataclass
class KeyMaterial:
    layers: dict[int, LayerKey] = field(default_factory=dict)


@dataclass
class RunResult:
    transcript: list
    keys: KeyMaterial
    report: analysis.Report


def sift(record: RoundRecord, network: Network) -> tuple[int, ...]:
    """Layer ids retained by one round's basis choices."""
    return sift_choices(record.alice_set, record.bases, network)


def sift_choices(alice_set: int, bases, network: Network) -> tuple[int, ...]:
    """A layer is retained when every member measured in the set's basis."""
    slots = {j: slot for slot, j in enumerate(sorted(network.non_hub()))}
    retained = []
    for i in range(len(network.layers)):
        members = network.layer_non_hub(i)
        if all(bases[slots[j]] == alice_set for j in members):
            retained.append(i)
    return tuple(retained)


def layer_alphabets(compiled: resgen.CompiledStates) -> dict[int, int]:
    """Number of distinct key symbols each layer can produce."""
    out = {}
    for i in range(len(compiled.network.layers)):
        symbols = {
            state.layer_symbols[i]
            for state in compiled.set1.states
            if state.layer_symbols[i] is not None
        }
        out[i] = max(symbols) + 1 if symbols else 0
    return out


def prepared_indices(compiled: resgen.CompiledStates, sets: np.ndarray, state_draws: np.ndarray) -> np.ndarray:
    """Local basis index the hub prepared for each round and slot, shape (rounds, slots)."""
    table = np.array(
        [[state.indices for state in compiled.prepare_set(set_id).states] for set_id in (1, 2)],
        dtype=np.int64,
    )
    return table[sets - 1, state_draws]


def row_tuples(table: np.ndarray):
    """The rows of a 2-D array as tuples of Python scalars, made lazily from its columns."""
    return zip(*table.T.tolist())


def extract_keys(transcript, network: Network, truncated: bool = False) -> KeyMaterial:
    """Decode per-layer key streams from a sifted transcript."""
    compiled = resgen.compile_truncated(network) if truncated else resgen.compile_network(network)
    return extract_keys_compiled(transcript, compiled)


def extract_keys_compiled(transcript, compiled: resgen.CompiledStates) -> KeyMaterial:
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
            if i not in rec.retained_for or rec.used_for_check:
                continue
            state = compiled.prepare_set(rec.alice_set).states[rec.alice_state]
            hub_symbol = state.layer_symbols[i]
            if hub_symbol is None:
                continue
            decoded = []
            for j in members:
                coding = compiled.codings[slots[j]]
                symbol = coding.symbols_for(rec.outcomes[slots[j]])[i]
                decoded.append(symbol)
            # A disturbed outcome can decode to "no symbol" in the reduced
            # resource family; drop the round for everyone to keep streams aligned.
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


def _validate(config: QkdConfig) -> None:
    require_valid(config.network)
    if config.rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {config.rounds}")
    if not 0.0 < config.check_fraction < 1.0:
        raise ConfigError(f"check_fraction must be in (0, 1), got {config.check_fraction}")
    if config.attack is not None and config.attack.kind == "two_way":
        raise ConfigError("two-way attacks require a two-way protocol; use the semi-quantum engine")


def _sample_rounds(config: QkdConfig, compiled: resgen.CompiledStates, attack: AttackSpec) -> list[RoundRecord]:
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
    basis_draws = stream_rng(seed, "bob_basis").integers(1, 3, size=(rounds, len(bobs)))
    outcome_u = stream_rng(seed, "outcome").random(size=(rounds, len(bobs)))
    check_u = stream_rng(seed, "check").random(size=rounds)
    attack_u = stream_rng(seed, "attack").random(size=rounds)

    prepared = prepared_indices(compiled, sets, state_draws)
    outcomes = np.empty((rounds, len(bobs)), dtype=np.int64)
    for slot, dim in enumerate(dims):
        # set ids 1 and 2 name the bases in Basis order
        rows = cumulative_transition_table(dim)[sets - 1, basis_draws[:, slot] - 1, prepared[:, slot]]
        outcomes[:, slot] = pick_outcomes(rows, outcome_u[:, slot])

    eves: dict[int, EveRecord] = {}
    if channel is not None:
        attacked = np.flatnonzero(attack_u < attack.probability).tolist()
        for r, rng in zip(attacked, round_rngs(seed, "eve", attacked)):
            outcomes[r, target_slot], eves[r] = channel.one_way_round(
                resgen.set_basis(int(sets[r])),
                int(prepared[r, target_slot]),
                resgen.set_basis(int(basis_draws[r, target_slot])),
                rng,
            )

    # a layer is retained when every member measured in the basis of the hub's set
    layer_slots = [[bobs.index(j) for j in network.layer_non_hub(i)] for i in range(len(network.layers))]
    layer_match = np.stack([(basis_draws[:, slots] == sets[:, None]).all(axis=1) for slots in layer_slots], axis=1)
    used_for_check = layer_match.any(axis=1) & (check_u < config.check_fraction)

    transcript = [
        RoundRecord(
            index=r,
            alice_set=set_id,
            alice_state=state_index,
            bases=bases,
            outcomes=outs,
            retained_for=tuple(i for i, match in enumerate(matches) if match),
            used_for_check=check,
            eve=eves.get(r),
        )
        for r, (set_id, state_index, bases, outs, matches, check) in enumerate(
            zip(
                sets.tolist(),
                state_draws.tolist(),
                row_tuples(basis_draws),
                row_tuples(outcomes),
                row_tuples(layer_match),
                used_for_check.tolist(),
            )
        )
    ]

    return transcript


def run_qkd(config: QkdConfig) -> RunResult:
    """Execute the one-way protocol and return transcript, keys, and report."""
    _validate(config)
    network = config.network
    compiled = (
        resgen.compile_truncated(network) if config.truncated else resgen.compile_network(network)
    )
    attack = config.attack if config.attack is not None else AttackSpec.none()
    transcript = _sample_rounds(config, compiled, attack)
    keys = extract_keys_compiled(transcript, compiled)
    report = report_from_transcript("qkd", transcript, compiled, keys, attack)
    return RunResult(transcript=transcript, keys=keys, report=report)


def report_from_transcript(
    protocol: str,
    transcript,
    compiled: resgen.CompiledStates,
    keys: KeyMaterial,
    attack: AttackSpec | None = None,
) -> analysis.Report:
    """Assemble the full analysis report for a one-way transcript."""
    network = compiled.network
    rounds = len(transcript)
    bobs = [coding.participant for coding in compiled.codings]
    names = [network.names[j] for j in bobs]

    tallies = {name: analysis.ErrorTally() for name in names}
    checked_rounds = 0
    retained_counts = {i: 0 for i in range(len(network.layers))}
    for rec in transcript:
        for i in rec.retained_for:
            retained_counts[i] += 1
        if not rec.used_for_check:
            continue
        checked_rounds += 1
        state = compiled.prepare_set(rec.alice_set).states[rec.alice_state]
        for slot, name in enumerate(names):
            if rec.bases[slot] == rec.alice_set:
                tallies[name].add(rec.alice_set, rec.outcomes[slot] != state.indices[slot])

    mismatches = sum(t.errors for t in tallies.values())
    abort = mismatches > 0

    keys_identical = {
        i: all(stream == key.streams[key.hub_name] for stream in key.streams.values())
        for i, key in keys.layers.items()
    }
    layer_rates = analysis.key_rate_report(keys, rounds)
    retention = {
        i: {
            "retained_rounds": retained_counts[i],
            "retention_fraction": retained_counts[i] / rounds if rounds else 0.0,
        }
        for i in retained_counts
    }

    mi = _mutual_information_summary(transcript, compiled, keys)
    eve_mi = _eve_information(transcript, compiled, bobs, attack)
    if eve_mi is not None:
        mi["eve_prepared_index"] = eve_mi

    detection = {
        "checked_rounds": checked_rounds,
        "check_mismatches": mismatches,
    }

    report = analysis.Report(
        protocol=protocol,
        rounds=rounds,
        abort=abort,
        participants=tallies,
        layer_rates=layer_rates,
        retention=retention,
        keys_identical=keys_identical,
        mutual_information=mi,
        detection=detection,
        pinpoint=analysis.pinpoint_eve(network, tallies),
        attack=None if attack is None or attack.kind == "none" else _attack_summary(attack),
    )
    return report


def _attack_summary(attack: AttackSpec) -> dict:
    doc = {"kind": attack.kind, "target": attack.target, "probability": attack.probability}
    if attack.fidelity is not None:
        doc["F"] = attack.fidelity
    return doc


def _mutual_information_summary(transcript, compiled, keys: KeyMaterial) -> dict:
    """Hub-member agreement per layer plus outsider leakage onto each key."""
    network = compiled.network
    bobs = [coding.participant for coding in compiled.codings]
    outcome_by_round = {rec.index: rec.outcomes for rec in transcript}

    hub_member: dict[str, dict[str, float]] = {}
    outsider: dict[str, dict[str, float]] = {}
    for i, key in keys.layers.items():
        hub_stream = key.streams[key.hub_name]
        if len(hub_stream) < 2:
            continue
        hub_member[str(i)] = {}
        for name, stream in key.streams.items():
            if name == key.hub_name:
                continue
            hub_member[str(i)][name] = analysis.empirical_mi(hub_stream, stream)
        members = set(network.layer_non_hub(i))
        leak: dict[str, float] = {}
        for slot, j in enumerate(bobs):
            if j in members:
                continue
            stream = [outcome_by_round[r][slot] for r in key.rounds]
            leak[network.names[j]] = analysis.empirical_mi(stream, hub_stream)
        if leak:
            outsider[str(i)] = leak
    return {"hub_member": hub_member, "outsider_key": outsider}


def _eve_information(transcript, compiled, bobs, attack: AttackSpec | None):
    """Plug-in MI between the eavesdropper's records and the prepared index."""
    if attack is None or attack.kind == "none":
        return None
    network = compiled.network
    try:
        slot = bobs.index(network.index_of(attack.target))
    except (KeyError, ValueError):
        return None
    by_set: dict[str, float] = {}
    for set_id in (1, 2):
        feats: list[tuple] = []
        prepared: list[int] = []
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
