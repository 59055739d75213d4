"""One-way layered key-distribution protocol.

Each round the hub draws one of the two prepare sets and one state from
it, then sends every participant their subsystem; participants measure in
an independently chosen basis. Rounds are sifted per layer (a layer is
retained when all of its members' bases match the hub's set choice), a
fraction of retained rounds is sacrificed to the eavesdropping check, and
the surviving outcomes decode digit-by-digit into one key per layer.

A run's transcript is columnar: one numpy array per field, one row per
round. Key extraction and the report are column operations on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis, resgen
from .attacks import AttackSpec, ChannelAttack, build_channel_attack, measure_ancillas  # noqa: F401
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
from .resgen import ConfigError
from .seeding import round_rngs, stream_rng
from .transcript import EVE_FILL, QkdTranscript


@dataclass(frozen=True)
class QkdConfig:
    network: Network
    rounds: int
    check_fraction: float = 0.1
    seed: int = 0
    attack: Optional[AttackSpec] = None
    truncated: bool = False


@dataclass
class LayerKey:
    layer: int
    alphabet: int
    hub_name: str
    rounds: tuple[int, ...]
    streams: dict[str, tuple[int, ...]]
    # sifted rounds dropped because a member's outcome decodes to no symbol
    dropped: int = 0


@dataclass
class KeyMaterial:
    layers: dict[int, LayerKey] = field(default_factory=dict)


@dataclass
class RunResult:
    transcript: QkdTranscript  # a SqkdTranscript for two-way runs
    keys: KeyMaterial
    report: analysis.Report


def layer_slots(network: Network) -> list[list[int]]:
    """Slots of each layer's non-hub members."""
    slot_of = {j: slot for slot, j in enumerate(sorted(network.non_hub()))}
    return [[slot_of[j] for j in network.layer_non_hub(i)] for i in range(len(network.layers))]


def sift_layers(network: Network, alice_set: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """(rounds, layers) mask: a layer is retained when every member measured in the set's basis."""
    match = bases == alice_set[:, None]
    return np.stack([match[:, slots].all(axis=1) for slots in layer_slots(network)], axis=1)


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


def _hub_symbol_table(compiled: resgen.CompiledStates) -> np.ndarray:
    """The hub's key symbol per (set id - 1, state, layer); -1 where the state carries none."""
    return np.array(
        [
            [[-1 if s is None else s for s in state.layer_symbols] for state in compiled.prepare_set(set_id).states]
            for set_id in (1, 2)
        ],
        dtype=np.int64,
    )


def _slot_symbol_tables(compiled: resgen.CompiledStates) -> list[np.ndarray]:
    """Per slot, the key symbol per (outcome, layer); -1 where the outcome decodes to none."""
    tables = []
    for coding in compiled.codings:
        table = np.full((coding.dim, len(compiled.network.layers)), -1, dtype=np.int64)
        for outcome, symbols in enumerate(coding.symbol_table):
            for layer, symbol in zip(coding.layers, symbols):
                if symbol is not None:
                    table[outcome, layer] = symbol
        tables.append(table)
    return tables


def decode_keys(transcript, compiled: resgen.CompiledStates, sifted: np.ndarray) -> KeyMaterial:
    """Key streams of the rows ``sifted[:, i]`` selects for each layer i.

    A row yields a symbol when the hub's state carries one for the layer.
    A member's outcome may still decode to none in the reduced resource
    family; such a row is dropped for everyone to keep the streams
    aligned, and counted in ``LayerKey.dropped``.
    """
    network = compiled.network
    hub_name = network.names[network.hub]
    hub_table = _hub_symbol_table(compiled)
    slot_tables = _slot_symbol_tables(compiled)
    alphabets = layer_alphabets(compiled)

    material = KeyMaterial()
    for i, slots in enumerate(layer_slots(network)):
        rows = np.flatnonzero(sifted[:, i])
        hub = hub_table[transcript.alice_set[rows] - 1, transcript.alice_state[rows], i]
        rows, hub = rows[hub >= 0], hub[hub >= 0]
        members = [slot_tables[slot][transcript.outcomes[rows, slot], i] for slot in slots]
        decoded = np.logical_and.reduce([symbols >= 0 for symbols in members])
        streams = {hub_name: tuple(hub[decoded].tolist())}
        for j, symbols in zip(network.layer_non_hub(i), members):
            streams[network.names[j]] = tuple(symbols[decoded].tolist())
        material.layers[i] = LayerKey(
            layer=i,
            alphabet=alphabets[i],
            hub_name=hub_name,
            rounds=tuple(transcript.index[rows[decoded]].tolist()),
            streams=streams,
            dropped=int(np.count_nonzero(~decoded)),
        )
    return material


def extract_keys_compiled(transcript: QkdTranscript, compiled: resgen.CompiledStates) -> KeyMaterial:
    """Keys come from the retained rounds not disclosed for the check."""
    return decode_keys(transcript, compiled, transcript.retained & ~transcript.check[:, None])


def _validate(config: QkdConfig) -> None:
    require_valid(config.network)
    if config.rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {config.rounds}")
    if not 0.0 < config.check_fraction < 1.0:
        raise ConfigError(f"check_fraction must be in (0, 1), got {config.check_fraction}")
    if config.attack is not None and config.attack.kind == "two_way":
        raise ConfigError("two-way attacks require a two-way protocol; use the semi-quantum engine")


def attack_slot(attack: AttackSpec | None, compiled: resgen.CompiledStates) -> int:
    """The slot of the attack's target; -1 without an attack."""
    if attack is None or attack.kind == "none":
        return -1
    bobs = [coding.participant for coding in compiled.codings]
    target = compiled.network.index_of(attack.target)
    if target not in bobs:
        raise ConfigError(f"attack target {attack.target!r} holds no subsystem")
    return bobs.index(target)


def bind_attack(attack: AttackSpec | None, compiled: resgen.CompiledStates) -> tuple[int, ChannelAttack | None]:
    """The attacked slot and the attack bound to its subsystem; (-1, None) without an attack."""
    slot = attack_slot(attack, compiled)
    if slot < 0:
        return -1, None
    return slot, build_channel_attack(attack, compiled.codings[slot].dim)


def _sample_rounds(config: QkdConfig, compiled: resgen.CompiledStates) -> QkdTranscript:
    """Draw every round of a run as the columns of its transcript."""
    dims = [coding.dim for coding in compiled.codings]
    rounds = config.rounds
    seed = config.seed
    target_slot, channel = bind_attack(config.attack, compiled)

    sets = stream_rng(seed, "alice_set").integers(1, 3, size=rounds)
    state_draws = stream_rng(seed, "alice_state").integers(0, compiled.size, size=rounds)
    basis_draws = stream_rng(seed, "bob_basis").integers(1, 3, size=(rounds, len(dims)))
    outcome_u = stream_rng(seed, "outcome").random(size=(rounds, len(dims)))
    check_u = stream_rng(seed, "check").random(size=rounds)
    attack_u = stream_rng(seed, "attack").random(size=rounds)

    prepared = prepared_indices(compiled, sets, state_draws)
    outcomes = np.empty((rounds, len(dims)), dtype=np.int64)
    for slot, dim in enumerate(dims):
        # set ids 1 and 2 name the bases in Basis order
        rows = cumulative_transition_table(dim)[sets - 1, basis_draws[:, slot] - 1, prepared[:, slot]]
        outcomes[:, slot] = pick_outcomes(rows, outcome_u[:, slot])

    attacked = eve = None  # the transcript's defaults: nobody attacked
    if channel is not None:
        attacked = attack_u < config.attack.probability
        eve = np.full((rounds, channel.readout_width), EVE_FILL, dtype=np.int64)
        hit = np.flatnonzero(attacked).tolist()
        for r, rng in zip(hit, round_rngs(seed, "eve", hit)):
            outcomes[r, target_slot], eve[r] = channel.one_way_round(
                resgen.set_basis(int(sets[r])),
                int(prepared[r, target_slot]),
                resgen.set_basis(int(basis_draws[r, target_slot])),
                rng,
            )

    retained = sift_layers(config.network, sets, basis_draws)
    return QkdTranscript(
        index=np.arange(rounds),
        alice_set=sets,
        alice_state=state_draws,
        bases=basis_draws,
        outcomes=outcomes,
        retained=retained,
        check=retained.any(axis=1) & (check_u < config.check_fraction),
        attacked=attacked,
        eve=eve,
    )


def run_qkd(config: QkdConfig) -> RunResult:
    """Execute the one-way protocol and return transcript, keys, and report."""
    _validate(config)
    compiled = resgen.compile_states(config.network, config.truncated)
    transcript = _sample_rounds(config, compiled)
    keys = extract_keys_compiled(transcript, compiled)
    report = report_from_transcript("qkd", transcript, compiled, keys, config.attack)
    return RunResult(transcript=transcript, keys=keys, report=report)


def report_from_transcript(
    protocol: str,
    transcript: QkdTranscript,
    compiled: resgen.CompiledStates,
    keys: KeyMaterial,
    attack: AttackSpec | None = None,
) -> analysis.Report:
    """Assemble the full analysis report for a one-way transcript."""
    rounds = len(transcript)
    # a checked participant is compared when they measured in the set's basis
    compared = transcript.check[:, None] & (transcript.bases == transcript.alice_set[:, None])
    errors = transcript.outcomes != prepared_indices(compiled, transcript.alice_set, transcript.alice_state)
    tallies = slot_tallies(compiled, transcript.alice_set, compared, errors)
    mismatches = sum(t.errors for t in tallies.values())
    retention = {
        i: {
            "retained_rounds": count,
            "retention_fraction": count / rounds if rounds else 0.0,
        }
        for i, count in enumerate(transcript.retained.sum(axis=0).tolist())
    }
    detection = {
        "checked_rounds": int(np.count_nonzero(transcript.check)),
        "check_mismatches": mismatches,
    }
    return assemble_report(protocol, transcript, compiled, keys, attack, tallies, mismatches > 0, retention,
                           detection)


def assemble_report(
    protocol: str,
    transcript,
    compiled: resgen.CompiledStates,
    keys: KeyMaterial,
    attack: AttackSpec | None,
    participants: dict[str, analysis.ErrorTally],
    abort: bool,
    retention: dict,
    detection: dict,
) -> analysis.Report:
    """A report from a protocol's own tallies, abort verdict, retention and
    detection blocks, plus the parts every protocol shares: key rates, the
    mutual-information estimates, key agreement, the pinpoint verdict on
    ``participants`` and the attack summary."""
    rounds = len(transcript)
    mi = mutual_information_summary(transcript, compiled, keys)
    eve_mi = eve_information(transcript, compiled, attack)
    if eve_mi is not None:
        mi["eve_prepared_index"] = eve_mi
    summary = None
    if attack is not None and attack.kind != "none":
        summary = {"kind": attack.kind, "target": attack.target, "probability": attack.probability}
        if attack.fidelity is not None:
            summary["F"] = attack.fidelity
    return analysis.Report(
        protocol=protocol,
        rounds=rounds,
        abort=abort,
        participants=participants,
        layer_rates=analysis.key_rate_report(keys, rounds),
        retention=retention,
        keys_identical={
            i: all(stream == key.streams[key.hub_name] for stream in key.streams.values())
            for i, key in keys.layers.items()
        },
        mutual_information=mi,
        detection=detection,
        pinpoint=analysis.pinpoint_eve(compiled.network, participants),
        attack=summary,
    )


def slot_tallies(compiled: resgen.CompiledStates, sets: np.ndarray, compared: np.ndarray,
                 errors: np.ndarray) -> dict[str, analysis.ErrorTally]:
    """Per participant, the tally of the (rounds, slots) masks' column of their slot."""
    names = [compiled.network.names[coding.participant] for coding in compiled.codings]
    return {
        name: analysis.ErrorTally.from_masks(sets, compared[:, slot], errors[:, slot])
        for slot, name in enumerate(names)
    }


def _rows_of(index: np.ndarray, rounds) -> np.ndarray:
    """Row holding each round number; the last such row when one repeats."""
    order = np.argsort(index, kind="stable")
    return order[np.searchsorted(index[order], np.asarray(rounds, dtype=np.int64), side="right") - 1]


def mutual_information_summary(transcript, compiled: resgen.CompiledStates, keys: KeyMaterial) -> dict:
    """Hub-member agreement per layer plus outsider leakage onto each key.

    An outsider's outcomes are read in the key rounds; a negative outcome
    (a participant that reflected) carries no symbol and is left out.
    """
    network = compiled.network
    bobs = [coding.participant for coding in compiled.codings]

    hub_member: dict[str, dict[str, float]] = {}
    outsider: dict[str, dict[str, float]] = {}
    for i, key in keys.layers.items():
        hub_stream = np.asarray(key.streams[key.hub_name])
        if len(hub_stream) < 2:
            continue
        hub_member[str(i)] = {
            name: analysis.empirical_mi(hub_stream, np.asarray(stream))
            for name, stream in key.streams.items()
            if name != key.hub_name
        }
        members = set(network.layer_non_hub(i))
        rows = _rows_of(transcript.index, key.rounds)
        leak: dict[str, float] = {}
        for slot, j in enumerate(bobs):
            if j in members:
                continue
            stream = transcript.outcomes[rows, slot]
            known = stream >= 0
            if np.count_nonzero(known) >= 2:
                leak[network.names[j]] = analysis.empirical_mi(stream[known], hub_stream[known])
        if leak:
            outsider[str(i)] = leak
    return {"hub_member": hub_member, "outsider_key": outsider}


def _first_appearance_codes(rows: np.ndarray) -> np.ndarray:
    """Dense codes of equal rows, numbered in order of first appearance: the
    order the report's MI sums its terms in, so its bytes depend on it."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


def eve_information(transcript, compiled: resgen.CompiledStates, attack: AttackSpec | None):
    """Plug-in MI between the eavesdropper's readouts and the prepared index."""
    slot = attack_slot(attack, compiled)
    if slot < 0:
        return None
    by_set: dict[str, float] = {}
    for set_id in (1, 2):
        picked = np.flatnonzero(transcript.attacked & (transcript.alice_set == set_id))
        if len(picked) >= 2:
            prepared = prepared_indices(compiled, transcript.alice_set[picked], transcript.alice_state[picked])
            by_set[str(set_id)] = analysis.empirical_mi(_first_appearance_codes(transcript.eve[picked]),
                                                        prepared[:, slot])
    return by_set or None
