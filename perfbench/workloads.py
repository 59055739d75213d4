"""The benchmark's workloads and the correctness gate of each op.

Every workload drives lqkd only through its public experiment API
(``harness.run_experiment`` and ``harness.analyze_transcript``). An op is
one closed-loop request: the next op starts when the previous one
returns. The program is imported from the ``src`` directory of the
checkout this file sits in, never from an installed copy, so the
benchmark always measures the code beside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(ImportError):
    """The checkout holds no importable lqkd package under ``src``."""


def _import_program():
    if not (SRC / "lqkd" / "__init__.py").is_file():
        raise ProgramMissing(f"no lqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqkd

    if Path(lqkd.__file__).resolve().parent != SRC / "lqkd":
        raise ProgramMissing(f"lqkd was imported from {lqkd.__file__}, not from {SRC}")


_import_program()

from lqkd import attacks, harness, nettop, resgen  # noqa: E402
from lqkd.sqkd_engine import SqkdConfig  # noqa: E402

# Input sizes per scale. "full" is what BENCHMARK.json runs; the ROADMAP
# matrix asks for 10^5 honest and 10^4 attacked rounds, scaled down here
# so that each run completes ~50 ops, enough for a tail percentile with
# ten samples beyond it. "tiny" is for the benchmark's own smoke test.
SIZES = {
    "full": {"honest_rounds": 20_000, "attacked_rounds": 1_000, "sweep_key_length": 50},
    "tiny": {"honest_rounds": 2_000, "attacked_rounds": 500, "sweep_key_length": 30},
}

# Three participants, two nested layers, every reference dimension 2:
# Bob1 holds a d=4 qudit, Bob2 a qubit.
DEMO_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 2},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}
# Same topology with a qutrit first layer: qudit dimensions 6 and 2.
SCALED_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 3},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}

ATTACKS = (
    {"kind": "intercept_resend", "target": "Bob2"},
    {"kind": "entangle_measure", "target": "Bob1"},
    {"kind": "cloning", "target": "Bob1", "F": 0.9},
)
TWO_WAY = {"kind": "two_way", "target": "Bob2", "forward": "cnot", "backward": "identity"}
SWEEP_PROBABILITIES = (0.25, 0.5, 0.75, 1.0)

# Honest layer entropies must sit this close to log2(ref_dim); the
# acceptance suite uses the same tolerance at 10^5 rounds.
ENTROPY_TOL = 0.02
# Attacked runs disclose most retained rounds, so that each QBER below and
# the pinpoint verdict rest on ~225 compared rounds per participant and
# basis set at 1,000 rounds. QBERs must lie within QBER_SIGMAS binomial
# standard deviations of their closed form: a false rejection has
# probability below 1e-7 per check.
ATTACKED_CHECK_FRACTION = 0.9
QBER_SIGMAS = 6.0
MIN_COMPARED = 30


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from any printable parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _qber_gate(label: str, errors: int, compared: int, expected: float) -> list[str]:
    if compared < MIN_COMPARED:
        return [f"{label}: only {compared} compared rounds"]
    observed = errors / compared
    tolerance = QBER_SIGMAS * math.sqrt(expected * (1.0 - expected) / compared)
    if abs(observed - expected) > tolerance:
        return [f"{label}: qber {observed:.4f} not within {tolerance:.4f} of {expected:.4f}"]
    return []


class HonestRoundtrip:
    """Honest qkd on the scaled network, persisted and re-analysed.

    Stresses the per-round loop of ``qkd_engine``, key extraction, and the
    transcript writes and reads of ``harness``. It never touches
    ``attacks`` or state vectors.
    """

    name = "qkd-honest-roundtrip"

    def __init__(self, scale: str, workdir: Path):
        self.rounds = SIZES[scale]["honest_rounds"]
        self.rounds_per_op = self.rounds
        self.workdir = workdir
        self.network = nettop.from_dict(SCALED_NET)
        self.compiled = resgen.compile_network(self.network)

    def run(self, seed: int) -> dict:
        spec = harness.spec_from_dict(
            {
                "protocol": "qkd",
                "network": SCALED_NET,
                "rounds": self.rounds,
                "seed": seed,
                "out_dir": str(self.workdir),
                "write_transcript": True,
            }
        )
        result = harness.run_experiment(spec)
        analyzed = harness.analyze_transcript("qkd", self.network, result.paths["transcript"])
        return {"result": result, "analyzed": analyzed}

    def check(self, out: dict) -> list[str]:
        saved = json.loads(Path(out["result"].paths["report"]).read_text(encoding="utf-8"))
        report = saved["report"]
        failures = []
        if report["rounds"] != self.rounds:
            failures.append(f"report has {report['rounds']} rounds, asked for {self.rounds}")
        if report["abort"]:
            failures.append("honest run aborted")
        for name, tally in report["participants"].items():
            if tally["errors"]:
                failures.append(f"{name}: {tally['errors']} errors in an honest run")
        for layer_id, ref_dim in (("0", 3), ("1", 2)):
            layer = report["layers"][layer_id]
            if not layer["keys_identical"]:
                failures.append(f"layer {layer_id}: keys differ")
            if abs(layer["entropy_bits"] - math.log2(ref_dim)) > ENTROPY_TOL:
                failures.append(f"layer {layer_id}: entropy {layer['entropy_bits']:.4f} bits")
        if harness.canonical_report_bytes(out["analyzed"].to_dict()) != harness.canonical_report_bytes(report):
            failures.append("analyze does not reproduce the engine report")
        return failures

    def canonical(self, out: dict) -> bytes:
        return harness.canonical_report_bytes(out["result"].document)

    def counts(self, out: dict) -> dict:
        report = out["result"].report.to_dict()
        return {
            "qkd_engine.rounds": report["rounds"],
            "key_symbols": sum(layer["length"] for layer in report["layers"].values()),
            "harness.transcript_bytes": Path(out["result"].paths["transcript"]).stat().st_size,
        }


class Attacked:
    """Three attacked qkd runs per op on the demo network, no transcript.

    Most of the time goes to ``attacks.ChannelAttack.forward``,
    ``JointState`` construction and ``qmath.measure_joint``: the per-round
    state-vector path that a table-driven sampler would replace.
    """

    name = "qkd-attacked"

    def __init__(self, scale: str, workdir: Path):
        self.rounds = SIZES[scale]["attacked_rounds"]
        self.rounds_per_op = self.rounds * len(ATTACKS)
        self.network = nettop.from_dict(DEMO_NET)
        self.compiled = resgen.compile_network(self.network)
        self.channels = [
            attacks.build_channel_attack(attacks.attack_from_dict(doc), self._dim(doc["target"]))
            for doc in ATTACKS
        ]

    def _dim(self, name: str) -> int:
        return self.network.local_dim(self.network.index_of(name))

    def run(self, seed: int) -> list[dict]:
        documents = []
        for k, attack in enumerate(ATTACKS):
            spec = harness.spec_from_dict(
                {
                    "protocol": "qkd",
                    "network": DEMO_NET,
                    "rounds": self.rounds,
                    "seed": derive_seed(seed, k),
                    "check_fraction": ATTACKED_CHECK_FRACTION,
                    "attack": attack,
                }
            )
            documents.append(harness.run_experiment(spec).document)
        return documents

    def check(self, out: list[dict]) -> list[str]:
        failures = []
        for attack, document in zip(ATTACKS, out):
            report = document["report"]
            kind, target = attack["kind"], attack["target"]
            d = self._dim(target)
            label = f"{kind} on {target}"
            if report["rounds"] != self.rounds:
                failures.append(f"{label}: report has {report['rounds']} rounds")
            for name, tally in report["participants"].items():
                if name != target and tally["errors"]:
                    failures.append(f"{label}: untargeted {name} has {tally['errors']} errors")
            tally = report["participants"][target]
            by_set = tally["by_set"]
            if kind == "intercept_resend":
                # the wrong basis half the time, then a uniform outcome
                failures += _qber_gate(label, tally["errors"], tally["compared"], 0.5 * (1.0 - 1.0 / d))
            elif kind == "entangle_measure":
                failures += _qber_gate(label, by_set["2"]["errors"], by_set["2"]["compared"], 1.0 - 1.0 / d)
                if by_set["1"]["errors"]:
                    failures.append(f"{label}: computational rounds have errors")
            elif kind == "cloning":
                failures += _qber_gate(label, by_set["1"]["errors"], by_set["1"]["compared"], 1.0 - attack["F"])
            if report["pinpoint"]["compromised"] != [target]:
                failures.append(f"{label}: pinpoint flags {report['pinpoint']['compromised']}")
        return failures

    def canonical(self, out: list[dict]) -> bytes:
        return b"\n".join(harness.canonical_report_bytes(document) for document in out)

    def counts(self, out: list[dict]) -> dict:
        reports = [document["report"] for document in out]
        return {
            "qkd_engine.rounds": sum(r["rounds"] for r in reports),
            "key_symbols": sum(layer["length"] for r in reports for layer in r["layers"].values()),
        }


class SqkdSweep:
    """A four-point sqkd sweep of a two-way attack's probability.

    The only workload that covers ``sqkd_engine``, the backward leg, and
    the sweep thread pool of ``harness``, run at its default size.
    """

    name = "sqkd-sweep"

    def __init__(self, scale: str, workdir: Path):
        self.key_length = SIZES[scale]["sweep_key_length"]
        self.network = nettop.from_dict(DEMO_NET)
        self.compiled = resgen.compile_network(self.network)
        target_dim = self.network.local_dim(self.network.index_of(TWO_WAY["target"]))
        self.channel = attacks.build_channel_attack(attacks.attack_from_dict(TWO_WAY), target_dim)
        point_rounds = SqkdConfig(network=self.network, key_length=self.key_length).rounds
        self.rounds_per_op = point_rounds * len(SWEEP_PROBABILITIES)

    def run(self, seed: int):
        spec = harness.spec_from_dict(
            {
                "protocol": "sqkd",
                "network": DEMO_NET,
                "key_length": self.key_length,
                "seed": seed,
                "attack": TWO_WAY,
                "sweep": ["probability", list(SWEEP_PROBABILITIES)],
            }
        )
        return harness.run_experiment(spec)

    def check(self, out) -> list[str]:
        rows = out.sweep_rows
        values = tuple(row["probability"] for row in rows)
        if values != SWEEP_PROBABILITIES:
            return [f"sweep rows cover {values}"]
        return [f"probability {row['probability']}: no abort" for row in rows if not row["abort"]]

    def canonical(self, out) -> bytes:
        return harness.canonical_report_bytes(out.document)

    def counts(self, out) -> dict:
        return {}


CLASSES = {cls.name: cls for cls in (HonestRoundtrip, Attacked, SqkdSweep)}


def prepare(name: str, scale: str, workdir: Path):
    """Everything before the first op: load the network, compile the
    resources and build the attack. The compiled states and attack objects
    are kept only so that set-up does that work; each op compiles again
    inside lqkd."""
    return CLASSES[name](scale, workdir)
