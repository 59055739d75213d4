"""Times the single runs quoted as the ROADMAP's review baseline.

A sanity check of the benchmark machine against the figures the ROADMAP
records (2 cores, Python 3.11.7, numpy 2.4.6), not a gate: each case runs
three times through ``harness.run_experiment`` and the median is divided
by the recorded figure.

    python3 perfbench/reference.py
"""

import json
import statistics
import time

import workloads
from lqkd import harness

# case: (attack or None, rounds, ROADMAP seconds)
CASES = {
    "honest_qkd_1e5": (None, 100_000, 1.45),
    "cloning_qkd_1e4": (workloads.ATTACKS[2], 10_000, 2.2),
    "entangle_measure_qkd_1e4": (workloads.ATTACKS[1], 10_000, 3.8),
}
REPEATS = 3


def main() -> None:
    out = {}
    for name, (attack, rounds, roadmap_s) in CASES.items():
        samples = []
        for k in range(REPEATS):
            doc = {"protocol": "qkd", "network": workloads.DEMO_NET, "rounds": rounds, "seed": k}
            if attack is not None:
                doc["attack"] = attack
            spec = harness.spec_from_dict(doc)
            start = time.perf_counter()
            harness.run_experiment(spec)
            samples.append(time.perf_counter() - start)
        seconds = statistics.median(samples)
        out[name] = {"seconds": seconds, "roadmap_s": roadmap_s, "ratio": seconds / roadmap_s}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
