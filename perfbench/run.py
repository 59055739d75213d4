"""lqkd benchmark.

Runs one workload (or all three) as a closed loop with one client: each
op is one experiment through lqkd's public API, the next starts when the
previous returns, and every op's output passes a correctness gate. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends half the time untraced and half with spans around each layer,
and reports the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py                       # all workloads, end to end
    python3 perfbench/run.py --workload qkd-attacked --seed 3 --seconds 30 --trace 1

Inputs derive from ``--seed`` alone. ``LQKD_THREADS`` is removed from the
environment, so the sweep pool runs at its default size; the inherited
value is stamped on the result. Every reported time is scaled to a
reference machine speed measured between ops (see ``speed.py``); raw
seconds are printed beside it. Outputs (the op work directory, result
files, span files) go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("qkd-honest-roundtrip", "qkd-attacked", "sqkd-sweep")
SETUP_PROBES = 9
# Counts are taken over the first TRACED_COUNT_OPS traced ops, whose
# seeds are fixed, so they repeat exactly between runs at one seed.
TRACED_COUNT_OPS = 3
TAIL_BEYOND = 10

# name, unit, better. failed_frac is printed but left out of the JSON
# metrics: it is 0 on a correct program, so it appears there as "failed".
END_TO_END = (
    ("rounds_per_s", "rounds/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("failed_frac", "ratio", "lower"),
)
JSON_END_TO_END = tuple(m for m in END_TO_END if m[0] != "failed_frac")

# name, unit, better, source, and the end-to-end metric and workload it
# should move. Sources: ("time", span) inclusive seconds per op;
# ("self", span) seconds per op not covered by child spans; ("calls",
# span) and ("count", name) per op over the first counted ops;
# ("op", key) per op from the op's own outputs; the rest are derived.
PER_LAYER = (
    ("resgen.compile_s", "s/op", "lower", ("time", "resgen.compile"), "setup_s; all"),
    ("qkd_engine.run_self_s", "s/op", "lower", ("self", "qkd_engine.run"),
     "rounds_per_s, op_p50_s; qkd-honest-roundtrip"),
    ("qkd_engine.rounds", "count/op", "higher", ("op", "qkd_engine.rounds"),
     "rounds_per_s; qkd-honest-roundtrip"),
    ("qkd_engine.extract_keys_s", "s/op", "lower", ("time", "qkd_engine.extract_keys"),
     "op_p50_s; qkd-honest-roundtrip"),
    ("qkd_engine.report_s", "s/op", "lower", ("time", "qkd_engine.report"),
     "op_p50_s; qkd-honest-roundtrip"),
    ("qkd_engine.key_symbols_per_round", "ratio", "higher", ("derived", "key_symbols"),
     "nothing, must stay identical; all qkd"),
    ("sqkd_engine.run_self_s", "s/op", "lower", ("self", "sqkd_engine.run"), "op_p50_s; sqkd-sweep"),
    ("sqkd_engine.extract_keys_s", "s/op", "lower", ("time", "sqkd_engine.extract_keys"),
     "op_p50_s; sqkd-sweep"),
    ("sqkd_engine.report_s", "s/op", "lower", ("time", "sqkd_engine.report"), "op_p50_s; sqkd-sweep"),
    ("attacks.forward_s", "s/op", "lower", ("time", "attacks.forward"),
     "rounds_per_s, op_p50_s; qkd-attacked, sqkd-sweep"),
    ("attacks.forward_calls", "count/op", "lower", ("calls", "attacks.forward"),
     "rounds_per_s; qkd-attacked, sqkd-sweep"),
    ("attacks.backward_s", "s/op", "lower", ("time", "attacks.backward"), "op_p50_s; sqkd-sweep"),
    ("attacks.backward_calls", "count/op", "lower", ("calls", "attacks.backward"),
     "rounds_per_s; sqkd-sweep"),
    ("attacks.measure_ancillas_s", "s/op", "lower", ("time", "attacks.measure_ancillas"),
     "op_p50_s; qkd-attacked, sqkd-sweep"),
    ("qmath.measure_joint_s", "s/op", "lower", ("time", "qmath.measure_joint"),
     "rounds_per_s; qkd-attacked"),
    ("qmath.measure_joint_calls", "count/op", "lower", ("calls", "qmath.measure_joint"),
     "rounds_per_s; qkd-attacked"),
    ("qmath.measure_calls", "count/op", "lower", ("count", "qmath.measure"), "rounds_per_s; qkd-attacked"),
    ("qmath.pick_outcome_calls", "count/op", "lower", ("count", "qmath.pick_outcome"),
     "rounds_per_s; qkd-honest-roundtrip, qkd-attacked"),
    ("analysis.empirical_mi_s", "s/op", "lower", ("time", "analysis.empirical_mi"),
     "op_p50_s; qkd-honest-roundtrip"),
    ("analysis.empirical_mi_calls", "count/op", "lower", ("calls", "analysis.empirical_mi"),
     "op_p50_s; qkd-honest-roundtrip"),
    ("analysis.key_rate_report_s", "s/op", "lower", ("time", "analysis.key_rate_report"),
     "op_p50_s; qkd-honest-roundtrip"),
    ("harness.write_transcript_s", "s/op", "lower", ("time", "harness.write_transcript"),
     "op_p50_s, peak_rss_mb; qkd-honest-roundtrip"),
    ("harness.read_transcript_s", "s/op", "lower", ("time", "harness.read_transcript"),
     "op_p50_s, peak_rss_mb; qkd-honest-roundtrip"),
    ("harness.transcript_bytes", "bytes/op", "lower", ("op", "harness.transcript_bytes"),
     "op_p50_s, peak_rss_mb; qkd-honest-roundtrip"),
    ("harness.serialize_s", "s/op", "lower", ("time", "harness.serialize"),
     "op_p50_s; qkd-honest-roundtrip"),
    ("harness.sweep_wall_s", "s/op", "lower", ("derived", "sweep"), "op_p50_s; sqkd-sweep"),
    ("harness.sweep_point_busy_s", "s/op", "lower", ("derived", "sweep"), "op_p50_s; sqkd-sweep"),
    ("harness.sweep_overlap", "ratio", "higher", ("derived", "sweep"), "op_p50_s; sqkd-sweep"),
    ("trace_overhead_frac", "ratio", "higher", ("derived", "overhead"), "none; all"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lqkd benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; tiny is for the benchmark's smoke test")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, inherited_threads) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "LQKD_THREADS_inherited": inherited_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


class SetupProbes:
    """Seconds from starting a fresh interpreter to the workload being
    ready for its first op. The machine's speed drifts over seconds, so
    the probes are spread evenly over the timed phase, between ops, and
    each is scaled by a reference interpreter started just before it."""

    def __init__(self, name: str, scale: str, workdir: Path, count: int):
        self.command = [sys.executable, str(HERE / "setup_probe.py"), name, scale, str(workdir)]
        self.count = count
        self.raw: list[float] = []
        self.samples: list[float] = []  # at reference speed

    def probe(self) -> None:
        reference = speed.time_to_ready(speed.STARTUP_COMMAND)
        elapsed = speed.time_to_ready(self.command)
        self.raw.append(elapsed)
        self.samples.append(elapsed * speed.STARTUP_REFERENCE_S / reference)

    def due(self, fraction: float) -> None:
        """Run every probe scheduled at or before this share of the phase."""
        while len(self.samples) < self.count and len(self.samples) <= fraction * self.count:
            self.probe()


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest op time with TAIL_BEYOND samples above it, its
    percentile and the count beyond it; the maximum when there are too
    few samples."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        rank = len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - 1 - rank


class Loop:
    """Closed-loop op runner that gates every output."""

    def __init__(self, workload, op_seed):
        self.workload = workload
        self.op_seed = op_seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, seed: int, tracer=None, op: int = 0):
        """Run and gate one op; returns its seconds and its output, or
        None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(seed)
            else:
                with tracer.op_span(op):
                    out = self.workload.run(seed)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(out)
        except Exception:  # an op that raises counts as failed; the loop goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(f"op seed {seed} raised")
            return time.perf_counter() - start, None
        if problems:
            self.fail(f"op seed {seed}: " + "; ".join(problems))
        return elapsed, out

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def timed(self, phase: str, seconds: float, summarize, keep: int, tracer=None, probes=None):
        """Ops until ``seconds`` have passed, and at least ``keep``.

        Returns each op's raw seconds, the factor that scales it to
        reference speed, and ``summarize`` of the first ``keep`` outputs;
        outputs are dropped, so none outlives the next op. Speed samples
        and set-up probes run between ops and do not count towards
        ``seconds``."""
        times, kernel, summaries = [], [], []
        start = time.perf_counter()
        paused = 0.0
        k = 0
        while k < keep or time.perf_counter() - paused - start < seconds:
            before = time.perf_counter()
            if probes is not None:
                probes.due((before - paused - start) / seconds)
            kernel.append(speed.kernel_seconds())
            paused += time.perf_counter() - before
            elapsed, out = self.run(self.op_seed(phase, k), tracer, k)
            times.append(elapsed)
            if k < keep:
                summaries.append(None if out is None else summarize(out))
            del out
            k += 1
        kernel.append(speed.kernel_seconds())
        if probes is not None:
            probes.due(1.0)
        factors = [speed.factor(a, b) for a, b in zip(kernel, kernel[1:])]
        return times, factors, summaries


def layer_metrics(tracer, factors: list[float], op_counts: dict, overhead: float) -> dict:
    """Per-layer values, times at reference speed through each op's
    factor; None marks a layer the workload never entered."""
    from tracer import PROTOCOL_RUNS, self_times, sweep_windows

    traced_ops = len(factors)
    spans = [s for s in tracer.spans if s[1] != "op"]
    durations = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        durations[s[1]] += (s[3] - s[2]) * factors[s[5]]
        if s[5] < TRACED_COUNT_OPS:
            calls[s[1]] += 1
    selfs = defaultdict(float)
    by_id = {s[0]: s for s in spans}
    for sid, value in self_times(spans, PROTOCOL_RUNS).items():
        selfs[by_id[sid][1]] += value * factors[by_id[sid][5]]
    counts = defaultdict(int)
    for (op, name), n in tracer.counts().items():
        if op < TRACED_COUNT_OPS:
            counts[name] += n
    windows = [(wall * factors[op], busy * factors[op]) for op, wall, busy in sweep_windows(tracer.spans)]

    values = {}
    for name, _, _, (kind, source), _ in PER_LAYER:
        if kind == "time":
            value = durations[source] / traced_ops if source in durations else None
        elif kind == "self":
            value = selfs[source] / traced_ops if source in selfs else None
        elif kind == "calls":
            value = calls[source] / TRACED_COUNT_OPS
        elif kind == "count":
            value = counts[source] / TRACED_COUNT_OPS
        elif kind == "op":
            value = op_counts[source] / TRACED_COUNT_OPS if source in op_counts else None
        elif source == "key_symbols":
            rounds = op_counts.get("qkd_engine.rounds")
            value = op_counts["key_symbols"] / rounds if rounds else None
        elif source == "sweep":
            if not windows:
                value = None
            elif name == "harness.sweep_wall_s":
                value = sum(w for w, _ in windows) / len(windows)
            elif name == "harness.sweep_point_busy_s":
                value = sum(b for _, b in windows) / len(windows)
            else:
                value = sum(b for _, b in windows) / sum(w for w, _ in windows)
        else:
            value = overhead
        values[name] = value
    return values


def digest_note(name: str, seed: int, scale: str, digest: str) -> str:
    path = HERE / "baseline.json"
    if scale != "full" or not path.is_file():
        return "no baseline recorded"
    recorded = json.loads(path.read_text(encoding="utf-8")).get("digests", {}).get(name, {})
    if str(seed) not in recorded:
        return "seed not in baseline"
    return "matches baseline" if recorded[str(seed)] == digest else "DIFFERS from baseline"


def fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_workload(args, inherited_threads) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    name = args.workload
    env = environment(args, inherited_threads)
    workdir = OUT / f"work-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(env, sort_keys=True))

    workload = workloads.prepare(name, args.scale, workdir)
    print(f"input rounds_per_op={workload.rounds_per_op} closed loop, 1 client")
    loop = Loop(workload, lambda phase, k: workloads.derive_seed(name, args.seed, phase, k))
    loop.run(loop.op_seed("warmup", 0))

    budget = args.seconds / 2 if args.trace else args.seconds
    probes = None if args.trace else SetupProbes(name, args.scale, workdir, SETUP_PROBES)
    raw, factors, (canonical,) = loop.timed("op", budget, workload.canonical, 1, probes=probes)
    times = [t * f for t, f in zip(raw, factors)]
    digest = hashlib.sha256(canonical or b"").hexdigest()
    _, again = loop.run(loop.op_seed("op", 0))
    repeat_ok = again is not None and workload.canonical(again) == canonical
    del again
    if not repeat_ok:
        loop.fail("rerunning op 0 with its seed gave different canonical bytes")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"env": env, "digest": digest, "repeatable": repeat_ok, "op_times_raw_s": raw,
              "speed_factors": factors}
    if args.trace:
        metrics, table = trace_phase(loop, workload, name, args.seconds / 2, times)
        result["layers"] = table
    else:
        tail_s, tail_pct, beyond = tail(times)
        values = {
            "rounds_per_s": workload.rounds_per_op * len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(probes.samples),
            "peak_rss_mb": peak_rss_mb,
        }
        raw_values = {
            "rounds_per_s": workload.rounds_per_op * len(raw) / sum(raw),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[0],
            "setup_s": statistics.median(probes.raw),
        }
        notes = {
            "op_tail_s": f"p{tail_pct:.1f} of {len(times)} ops, {beyond} beyond",
            "op_p50_s": f"{len(times)} ops",
            "setup_s": f"median of {len(probes.samples)} fresh interpreters",
            "rounds_per_s": f"{workload.rounds_per_op} rounds per op",
            "peak_rss_mb": "this process",
        }
        for metric, unit, _ in JSON_END_TO_END:
            raw_note = f"; raw {raw_values[metric]:.6g} {unit}" if metric in raw_values else ""
            print(f"metric {metric} = {fmt(values[metric])} {unit}  ({notes[metric]}{raw_note})")
        failed_frac = loop.failed / loop.attempted
        print(f"metric failed_frac = {fmt(failed_frac)} ratio  ({loop.failed} of {loop.attempted} ops)")
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in JSON_END_TO_END}
        result.update(raw_metrics=raw_values, setup_s_raw=probes.raw, setup_s_samples=probes.samples,
                      failed_frac=failed_frac)

    print(f"digest {name} seed={args.seed} sha256:{digest}  repeatable={'yes' if repeat_ok else 'NO'}, "
          f"{digest_note(name, args.seed, args.scale, digest)}")
    result.update(metrics=metrics, failures=loop.failures, attempted=loop.attempted, failed=loop.failed)
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def trace_phase(loop, workload, name, seconds, untraced_times):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        raw, factors, summaries = loop.timed("traced", seconds, workload.counts, TRACED_COUNT_OPS, tracer)
    finally:
        tracer.uninstall()
    traced_times = [t * f for t, f in zip(raw, factors)]
    op_counts = defaultdict(int)
    for summary in summaries:
        for key, value in (summary or {}).items():
            op_counts[key] += value
    # traced / untraced rounds_per_s, minus 1: negative when tracing slows ops
    overhead = statistics.fmean(untraced_times) / statistics.fmean(traced_times) - 1.0
    values = layer_metrics(tracer, factors, op_counts, overhead)
    span_path = OUT / f"spans-{name}.json.gz"
    tracer.write(span_path)
    print(f"trace {len(tracer.spans)} spans over {len(traced_times)} traced ops -> {span_path.relative_to(HERE.parent)}")
    table = []
    for metric, unit, _, _, moves in PER_LAYER:
        value = values[metric]
        shown = "absent" if value is None else fmt(value)
        print(f"layer {metric} = {shown} {unit}  (moves {moves})")
        table.append({"name": metric, "value": value, "unit": unit, "moves": moves})
    print("absent " + json.dumps([m for m, v in values.items() if v is None]))
    metrics = {m: {"value": 0 if values[m] is None else values[m], "unit": u} for m, u, *_ in PER_LAYER}
    return metrics, table


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays separate."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            lines = []
            for line in child.stdout:
                print(line, end="", flush=True)
                lines.append(line)
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{m}": v for m, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, os.environ.pop("LQKD_THREADS", None))


if __name__ == "__main__":
    sys.exit(main())
