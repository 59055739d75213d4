"""Span tracing around lqkd's layers, from outside the program.

A wrapper replaces a function at the module (or class) attribute that its
callers look up, so ``qkd_engine.measure_joint`` and ``qmath.measure_joint``
are wrapped separately: the engine imported the name, while ``attacks``
reaches it through the ``qmath`` module. Each span records its name,
start, end, parent span, op id and thread. Spans stay in memory until the
run ends. Functions called once per round and per participant are only
counted, because a span there would cost more than the call.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from lqkd import analysis, attacks, harness, qkd_engine, qmath, resgen, sqkd_engine

# (owner, attribute, span name). The same name on several attributes
# covers every caller of one function.
SPANS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "analyze_transcript", "harness.analyze_transcript"),
    (harness, "run_qkd", "qkd_engine.run"),
    (harness, "run_sqkd", "sqkd_engine.run"),
    (resgen, "compile_network", "resgen.compile"),
    (resgen, "compile_truncated", "resgen.compile"),
    (qkd_engine, "extract_keys_compiled", "qkd_engine.extract_keys"),
    (harness, "extract_keys_compiled", "qkd_engine.extract_keys"),
    (qkd_engine, "report_from_transcript", "qkd_engine.report"),
    (harness, "report_from_transcript", "qkd_engine.report"),
    (sqkd_engine, "extract_sqkd_keys", "sqkd_engine.extract_keys"),
    (harness, "extract_sqkd_keys", "sqkd_engine.extract_keys"),
    (sqkd_engine, "sqkd_report_from_transcript", "sqkd_engine.report"),
    (harness, "sqkd_report_from_transcript", "sqkd_engine.report"),
    (attacks.ChannelAttack, "forward", "attacks.forward"),
    (attacks.ChannelAttack, "backward", "attacks.backward"),
    (qkd_engine, "measure_ancillas", "attacks.measure_ancillas"),
    (sqkd_engine, "measure_ancillas", "attacks.measure_ancillas"),
    (qkd_engine, "measure_joint", "qmath.measure_joint"),
    (sqkd_engine, "measure_joint", "qmath.measure_joint"),
    (qmath, "measure_joint", "qmath.measure_joint"),
    (analysis, "empirical_mi", "analysis.empirical_mi"),
    (analysis, "key_rate_report", "analysis.key_rate_report"),
    (harness, "write_qkd_transcript", "harness.write_transcript"),
    (harness, "write_sqkd_transcript", "harness.write_transcript"),
    (harness, "read_qkd_transcript", "harness.read_transcript"),
    (harness, "read_sqkd_transcript", "harness.read_transcript"),
    (analysis.Report, "to_dict", "harness.serialize"),
)
# _canonicalize recurses through its own module attribute; only the
# outermost call opens a span.
OUTERMOST_SPANS = ((harness, "_canonicalize", "harness.serialize"),)
COUNTS = (
    (qkd_engine, "measure", "qmath.measure"),
    (sqkd_engine, "measure", "qmath.measure"),
    (qmath, "measure", "qmath.measure"),
    (qkd_engine, "pick_outcome", "qmath.pick_outcome"),
    (sqkd_engine, "pick_outcome", "qmath.pick_outcome"),
)
PROTOCOL_RUNS = ("qkd_engine.run", "sqkd_engine.run")


class Tracer:
    """Records spans and counts while ``active``; ``op`` tags each one."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, thread)
        self.op = -1
        self.op_root = -1
        self.active = False
        self.main_thread = threading.get_ident()
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"stack": [], "open": set(), "counts": defaultdict(int)}
            with self._lock:
                self._thread_counts.append(state["counts"])
        return state

    def _span_wrapper(self, fn, name: str, outermost: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._thread_state()
            if outermost and name in state["open"]:
                return fn(*args, **kwargs)
            stack = state["stack"]
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.op_root
            stack.append(sid)
            if outermost:
                state["open"].add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if outermost:
                    state["open"].discard(name)
                tracer.spans.append((sid, name, start, end, parent, tracer.op, threading.get_ident()))

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer._thread_state()["counts"][(tracer.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        plan = [(o, a, self._span_wrapper(getattr(o, a), n, False)) for o, a, n in SPANS]
        plan += [(o, a, self._span_wrapper(getattr(o, a), n, True)) for o, a, n in OUTERMOST_SPANS]
        plan += [(o, a, self._count_wrapper(getattr(o, a), n)) for o, a, n in COUNTS]
        for owner, attr, wrapper in plan:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def op_span(self, op: int):
        """Root span of one op; spans of pool threads hang under it."""
        state = self._thread_state()
        self.op = op
        self.op_root = sid = next(self._ids)
        state["stack"].append(sid)
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.active = False
            state["stack"].pop()
            self.spans.append((sid, "op", start, end, -1, op, self.main_thread))

    def counts(self) -> dict:
        """Count-only totals keyed by (op, name)."""
        total: dict = defaultdict(int)
        for counts in self._thread_counts:
            for key, value in counts.items():
                total[key] += value
        return total

    def write(self, path) -> None:
        """Write every span, with times relative to the tracer's start."""
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        threads = {}
        rows = [
            [s[0], code[s[1]], round(s[2] - self.origin, 9), round(s[3] - self.origin, 9), s[4], s[5],
             threads.setdefault(s[6], len(threads))]
            for s in self.spans
        ]
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op", "thread"],
            "names": names,
            "spans": rows,
            "counts": [[op, name, n] for (op, name), n in sorted(self.counts().items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _union_length(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans, names) -> dict:
    """Self time per span id for spans with the given names: duration
    minus the part of it that child spans cover."""
    wanted = {s[0]: s for s in spans if s[1] in names}
    children = defaultdict(list)
    for s in spans:
        if s[4] in wanted:
            children[s[4]].append((s[2], s[3]))
    return {
        sid: (s[3] - s[2]) - _union_length(children[sid], s[2], s[3]) for sid, s in wanted.items()
    }


def sweep_windows(spans) -> list[tuple[int, float, float]]:
    """(op, wall, busy) per op for protocol runs made on sweep pool threads."""
    by_op = defaultdict(list)
    main = {s[6] for s in spans if s[1] == "op"}
    for s in spans:
        if s[1] in PROTOCOL_RUNS and s[6] not in main:
            by_op[s[5]].append(s)
    return [
        (op, max(s[3] for s in runs) - min(s[2] for s in runs), sum(s[3] - s[2] for s in runs))
        for op, runs in by_op.items()
    ]
