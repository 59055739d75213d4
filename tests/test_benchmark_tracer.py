"""The benchmark's tracer wraps lqkd functions at the attributes their
callers look up. Every attribute it names must exist, and every layer it
times must still be entered through that attribute."""

import sys
from pathlib import Path

import pytest

from lqkd import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DEMO_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 2},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}


@pytest.fixture
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def _attributes(tracer_module):
    return [(owner, attr) for owner, attr, _ in tracer_module.SPANS + tracer_module.OUTERMOST_SPANS
            + tracer_module.COUNTS]


def test_tracer_installs_and_uninstalls(tracer_module):
    originals = [getattr(owner, attr) for owner, attr in _attributes(tracer_module)]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(_attributes(tracer_module), originals))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in _attributes(tracer_module)] == originals


def test_every_protocol_layer_opens_its_span(tracer_module, tmp_path):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with tracer.op_span(0):
            qkd = harness.run_experiment(harness.spec_from_dict({
                "protocol": "qkd", "network": DEMO_NET, "rounds": 200, "seed": 1,
                "out_dir": str(tmp_path), "write_transcript": True,
            }))
            harness.analyze_transcript("qkd", harness.ExperimentSpec("qkd", DEMO_NET).resolved_network(),
                                       qkd.paths["transcript"])
        with tracer.op_span(1):
            harness.run_experiment(harness.spec_from_dict({"protocol": "boyer", "key_length": 10, "seed": 2}))
    finally:
        tracer.uninstall()
    names = {(span[5], span[1]) for span in tracer.spans}
    for name in ("harness.run_experiment", "qkd_engine.run", "resgen.compile", "qkd_engine.extract_keys",
                 "qkd_engine.report", "harness.write_transcript", "harness.analyze_transcript",
                 "harness.read_transcript", "analysis.empirical_mi", "analysis.key_rate_report",
                 "harness.serialize"):
        assert (0, name) in names, name
    for name in ("sqkd_engine.run", "resgen.compile", "sqkd_engine.extract_keys", "sqkd_engine.report"):
        assert (1, name) in names, name
