"""Pinned digests: equal seeds must keep giving the same bytes.

Each case is a small experiment whose canonical report (``meta``
excluded) and, for single runs, CSV transcript are hashed. The digests
were recorded with the per-round state-vector sampler that the memoized
measurement tree replaced, so they pin that the tree and the column-wise
honest sampler draw the same outcomes from the same random streams.
"""

import hashlib
import io

import pytest

from lqkd.harness import (
    canonical_report_bytes,
    run_experiment,
    spec_from_dict,
    write_qkd_transcript,
    write_sqkd_transcript,
)

DEMO_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 2},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}
SCALED_NET = {
    "participants": ["Alice", "Bob1", "Bob2"],
    "hub": "Alice",
    "layers": [
        {"members": ["Alice", "Bob1"], "ref_dim": 3},
        {"members": ["Alice", "Bob1", "Bob2"], "ref_dim": 2},
    ],
}


def _qkd(network, seed, attack=None, **extra):
    return {"protocol": "qkd", "network": network, "rounds": 400, "seed": seed, "check_fraction": 0.5,
            "attack": attack, **extra}


def _sqkd(network, seed, attack=None, **extra):
    return {"protocol": "sqkd", "network": network, "key_length": 20, "seed": seed, "attack": attack, **extra}


CASES = {
    "qkd-honest": _qkd(DEMO_NET, 1),
    "qkd-honest-scaled-truncated": _qkd(SCALED_NET, 2, truncated=True),
    "qkd-intercept-resend": _qkd(DEMO_NET, 3, {"kind": "intercept_resend", "target": "Bob2"}),
    "qkd-intercept-resend-d6": _qkd(SCALED_NET, 4, {"kind": "intercept_resend", "target": "Bob1"}),
    "qkd-entangle-measure": _qkd(DEMO_NET, 5, {"kind": "entangle_measure", "target": "Bob1"}),
    "qkd-cloning": _qkd(DEMO_NET, 6, {"kind": "cloning", "target": "Bob1", "F": 0.8, "probability": 0.5}),
    "sqkd-honest": _sqkd(DEMO_NET, 7),
    "sqkd-two-way-cnot": _sqkd(DEMO_NET, 8, {"kind": "two_way", "target": "Bob2", "forward": "cnot",
                                             "backward": "identity"}),
    "sqkd-two-way-random": _sqkd(DEMO_NET, 9, {"kind": "two_way", "target": "Bob1", "forward": "random:3",
                                               "backward": "random:4", "ancilla_dim": 2}),
    "sqkd-intercept-resend": _sqkd(DEMO_NET, 10, {"kind": "intercept_resend", "target": "Bob1"}),
    "sqkd-entangle-measure": _sqkd(DEMO_NET, 11, {"kind": "entangle_measure", "target": "Bob2"}),
    "sqkd-cloning": _sqkd(SCALED_NET, 12, {"kind": "cloning", "target": "Bob2", "F": 0.7}),
    "sqkd-probability-sweep": _sqkd(DEMO_NET, 13, {"kind": "two_way", "target": "Bob2", "forward": "cnot",
                                                   "backward": "cnot"},
                                    sweep=["probability", [0.25, 0.5, 1.0]]),
    "boyer-honest": {"protocol": "boyer", "key_length": 20, "seed": 14},
    "boyer-two-way": {"protocol": "boyer", "key_length": 20, "seed": 15,
                      "attack": {"kind": "two_way", "target": "Bob", "forward": "cnot", "backward": "identity"}},
}

REPORT_DIGESTS = {
    "boyer-honest": "cf63b70ba028ca80f2f29094d5747c0014c1ba2716b0212fd67d8beb16727f33",
    "boyer-two-way": "028ac595af4e3824b624b06efa72dbfec1467fd3902a94aa6cf9bc88bc6479c2",
    "qkd-cloning": "627d3b566e22978141affa336249df7872a257a8a56c92beca09ced970be142a",
    "qkd-entangle-measure": "1d7fa747f2dcc64794ce5c199950aab8976e7317d228d0a4d5fa73758161a676",
    "qkd-honest": "5acb06df91ffd3cd5f1afc8fbeb5ab1d8d999a3f2f0f2514f71f68256208580a",
    "qkd-honest-scaled-truncated": "2294b34d4cdb9b8061b0a830d8f72149f26e792eae12ae21e67001cbafc49e5f",
    "qkd-intercept-resend": "fc9af27d5353ef69a32cedabe01491e5607478d5dcbc1f1512bcd34295adad60",
    "qkd-intercept-resend-d6": "779635da3ce5e614dd48192df67a30798aabf6963a3f4b7df09fa426fcc478de",
    "sqkd-cloning": "eda739ba5ca916004c9fd9f6aee882f31041dc78077a4f11196ca615c46ff0f4",
    "sqkd-entangle-measure": "0f746d41c49bb0aa6fe72d86b6bba55122243480ac011e4dc21787888502584e",
    "sqkd-honest": "77ad00451fdc8d9944a14ddd9b90c55007327292e13e614897ea8d3a072b7cab",
    "sqkd-intercept-resend": "11a29b10a9357dd419f4c72213981e958cfce1d736b228e15eeabb535d165946",
    "sqkd-probability-sweep": "20aeb035b3614faa8b09ce2a6e07134a3f40bcf25ad16e5e6beeaab7a709a3b1",
    "sqkd-two-way-cnot": "b3f480495391cefbb49db1b30b87624c749843a0adace8f6a190b798db46fe47",
    "sqkd-two-way-random": "a008134fd1414445b697be4a3be3280de80a6b19c816e3ea7e533bb94239e605",
}


TRANSCRIPT_DIGESTS = {
    "boyer-honest": "df6320a99effe2dc726f691e932b3f37ebed90390b059931ccbb282246298820",
    "boyer-two-way": "32086f7dac7bd643615ee17000c60604d4c9da2d8f4e94735b781be5a6a5aac5",
    "qkd-cloning": "8dc8874432555a506179f96139f82aba4e5a7a238350a8273c964570df9e0b7b",
    "qkd-entangle-measure": "f21e1d37e3cb79a4a55810f7854bf7b0894aef765abc04c13f9dacc0c2a9d6b6",
    "qkd-honest": "5ad975218629aacb98bd429aca87404827ffaa6c4463993b0e41a66ffa6a47e9",
    "qkd-honest-scaled-truncated": "cd844c96fa461b32246eeb6e687fc08e1bc84e5045059962fd981c8582595d73",
    "qkd-intercept-resend": "066a58a4f93045e1908c153a1f848f2c98cb702491af14108604cee379e9f832",
    "qkd-intercept-resend-d6": "2e915b455b11abfecd30718f4bc09dd77816de5db0af534588eabcc176ad4697",
    "sqkd-cloning": "4446e1640335c4b1435b1e4d3e4ba6e38e9b2f1ff4c65b7dfd36ad70e6d923d2",
    "sqkd-entangle-measure": "df3485350839c32048470c6ba6e9ec6ce9d07f29cfe769f17643e5dc6dc0d49c",
    "sqkd-honest": "f6a09a969ef94133a23d8687a54b695438fd1c0694232f09c563227eedc4d4f9",
    "sqkd-intercept-resend": "18037c0bb6315987ec897088a05358b1c594c1f08f845f8e65790a30bda0d737",
    "sqkd-two-way-cnot": "8919c76c43ec392deea0cdd86b0d4c1f1ff5d1c751ae2f59d4ff43d8c5d4fca6",
    "sqkd-two-way-random": "90c857119e2ccd8afb7fed111cc4b555dc603ce31e0d427f4e75d114c64623e8",
}


def digests(doc: dict) -> tuple[str, str | None]:
    """sha256 of the canonical report and, for a single run, of its transcript CSV."""
    spec = spec_from_dict(doc)
    out = run_experiment(spec)
    report = hashlib.sha256(canonical_report_bytes(out.document)).hexdigest()
    if out.result is None:
        return report, None
    buf = io.StringIO()
    write = write_qkd_transcript if spec.protocol == "qkd" else write_sqkd_transcript
    write(buf, out.result.transcript, spec.resolved_network())
    return report, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_digests_are_pinned(name):
    report, transcript = digests(CASES[name])
    assert report == REPORT_DIGESTS[name]
    assert transcript == TRANSCRIPT_DIGESTS.get(name)
