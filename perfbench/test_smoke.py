"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from lqkd import harness  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.JSON_END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, u, b) for n, u, b, *_ in run.PER_LAYER
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name, unit, _ in run.END_TO_END:
        assert any(line.startswith(f"metric {name} = ") and f" {unit}  (" in line for line in lines), name
    assert any(line.startswith(f"digest {workload} ") and "repeatable=yes" in line for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m: u for m, u, _ in run.JSON_END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_and_layer_boundaries(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = {}
    for line in lines:
        if line.startswith("layer "):
            name, rest = line[len("layer "):].split(" = ", 1)
            value, unit = rest.split()[:2]
            table[name] = (value, unit)
    assert {n: u for n, (_, u) in table.items()} == {n: u for n, u, *_ in run.PER_LAYER}
    absent = {n for n, (v, _) in table.items() if v == "absent"}
    sqkd_or_sweep = {n for n in table if n.startswith(("sqkd_engine.", "harness.sweep_"))}
    transcript = {"harness.write_transcript_s", "harness.read_transcript_s"}
    if workload == "sqkd-sweep":
        assert not sqkd_or_sweep & absent
        assert float(table["harness.sweep_overlap"][0]) > 0
    else:
        assert sqkd_or_sweep <= absent
    if workload == "qkd-honest-roundtrip":
        assert not transcript & absent
        for name in ("attacks.forward_calls", "attacks.backward_calls"):
            assert float(table[name][0]) == 0
    else:
        assert transcript <= absent
        assert float(table["attacks.forward_calls"][0]) > 0
    assert float(table["resgen.compile_s"][0]) > 0
    result = json.loads(lines[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(table)


def test_traced_counts_repeat_at_one_seed():
    runs = [bench("qkd-attacked", 1) for _ in range(2)]
    counts = []
    for proc in runs:
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({n: v["value"] for n, v in metrics.items() if n.endswith(("_calls", ".rounds"))})
    assert counts[0] == counts[1]


def test_gate_rejects_a_flipped_key_symbol(tmp_path):
    workload = workloads.prepare("qkd-honest-roundtrip", "tiny", tmp_path)
    out = workload.run(11)
    assert workload.check(out) == []

    path = Path(out["result"].paths["transcript"])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    column, retained, check = (header.index(c) for c in ("outcome_Bob1", "retained", "check"))
    # a key round of both layers, so that any change of Bob1's outcome changes a key symbol
    row = next(r for r in rows[1:] if r[retained] == "0;1" and r[check] == "0")
    row[column] = str((int(row[column]) + 1) % 6)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    out["analyzed"] = harness.analyze_transcript("qkd", workload.network, path)
    assert any("analyze does not reproduce" in p for p in workload.check(out))


def test_gate_rejects_a_corrupted_saved_report(tmp_path):
    workload = workloads.prepare("qkd-honest-roundtrip", "tiny", tmp_path)
    out = workload.run(12)
    report_path = Path(out["result"].paths["report"])
    saved = json.loads(report_path.read_text(encoding="utf-8"))
    saved["report"]["layers"]["1"]["keys_identical"] = False
    report_path.write_text(json.dumps(saved), encoding="utf-8")
    assert any("keys differ" in p for p in workload.check(out))


def test_attacked_and_sweep_gates_reject_corrupted_reports(tmp_path):
    attacked = workloads.prepare("qkd-attacked", "tiny", tmp_path)
    documents = attacked.run(13)
    assert attacked.check(documents) == []
    documents[0]["report"]["participants"]["Bob1"]["errors"] = 1
    documents[2]["report"]["pinpoint"]["compromised"] = []
    problems = attacked.check(documents)
    assert any("untargeted Bob1" in p for p in problems)
    assert any("pinpoint" in p for p in problems)

    sweep = workloads.prepare("sqkd-sweep", "tiny", tmp_path)
    out = sweep.run(14)
    assert sweep.check(out) == []
    out.sweep_rows[1]["abort"] = False
    assert sweep.check(out) == ["probability 0.5: no abort"]


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(1, 41)]
    value, percentile, beyond = run.tail(times)
    assert (value, percentile, beyond) == (30.0, 75.0, 10)
    assert run.tail([1.0, 2.0])[2] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("qkd-attacked", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
