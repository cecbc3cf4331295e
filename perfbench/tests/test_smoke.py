"""Smoke test of the benchmark: each workload at its smallest size.

    python3 -m pytest perfbench/tests -q

With --seconds 0 a workload runs only its minimum number of items. Every
metric BENCHMARK.json names must appear with its unit, and every output
check must pass, so a metric cannot be dropped without a failure here.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "0"]


def run(cwd, workload, trace):
    return subprocess.run([sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_every_check_passes(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith("REPORT "))[len("REPORT "):])
    assert report["figures"]["failed_frac"] == 0
    assert report["provenance"]["src_lines"] > 0


def test_prediction_table_names_every_per_layer_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    named = set(re.findall(r"`([\w.]+)`", readme))
    assert {m["name"] for m in SPEC["per_layer"]} <= named


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
