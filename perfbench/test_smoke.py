"""Smoke test of the benchmark itself: every workload once, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each workload prints every metric BENCHMARK.json names, with its
unit, in both modes, and that the benchmark refuses to run without padvio's
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_workloads_match_benchmark_file():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric(trace, section):
    done = _run(ROOT, "--workload", "all", "--seed", "0", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    body, last = done.stdout.rstrip("\n").rsplit("\n", 1)
    combined = json.loads(last)
    assert combined["correct"], done.stderr
    assert combined["failed"] == 0, done.stderr
    sections = body.split("== ")[1:]
    assert [s.split("\n", 1)[0] for s in sections] == [w["name"] for w in BENCHMARK["workloads"]]
    for text in sections:
        workload = text.split("\n", 1)[0]
        result = json.loads(text.strip().splitlines()[-1])
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
        for metric in BENCHMARK[section]:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            assert combined["metrics"][f"{workload}/{name}"] == result["metrics"][name]
            printed = [line.split() for line in text.splitlines() if line.startswith(name + " ")]
            assert printed and printed[0][-1] == unit, f"{workload}: {name} not printed with {unit}"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "reference", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
