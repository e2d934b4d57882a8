"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/tests

Each workload runs at its --tiny size, so the whole file takes about a
minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import worker  # noqa: E402
from heckej import JRing  # noqa: E402
from heckej.asymptotic import JTensorAElement  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_counts_cover_every_call_path_and_repeat():
    """afn-a2 at radius 1 scans at radii 8 and 9 over a KL table of radius
    17; the counts follow from public ball sizes alone (3n elements of
    length n in A2~)."""
    ball = lambda r: 1 + sum(3 * n for n in range(1, r + 1))  # noqa: E731
    first = run_bench("afn-a2", 1)["metrics"]
    assert first["hecke.scan.calls"]["value"] == 2
    assert first["asymptotic.scan_radii"]["value"] == 2
    assert first["hecke.scan.pairs"]["value"] == ball(8) ** 2 + ball(9) ** 2
    assert first["hecke.kl_build.elements"]["value"] == ball(17)
    assert first["asymptotic.a_function.calls"]["value"] == ball(1)
    again = run_bench("afn-a2", 1)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: again[n]["value"] for n in counts}


def test_corrupted_golden_output_counts_as_failure(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    golden = tmp_path / "bench" / "golden" / "cli_cold.json"
    calls = json.loads(golden.read_text())
    calls[0]["stdout"] = calls[0]["stdout"].replace("e", "x", 1)
    golden.write_text(json.dumps(calls))
    result = run_bench("cli-cold", 0, root=tmp_path)
    assert result["correct"] is False
    assert result["failed"] * run.CLI_CALLS["tiny"] == result["attempted"]  # one call in every rep


def test_wrong_a_value_counts_as_failure(monkeypatch):
    assert worker.run_afn(seed=1, radius=1)["failed"] == 0
    monkeypatch.setattr(worker, "oracle_a", lambda word: 2)
    assert worker.run_afn(seed=1, radius=1)["failed"] == worker.a2_ball_size(1)


def test_broken_identity_counts_as_failure(monkeypatch):
    def empty(ring, a, b, signed=False):
        return JTensorAElement(ring.desc, {}, ring.radius)

    monkeypatch.setattr(JRing, "jta_multiply", empty)
    rec = worker.run_jring(seed=1, triples=3, pairs=4)
    assert (rec["ops"], rec["failed"]) == (7, 4)


def test_raised_operation_counts_as_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(JRing, "j_multiply", boom)
    rec = worker.run_jring(seed=1, triples=3, pairs=0)
    assert rec["failed"] == 3


def test_slowdown_is_the_mean_calibration_time_over_the_reference():
    ref = run.REFERENCE_CALIBRATION
    assert run.slowdown([(0.0, ref), (1.0, 2 * ref)]) == pytest.approx(1.5)


def test_every_worker_process_samples_its_speed():
    """Times are rescaled by speed samples taken inside the process that
    did the work, at every garbage collection and every mark."""
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "afn-a2", "--seed", "3", "--radius", "1"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120, check=True,
    )
    rec = json.loads(proc.stdout.splitlines()[-1])
    inside = [c for s, c in rec["samples"] if rec["start"] <= s <= rec["end"]]
    assert len(inside) > 10 and all(c > 0 for c in inside)


@pytest.mark.parametrize(
    "word, a",
    [((), 0), ((0,), 1), ((0, 1), 1), ((0, 1, 2, 0), 1), ((0, 1, 0), 3), ((2, 0, 1, 0, 2), 3)],
)
def test_cell_oracle(word, a):
    assert worker.oracle_a(word) == a


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "afn-a2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
