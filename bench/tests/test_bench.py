"""Tests of the benchmark itself: the checker, the span arithmetic, and one
tiny run of every workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "PYTHONPATH": str(ROOT / "src")}


def cli_result(op) -> SimpleNamespace:
    proc = subprocess.run([sys.executable, "-m", "riesz_eig.cli", *op.argv], capture_output=True,
                          env=ENV, cwd=ROOT, timeout=120)
    return SimpleNamespace(timed_out=False, code=proc.returncode, stdout=proc.stdout,
                           stderr=proc.stderr, reply={})


def edited(result, text: str) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(result), "stdout": text.encode()})


@pytest.fixture(scope="module")
def checker():
    return check.Checker(seed=0)


@pytest.fixture(scope="module")
def eig_csv():
    op = workloads.eig_op(1.6, 64)
    return op, cli_result(op)


def test_valid_outputs_pass(checker, eig_csv):
    op, result = eig_csv
    assert checker.check(op, result) == []
    for op in workloads.build("cli_dumps", seed=0, tiny=True)[:-1]:
        assert checker.check(op, cli_result(op)) == [], op.name


def test_flags_a_changed_digit(checker, eig_csv):
    op, result = eig_csv
    lines = result.stdout.decode().split("\n")
    n, lam = lines[2].split(",")  # lambda_2: keeps the bound checks on lambda_1 out of play
    digit = lam[6]
    lines[2] = f"{n},{lam[:6]}{'3' if digit != '3' else '4'}{lam[7:]}"
    problems = checker.check(op, edited(result, "\n".join(lines)))
    assert any("lambda_2" in p for p in problems), problems


def test_flags_a_dropped_row(checker, eig_csv):
    op, result = eig_csv
    lines = result.stdout.decode().split("\n")
    del lines[-2]
    problems = checker.check(op, edited(result, "\n".join(lines)))
    assert problems and "rows" in problems[0]


def test_flags_non_ascending_eigenvalues(checker, eig_csv):
    op, result = eig_csv
    lines = result.stdout.decode().split("\n")
    (n5, l5), (n6, l6) = lines[5].split(","), lines[6].split(",")
    lines[5], lines[6] = f"{n5},{l6}", f"{n6},{l5}"
    problems = checker.check(op, edited(result, "\n".join(lines)))
    assert problems and "not ascending" in problems[0]


def test_flags_a_nonzero_exit(checker, eig_csv):
    op, result = eig_csv
    failed = SimpleNamespace(**{**vars(result), "code": 1, "stderr": b"riesz-eig: error: boom\n"})
    problems = checker.check(op, failed)
    assert problems and problems[0].startswith("exit status 1")


def test_flags_a_nonfinite_number_and_a_failed_solve(checker, eig_csv):
    op, result = eig_csv
    text = result.stdout.decode().replace(result.stdout.decode().split("\n")[3].split(",")[1], "nan")
    assert "non-finite" in " ".join(checker.check(op, edited(result, text)))
    solve = workloads.solve_op(1.6, 64)
    reply = {"error": "RuntimeError: boom"}
    assert checker.check(solve, SimpleNamespace(timed_out=False, reply=reply)) == [reply["error"]]


def test_self_times_and_cover():
    # a root [0, 10] with children [1, 4] and, on two threads, [3, 6] and [5, 9]
    spans = [[0, None, "a", 0.0, 10.0, 1, None], [1, 0, "b", 1.0, 4.0, 1, None],
             [2, 0, "c", 3.0, 6.0, 1, None], [3, 0, "d", 5.0, 9.0, 1, None]]
    assert tracer.self_times(spans) == [2.0, 3.0, 3.0, 4.0]
    assert tracer.covered(spans) == 10.0
    # self times exceed the cover by the time the threads overlapped
    assert sum(tracer.self_times(spans)) - tracer.covered(spans) == 2.0


def bench_run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload):
    proc = bench_run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {"setup_s", "pass_s", "cpu_s", "peak_rss_mb", "success_rate"}
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    known = set(workloads.KNOWN_FAILURES) if workload == "solve_warm" else set()
    assert set(record["failures"]) == known
    assert result["failed"] == len(known) * record["passes"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_adds_up(workload):
    proc = bench_run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    layers = sum(metrics[f"{m}.self_s"] for m in tracer.MODULES) + metrics["import.self_s"]
    total = layers + metrics["trace.unattributed_s"] - metrics["trace.parallel_overlap_s"]
    assert total == pytest.approx(metrics["trace.pass_s"], rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0.0 and metrics["trace.parallel_overlap_s"] >= -1e-9
    if workload == "solve_warm":
        assert metrics["assembly.assemble_mass.calls"] == len(workloads.TINY_SOLVE_GRID)
    else:
        assert metrics["cli.output_bytes"] > 0 and metrics["cli.import_s"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench_run("cli_studies", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
