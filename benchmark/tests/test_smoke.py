"""Smoke tests: each workload at a tiny size, and the output checks firing
on deliberately corrupted results.

Run from the root of the checkout:

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmark"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from xmcreg import evaluation, trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "train-reg", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- the checks fire on corrupted output ---------------------------------------


@pytest.fixture
def tiny_work(tmp_path):
    assert worker.main(["setup", "--workload", "train-reg", "--seed", "3", "--work", str(tmp_path), "--tiny"]) == 0
    return tmp_path


def measure(work):
    return worker.measure("train-reg", 3, 0.0, False, work, True)


def test_clean_tiny_run_passes(tiny_work):
    result = measure(tiny_work)
    assert result["failed"] == 0, result["errors"]


def test_wrong_top1_label_is_caught(tiny_work, monkeypatch):
    real = evaluation.retrieve_top1

    def shifted(*args, **kwargs):
        preds = real(*args, **kwargs)
        return [dataclasses.replace(p, top1_label_id=p.top1_label_id + 1) for p in preds]

    monkeypatch.setattr(evaluation, "retrieve_top1", shifted)
    result = measure(tiny_work)
    assert result["failed"] > 0
    assert any("brute force" in e for e in result["errors"])


def test_checkpoint_corrupted_on_load_is_caught(tiny_work, monkeypatch):
    real = trainer.Checkpoint.load.__func__

    def flipped(cls, path):
        ckpt = real(cls, path)
        ckpt.tensors["encoder/projection"][0, 0] += 1e-12
        return ckpt

    monkeypatch.setattr(trainer.Checkpoint, "load", classmethod(flipped))
    result = measure(tiny_work)
    assert any("round trip" in e for e in result["errors"])


def test_threshold_below_target_precision_is_caught(tiny_work, monkeypatch):
    real = evaluation.evaluate

    def loose(preds, target_precision, bins=50):
        report = real(preds, target_precision, bins=bins)
        lowest = min(p.score for p in preds)
        return dataclasses.replace(report, threshold=lowest, c_at_1=1.0)

    monkeypatch.setattr(evaluation, "evaluate", loose)
    result = measure(tiny_work)
    assert any("threshold precision" in e for e in result["errors"])


def test_nondeterministic_training_is_caught(tiny_work, monkeypatch):
    real = trainer.train
    calls = []

    def drifting(dataset, config, log_path=None):
        calls.append(1)
        return real(dataset, dataclasses.replace(config, seed=config.seed + len(calls)), log_path)

    monkeypatch.setattr(trainer, "train", drifting)
    result = measure(tiny_work)
    assert any("determinism" in e for e in result["errors"])


def test_non_finite_loss_and_failed_gradcheck_are_caught():
    assert checks.losses_finite([{"epoch": 0, "base": 0.5, "total": float("nan")}])
    assert checks.losses_finite([{"epoch": 0, "base": 0.5, "total": 0.7}]) == []
    failed = type("Report", (), {"passed": False, "max_relative_error": 1e-2, "worst_case": "matmul"})()
    assert checks.gradcheck_passed(failed, 0)


def test_exact_tie_must_go_to_the_lower_label_id():
    q = np.array([[1.0, 0.0]])
    labels = np.array([[0.6, 0.8], [1.0, 0.0], [1.0, 0.0]])
    ids = [5, 9, 7]
    good = [evaluation.ScoredPrediction(query_id=0, top1_label_id=7, score=1.0, correct=True)]
    bad = [dataclasses.replace(good[0], top1_label_id=9)]
    positives = [frozenset({7, 9})]
    assert checks.top1_matches_bruteforce(good, q, labels, ids, positives, [0]) == []
    assert checks.top1_matches_bruteforce(bad, q, labels, ids, positives, [0])


def test_clock_scales_by_the_blocks_around_each_call():
    readings = iter([(0.0, 0.010), (0.030, 0.050), (0.050, 0.050)])
    clock = calibrate.Clock(lambda: next(readings))
    _, raw, scaled = clock.time(lambda: None)
    assert scaled == pytest.approx(raw * calibrate.REFERENCE_S / 0.020)
    # the opening reading, taken after other work, opens the next call
    _, raw, scaled = clock.time(lambda: None)
    assert scaled == pytest.approx(raw * calibrate.REFERENCE_S / 0.050)
