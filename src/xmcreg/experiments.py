"""Seed-averaged comparison of the base objective against the fully
regularized one, mirroring the coverage-vs-precision study."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import evaluation, mining, trainer
from .data_io import SyntheticSpec, build_synthetic
from .encoder import encode_matrix


@dataclass
class RunResult:
    p_at_1: float
    c_at_1: float
    overlap: float


@dataclass
class ComparisonResult:
    seeds: list[int]
    base: list[RunResult]
    regularized: list[RunResult]

    def mean(self, which: str, field: str) -> float:
        runs = getattr(self, which)
        return float(np.mean([getattr(r, field) for r in runs]))


def predict(ckpt: trainer.Checkpoint, dataset: mining.Dataset) -> list[evaluation.ScoredPrediction]:
    """Top-1 prediction of the checkpoint's model for every query of the dataset."""
    model = trainer.model_from_tensors(ckpt.tensors, path=ckpt.path)
    q_embs = encode_matrix(model.enc, [q.text for q in dataset.queries])
    l_embs = encode_matrix(model.enc, [l.text for l in dataset.labels])
    return evaluation.retrieve_top1(
        q_embs, l_embs,
        [q.id for q in dataset.queries],
        [l.id for l in dataset.labels],
        [q.positives for q in dataset.queries],
    )


def evaluate_checkpoint(ckpt: trainer.Checkpoint, dataset: mining.Dataset, target_precision: float) -> RunResult:
    report = evaluation.evaluate(predict(ckpt, dataset), target_precision)
    return RunResult(p_at_1=report.p_at_1, c_at_1=report.c_at_1, overlap=report.histogram.overlap)


def directional_comparison(
    seeds: tuple[int, ...] = (0, 1, 2),
    spec: SyntheticSpec | None = None,
    config: trainer.TrainConfig | None = None,
    target_precision: float = 0.85,
) -> ComparisonResult:
    """Train base-only and regularized models per seed and evaluate both."""
    spec = spec or SyntheticSpec()
    config = config or trainer.TrainConfig(epochs=12)
    labels, train_q, test_q = build_synthetic(spec)
    train_set = mining.Dataset(queries=train_q, labels=labels)
    test_set = mining.Dataset(queries=test_q, labels=labels)

    base_runs = []
    reg_runs = []
    for seed in seeds:
        base_cfg = dataclasses.replace(config, seed=seed, beta1=0.0, beta2=0.0, tcm_enabled=False)
        reg_cfg = dataclasses.replace(config, seed=seed)
        base_ckpt, _ = trainer.train(train_set, base_cfg)
        reg_ckpt, _ = trainer.train(train_set, reg_cfg)
        base_runs.append(evaluate_checkpoint(base_ckpt, test_set, target_precision))
        reg_runs.append(evaluate_checkpoint(reg_ckpt, test_set, target_precision))
    return ComparisonResult(seeds=list(seeds), base=base_runs, regularized=reg_runs)
