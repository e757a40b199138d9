"""Output checks run on every benchmark pass.

Each check returns a list of failure messages; an empty list means the
output is correct. The benchmark counts each check as one operation
attempted and each non-empty result as one operation failed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TIE_EPS = 1e-9


def losses_finite(log: list[dict]) -> list[str]:
    """Every per-epoch loss component is a finite number."""
    return [f"epoch {e['epoch']}: {k} = {v!r}" for e in log for k, v in e.items()
            if k != "epoch" and not math.isfinite(v)]


def roundtrip(saved, loaded) -> list[str]:
    """``Checkpoint.load`` returned exactly what ``Checkpoint.save`` wrote."""
    errors = []
    if saved.tensors.keys() != loaded.tensors.keys():
        errors.append(f"tensor names differ: {sorted(saved.tensors.keys() ^ loaded.tensors.keys())}")
    for name in saved.tensors.keys() & loaded.tensors.keys():
        a, b = np.asarray(saved.tensors[name], dtype=np.float64), loaded.tensors[name]
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            errors.append(f"tensor {name} changed in the round trip")
    if saved.config != loaded.config:
        errors.append("config changed in the round trip")
    if saved.epoch != loaded.epoch:
        errors.append(f"epoch {saved.epoch} came back as {loaded.epoch}")
    return errors


def threshold_precision(report, preds) -> list[str]:
    """P@1 and C@1 match the predictions, and when a threshold was found
    the accepted set reaches the target precision."""
    errors = []
    p_at_1 = sum(p.correct for p in preds) / len(preds)
    if report.p_at_1 != p_at_1:
        errors.append(f"p_at_1 {report.p_at_1} but predictions give {p_at_1}")
    if report.threshold is None:
        if report.c_at_1 != 0.0:
            errors.append(f"c_at_1 {report.c_at_1} without a threshold")
        return errors
    accepted = [p for p in preds if p.score >= report.threshold]
    precision = sum(p.correct for p in accepted) / len(accepted) if accepted else 0.0
    if precision < report.target_precision:
        errors.append(f"precision {precision:.4f} on the accepted set is below the target {report.target_precision}")
    if len(accepted) / len(preds) != report.c_at_1:
        errors.append(f"c_at_1 {report.c_at_1} but {len(accepted)}/{len(preds)} scores reach the threshold")
    return errors


def top1_matches_bruteforce(preds, q_embs, l_embs, label_ids, positives, sample) -> list[str]:
    """On the sampled query indices, the prediction is a brute-force argmax
    and an exact tie (identical label embeddings) goes to the lower id."""
    errors = []
    ids = np.asarray(label_ids)
    row_of = {int(lid): j for j, lid in enumerate(ids)}
    for qi in sample:
        pred = preds[qi]
        scores = l_embs @ q_embs[qi]
        best = scores.max()
        j = row_of.get(pred.top1_label_id)
        if j is None or scores[j] < best - TIE_EPS:
            errors.append(f"query {pred.query_id}: label {pred.top1_label_id} is not an argmax")
            continue
        if abs(pred.score - scores[j]) > TIE_EPS:
            errors.append(f"query {pred.query_id}: score {pred.score} but brute force gives {scores[j]}")
        tied = (scores >= best - TIE_EPS) & (ids < pred.top1_label_id)
        if any(l_embs[t].tobytes() == l_embs[j].tobytes() for t in np.flatnonzero(tied)):
            errors.append(f"query {pred.query_id}: exact tie not broken towards the lower label id")
        if pred.correct != (pred.top1_label_id in positives[qi]):
            errors.append(f"query {pred.query_id}: correctness flag disagrees with the positives")
    return errors


def gradcheck_passed(report, seed: int) -> list[str]:
    return [] if report.passed else [f"gradient suite failed at seed {seed}: {report.max_relative_error:.3e} "
                                     f"({report.worst_case})"]


def fingerprint(tensors: dict, report_text: str) -> str:
    """sha256 of the checkpoint tensors (by name) and of the eval report."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        h.update(json.dumps([name, arr.shape]).encode())
        h.update(arr.tobytes())
    h.update(report_text.encode())
    return h.hexdigest()


def same_fingerprint(prints: list[str]) -> list[str]:
    """Every pass over the same inputs produced the same fingerprint."""
    return [] if len(set(prints)) == 1 else [f"passes over the same seed differ: {sorted(set(prints))}"]
