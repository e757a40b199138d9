"""Per-layer metrics, computed from one traced pass.

Suffixes: ``_ps`` is per training step (the train phase's total divided
by its number of ``update_step`` calls); ``.s`` is seconds summed over
the phase named in ``metrics``; ``ms`` values are inclusive of child
spans. Self time per span name is in the spans file instead.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import END, NAME, PARENT, PHASE, START, STEP, Tracer


def _bucket_rows_touched(params) -> float:
    grad = params["encoder/bucket_table"].grad
    return 0.0 if grad is None else float(np.count_nonzero(np.any(grad != 0.0, axis=1))) / grad.shape[0]


def _params_updated(params, state) -> int:
    """Scalars the dense Adam update touched: every tensor with a gradient
    now or at any earlier step."""
    return sum(p.data.size for name, p in params.items() if p.grad is not None or name in state.touched)


# values read from a call's arguments or result, kept per call
OBSERVERS = {
    "losses.total_loss": lambda args, kwargs, result: result[2],
    "trainer.update_step": lambda args, kwargs, result: (_bucket_rows_touched(args[0]),
                                                         _params_updated(args[0], args[1])),
    "mining.ance_pool": lambda args, kwargs, result: args[0].shape[0] * args[1].shape[0],
    "evaluation.retrieve_top1": lambda args, kwargs, result: args[0].shape[0] * args[1].shape[0],
    "encoder.encode_matrix": lambda args, kwargs, result: len(args[1]),
    "data_io.load_dataset": lambda args, kwargs, result: len(result.queries) + len(result.labels),
    "verify.full_suite": lambda args, kwargs, result: result.max_relative_error,
}


def metrics(tracer: Tracer, untraced_s: float, traced_s: float, ckpt_bytes: int) -> dict:
    calls: dict = defaultdict(int)
    secs: dict = defaultdict(float)
    for s in tracer.spans:
        calls[(s[PHASE], s[NAME])] += 1
        secs[(s[PHASE], s[NAME])] += s[END] - s[START]
    obs = tracer.observed
    steps = calls[("train", "trainer.update_step")]

    def ps(name):
        return 1000.0 * secs[("train", name)] / steps

    def calls_ps(name):
        return calls[("train", name)] / steps

    # step latency: from total_loss entry to update_step exit, under trainer.train
    bounds: dict = defaultdict(dict)
    for s in tracer.spans:
        if s[STEP] is not None and s[PARENT] is not None and tracer.spans[s[PARENT]][NAME] == "trainer.train":
            if s[NAME] == "losses.total_loss":
                bounds[s[STEP]]["start"] = s[START]
            elif s[NAME] == "trainer.update_step":
                bounds[s[STEP]]["end"] = s[END]
    step_ms = [1000.0 * (b["end"] - b["start"]) for b in bounds.values() if len(b) == 2]
    updates = obs[("train", "trainer.update_step")]

    return {
        "encoder.encode.calls_ps": calls_ps("encoder.encode"),
        "encoder.encode.ms_ps": ps("encoder.encode"),
        "encoder.featurize.calls": calls[("eval", "encoder.featurize")],
        "encoder.featurize.s": secs[("eval", "encoder.featurize")],
        "encoder.encode_matrix.texts": sum(obs[("eval", "encoder.encode_matrix")]),
        "encoder.encode_matrix.s": secs[("eval", "encoder.encode_matrix")],
        "encoder.bucket_rows_touched_frac": float(np.mean([u[0] for u in updates])),
        "losses.total_loss.ms_ps": ps("losses.total_loss"),
        "losses.aux_loss_ql.ms_ps": ps("losses.aux_loss_ql"),
        "losses.aux_loss_qb.ms_ps": ps("losses.aux_loss_qb"),
        "losses.tcm_loss.ms_ps": ps("losses.tcm_loss"),
        "losses.shrunk_blockings_ps": sum(obs[("train", "losses.total_loss")]) / steps,
        "pair_reps.contextualize.calls_ps": calls_ps("pair_reps.contextualize"),
        "pair_reps.contextualize.ms_ps": ps("pair_reps.contextualize"),
        "pair_reps.build_gamma.calls_ps": calls_ps("pair_reps.build_gamma"),
        "diffmath.tape_nodes_ps": tracer.counts[("train", "diffmath.tape_nodes")] / steps,
        "diffmath.backward.ms_ps": ps("diffmath.backward"),
        "trainer.update_step.ms_ps": ps("trainer.update_step"),
        "trainer.update_step.params_updated": float(np.mean([u[1] for u in updates])),
        "trainer.step.ms_p50": float(np.percentile(step_ms, 50)),
        "trainer.step.ms_p90": float(np.percentile(step_ms, 90)),
        "trainer.checkpoint_save.s": secs[("checkpoint", "trainer.Checkpoint.save")],
        "trainer.checkpoint_load.s": secs[("checkpoint", "trainer.Checkpoint.load")],
        "trainer.checkpoint.bytes": ckpt_bytes,
        "mining.ance_pool.s": secs[("train", "mining.ance_pool")],
        "mining.ance_pool.pairs_scanned": sum(obs[("train", "mining.ance_pool")]),
        "mining.cluster_batches.s": secs[("train", "mining.cluster_batches")],
        "mining.in_batch_negatives.ms_ps": ps("mining.in_batch_negatives"),
        "mining.build_blockings.ms_ps": ps("mining.build_blockings"),
        "mining.sample_positives.s": secs[("train", "mining.sample_positives")],
        "evaluation.retrieve_top1.s": secs[("eval", "evaluation.retrieve_top1")],
        "evaluation.retrieve_top1.pairs_scored": sum(obs[("eval", "evaluation.retrieve_top1")]),
        "evaluation.coverage_at_target.s": secs[("eval", "evaluation.coverage_at_target")],
        "evaluation.score_histogram.s": secs[("eval", "evaluation.score_histogram")],
        "evaluation.write_scores.s": secs[("eval", "evaluation.write_scores")],
        "data_io.build_synthetic.s": secs[("data", "data_io.build_synthetic")],
        "data_io.load_dataset.s": secs[("data", "data_io.load_dataset")],
        "data_io.load_dataset.rows": sum(obs[("data", "data_io.load_dataset")]),
        "verify.kernel_gradchecks.s": secs[("gradcheck", "verify.kernel_gradchecks")],
        "verify.total_loss_gradcheck.s": secs[("gradcheck", "verify.total_loss_gradcheck")],
        "verify.max_relative_error": obs[("gradcheck", "verify.full_suite")][0],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
