"""Gradient verification suites: per-kernel checks and the full objective."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diffmath as dm
from . import mining
from .data_io import SyntheticSpec, build_synthetic
from .losses import group_blockings, head_loss, head_terms, objective, pair_stage, plan_batch, qb_deltas
from .pair_reps import apply_block, canonical_order
from .trainer import TrainConfig, init_model


def _square_mean(tape, t: dm.Tensor) -> dm.Tensor:
    # quadratic scalarization so every output coordinate contributes a
    # non-constant gradient
    return dm.mean_all(tape, dm.mul(tape, t, t))


def kernel_checks(seed: int) -> dict[str, tuple]:
    """The kernel suite by check name: a scalar program over one kernel,
    fn(tape), and the parameters it reads, drawn from seed."""
    rng = np.random.default_rng(seed)

    def away_from_zero(shape):
        # keep |x| >= 0.2 so abs/relu kinks stay out of fd range
        return rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    x2, y2 = (dm.Tensor(rng.normal(size=(3, 4))) for _ in range(2))
    w = dm.Tensor(rng.normal(size=(4, 2)))
    v1, v2 = (dm.Tensor(rng.normal(size=5)) for _ in range(2))
    kinky = dm.Tensor(away_from_zero((3, 4)))
    gain = dm.Tensor(rng.normal(size=4))
    bias = dm.Tensor(rng.normal(size=4))
    targets = rng.integers(0, 2, size=5).astype(float)
    idx = rng.integers(0, 3, size=6)
    probe = rng.normal(size=5)
    x3 = dm.Tensor(rng.normal(size=(2, 3, 4)))
    y3 = dm.Tensor(rng.normal(size=(2, 4, 3)))
    bias2 = dm.Tensor(rng.normal(size=2))
    idx2 = rng.integers(0, 3, size=(2, 3))
    z3 = dm.Tensor(rng.normal(size=(2, 3, 4)))
    probe2 = rng.normal(size=(3, 4))
    lengths = rng.integers(1, 5, size=3)
    # bags of x2's rows, one per column: pads (row 0, weight 0), row 2 in two bags, a bag of pads only
    bag_ids, bag_w = [[1, 2, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0]], [[0.25, 0.5, 0, 1], [0.75, 0.3, 0, 0], [0, 0.2, 0, 0]]

    return {
        "add": (lambda tape: _square_mean(tape, dm.add(tape, x2, y2)), {"x": x2, "y": y2}),
        "sub": (lambda tape: _square_mean(tape, dm.sub(tape, x2, y2)), {"x": x2, "y": y2}),
        "hadamard": (lambda tape: _square_mean(tape, dm.mul(tape, x2, y2)), {"x": x2, "y": y2}),
        "matmul": (lambda tape: _square_mean(tape, dm.matmul(tape, x2, w)), {"x": x2, "w": w}),
        "matmul-rank3": (lambda tape: _square_mean(tape, dm.matmul(tape, x3, y3)), {"x": x3, "y": y3}),
        "matmul-rank3-rank2": (lambda tape: _square_mean(tape, dm.matmul(tape, x3, w)), {"x": x3, "w": w}),
        "affine": (lambda tape: _square_mean(tape, dm.affine(tape, x3, w, bias2)), {"x": x3, "w": w, "bias": bias2}),
        "concat": (lambda tape: _square_mean(tape, dm.concat(tape, [v1, v2])), {"a": v1, "b": v2}),
        "stack": (lambda tape: _square_mean(tape, dm.stack(tape, [v1, v2])), {"a": v1, "b": v2}),
        "reshape": (lambda tape: _square_mean(tape, dm.reshape(tape, x2, (2, 6))), {"x": x2}),
        "elementwise-abs": (lambda tape: _square_mean(tape, dm.elementwise_abs(tape, kinky)), {"x": kinky}),
        "relu": (lambda tape: _square_mean(tape, dm.relu(tape, kinky)), {"x": kinky}),
        "gelu": (lambda tape: _square_mean(tape, dm.gelu(tape, x2)), {"x": x2}),
        "layer_norm": (lambda tape: _square_mean(tape, dm.layer_norm(tape, x2, gain, bias)),
                       {"x": x2, "gain": gain, "bias": bias}),
        "softmax": (lambda tape: _square_mean(tape, dm.softmax(tape, x2)), {"x": x2}),
        "embedding_bag": (lambda tape: _square_mean(tape, dm.embedding_bag(tape, x2, bag_ids, bag_w)), {"t": x2}),
        # linear functional: the squared norm of a unit vector is constant
        "l2_normalize": (lambda tape: dm.mean_all(tape, dm.mul(tape, dm.l2_normalize(tape, v1), probe)), {"v": v1}),
        "l2_normalize-rank2": (
            lambda tape: dm.mean_all(tape, dm.mul(tape, dm.l2_normalize(tape, x2), probe2)), {"x": x2}),
        "dot": (lambda tape: _square_mean(tape, dm.dot(tape, v1, v2)), {"a": v1, "b": v2}),
        "dot-rank2": (lambda tape: _square_mean(tape, dm.dot(tape, x2, y2)), {"a": x2, "b": y2}),
        "dot-rank3": (lambda tape: _square_mean(tape, dm.dot(tape, x3, z3)), {"a": x3, "b": z3}),
        "mean_rows": (lambda tape: _square_mean(tape, dm.mean_rows(tape, x2, lengths)), {"x": x2}),
        "bce_with_logits": (lambda tape: dm.mean_all(tape, dm.bce_with_logits(tape, v1, targets)), {"z": v1}),
        "gather_rows": (lambda tape: _square_mean(tape, dm.gather_rows(tape, x2, idx)), {"x": x2}),
        "gather_rows-grouped": (lambda tape: _square_mean(tape, dm.gather_rows(tape, x2, idx2)), {"x": x2}),
        "transpose": (lambda tape: _square_mean(tape, dm.transpose(tape, x2)), {"x": x2}),
        "transpose-rank3": (lambda tape: _square_mean(tape, dm.transpose(tape, x3)), {"x": x3}),
    }


def kernel_gradchecks(seed: int, tol: float = 1e-4, max_coords: int = 64) -> dm.GradCheckReport:
    """Finite-difference check of every kernel's backward pass."""
    errors = {name: dm.grad_check(fn, params, seed=seed, tol=tol, max_coords=max_coords).max_relative_error
              for name, (fn, params) in kernel_checks(seed).items()}
    worst = max(errors, key=errors.get)
    return dm.GradCheckReport(max_relative_error=errors[worst], passed=errors[worst] <= tol, worst_case=worst)


# micro objective: embedding width, batch, blocking size, labels, gradcheck coordinates per tensor
MICRO_DIM, MICRO_BATCH, MICRO_K, MICRO_LABELS, MICRO_MAX_COORDS = 8, 6, 3, 20, 8


def make_micro_objective(seed: int):
    """A tiny end-to-end objective closure, its parameter set, and its
    staged probes for dm.grad_check.

    It draws no dropout (no rng), so it is deterministic across calls.
    An encoder tensor's probe reruns the whole objective. The others rerun
    only what their tensor moves, on what the unperturbed parameters give
    for the rest: a head_ql probe reruns aux_loss_ql, a head_qb probe
    head_loss on the cached deltas, and a block probe apply_block,
    qb_deltas and head_loss on the cached canonical groups. Then
    head_terms adds the terms.
    """
    spec = SyntheticSpec(
        num_labels=MICRO_LABELS,
        num_train_queries=MICRO_BATCH,
        num_test_queries=1,
        families=4,
        noise_rate=0.1,
        abbreviation_rate=0.3,
        seed=seed,
    )
    labels, queries, _ = build_synthetic(spec)
    dataset = mining.Dataset(queries=queries, labels=labels)
    config = TrainConfig(
        epochs=1, batch_size=MICRO_BATCH, k=MICRO_K,
        dim=MICRO_DIM, dim_hidden=2 * MICRO_DIM, num_buckets=1024, seed=seed,
    )
    rng = np.random.default_rng(seed)
    model = init_model(rng, config)
    sampled = mining.sample_positives(dataset, rng)
    batch = mining.make_batch(dataset, list(range(len(dataset.queries))), sampled, None, rng)
    loss_cfg = config.loss_config()
    # planned once: the probes rerun only what the parameters move
    plan = plan_batch(dataset, batch, loss_cfg, model.enc.num_buckets)
    params = model.named_tensors()
    heads = (model.head_ql, model.head_qb, model.block)

    def fn(tape):
        return objective(tape, plan, model.enc, *heads, loss_cfg)[0]

    def probes():
        stage = pair_stage(None, plan, model.enc, loss_cfg)
        groups, head_targets = group_blockings(None, stage.gammas, stage.targets)
        canonical = [canonical_order(None, g) for g in groups]

        def deltas():
            return qb_deltas(None, groups, [apply_block(None, model.block, *c) for c in canonical])

        def qb(deltas):
            return head_loss(None, model.head_qb, deltas, head_targets)

        def total(**reuse):
            # a term given is only added, not recomputed
            return head_terms(None, stage, *heads, loss_cfg, reuse=reuse)

        cached = deltas()
        terms = total(qb=qb(cached))[1]
        by_part = {
            "head_ql": lambda: total(qb=terms["qb"])[0],
            "head_qb": lambda: total(ql=terms["ql"], qb=qb(cached))[0],
            "block": lambda: total(ql=terms["ql"], qb=qb(deltas()))[0],
        }
        return {name: by_part[part] for name in params if (part := name.split("/")[0]) in by_part}

    return fn, params, probes


def total_loss_gradcheck(seed: int, tol: float = 1e-4) -> dm.GradCheckReport:
    """Finite-difference check of the complete objective on a micro batch."""
    fn, params, probes = make_micro_objective(seed)
    report = dm.grad_check(fn, params, seed=seed, tol=tol, max_coords=MICRO_MAX_COORDS, probes=probes)
    return replace(report, worst_case="total_loss")


def full_suite(seed: int, tol: float = 1e-4) -> dm.GradCheckReport:
    """The worse of the kernel and full-objective checks; the kernels win a tie."""
    kernels = kernel_gradchecks(seed, tol=tol)
    end_to_end = total_loss_gradcheck(seed, tol=tol)
    return kernels if kernels.max_relative_error >= end_to_end.max_relative_error else end_to_end
