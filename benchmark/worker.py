"""One benchmark process: either writes a workload's inputs (``setup``) or
runs and checks its passes (``measure``).

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count pinned. Timings here wrap calls into xmcreg's
public functions; nothing inside xmcreg is timed. The calibration blocks
that scale them are taken by run.py on request (``--calibration-fds``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from xmcreg import data_io, encoder, evaluation, trainer, verify
from xmcreg.mining import Dataset

import calibrate
import checks
import layers
import workloads
from spans import Tracer


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def eval_path(ckpt_path: Path, data_dir: Path, out_dir: Path) -> dict:
    """What ``xmcreg eval`` does: load, encode without a tape, retrieve,
    evaluate, write the scores and the report."""
    ckpt = trainer.Checkpoint.load(ckpt_path)
    dataset = data_io.load_dataset(data_dir)
    model = trainer.model_from_tensors(ckpt.tensors)
    q_embs = encoder.encode_matrix(model.enc, [q.text for q in dataset.queries])
    l_embs = encoder.encode_matrix(model.enc, [l.text for l in dataset.labels])
    preds = evaluation.retrieve_top1(
        q_embs, l_embs,
        [q.id for q in dataset.queries], [l.id for l in dataset.labels],
        [q.positives for q in dataset.queries],
    )
    report = evaluation.evaluate(preds, workloads.TARGET_PRECISION)
    evaluation.write_scores(out_dir / "scores.tsv", preds)
    evaluation.write_report(out_dir / "report.json", report)
    return {"dataset": dataset, "q_embs": q_embs, "l_embs": l_embs, "preds": preds, "report": report,
            "report_text": (out_dir / "report.json").read_text(encoding="utf-8")}


def check_eval(ledger: Ledger, ev: dict, seed: int) -> None:
    ds = ev["dataset"]
    ledger.check("threshold precision", checks.threshold_precision(ev["report"], ev["preds"]))
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(ds.queries), size=min(workloads.CHECK_SAMPLE, len(ds.queries)), replace=False)
    ledger.check("top-1 vs brute force", checks.top1_matches_bruteforce(
        ev["preds"], ev["q_embs"], ev["l_embs"], [l.id for l in ds.labels],
        [q.positives for q in ds.queries], sample))


def run_pass(name: str, seed: int, train_set: Dataset, data_dir: Path, out_dir: Path,
             ledger: Ledger, clock: calibrate.Clock, tracer: Tracer | None) -> dict:
    """Train, round-trip the checkpoint, evaluate it; check every output."""
    def phase(p):
        if tracer is not None:
            tracer.set_phase(p)

    config = trainer.TrainConfig(**workloads.config_fields(name, seed))
    phase("train")
    (ckpt, log), train_raw, train_s = clock.time(trainer.train, train_set, config)
    ledger.check("losses finite", checks.losses_finite(log))

    phase("checkpoint")
    ckpt_path = out_dir / "checkpoint.bin"

    def round_trip():
        ckpt.save(ckpt_path)
        return trainer.Checkpoint.load(ckpt_path)

    loaded, _, ckpt_s = clock.time(round_trip)
    ledger.check("checkpoint round trip", checks.roundtrip(ckpt, loaded))
    ckpt_bytes = sum(p.stat().st_size for p in out_dir.glob("checkpoint.bin*"))

    phase("eval")
    ev, eval_raw, eval_s = clock.time(eval_path, ckpt_path, data_dir / "test", out_dir)
    phase(None)
    check_eval(ledger, ev, seed)

    train_queries = config.epochs * len(train_set.queries)
    return {
        "train_queries_per_s": train_queries / train_s,
        "eval_queries_per_s": len(ev["preds"]) / eval_s,
        "raw_train_queries_per_s": train_queries / train_raw,
        "raw_eval_queries_per_s": len(ev["preds"]) / eval_raw,
        "pass_s": train_s + ckpt_s + eval_s,
        "ckpt_bytes": ckpt_bytes,
        "report": ev["report"],
        "fingerprint": checks.fingerprint(ckpt.tensors, ev["report_text"]),
    }


def gradcheck(ledger: Ledger, clock: calibrate.Clock, tracer: Tracer | None, reps: int) -> tuple[float, float]:
    """Median raw and scaled seconds of ``verify.full_suite`` at the fixed
    gradcheck seed, over ``reps`` runs of it."""
    if tracer is not None:
        tracer.set_phase("gradcheck")
    raw_times, times = [], []
    for _ in range(reps):
        report, raw, scaled = clock.time(verify.full_suite, workloads.GRADCHECK_SEED)
        raw_times.append(raw)
        times.append(scaled)
        ledger.check("gradcheck", checks.gradcheck_passed(report, workloads.GRADCHECK_SEED))
    if tracer is not None:
        tracer.set_phase(None)
    return statistics.median(raw_times), statistics.median(times)


def parent_blocks(fds: str):
    """Calibration blocks taken by run.py while this process waits: one
    byte asks over the first pipe, and the (closing, opening) readings
    come back as one JSON line on the second."""
    request, response = (int(fd) for fd in fds.split(","))
    reader = os.fdopen(response, "r", encoding="utf-8")

    def blocks() -> tuple[float, float]:
        os.write(request, b"c")
        closing, opening = json.loads(reader.readline())
        return closing, opening

    return blocks


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool,
            blocks=calibrate.local_blocks) -> dict:
    ledger = Ledger()
    data_dir = work / "data"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set = data_io.load_dataset(data_dir / "train")
    tracer = Tracer() if trace else None
    clock = calibrate.Clock(blocks)
    start = time.perf_counter()
    passes = []
    if trace:
        # a warm-up pass, then one untraced and one traced pass: the last
        # two differ by the tracing overhead, and all three fingerprints
        # must agree
        for _ in range(2):
            passes.append(run_pass(name, seed, train_set, data_dir, out_dir, ledger, clock, None))
        tracer.install(layers.OBSERVERS)
        try:
            tracer.set_phase("data")
            trace_data = work / "trace_data"
            data_io.generate(data_io.SyntheticSpec(**workloads.spec_fields(name, seed, tiny)), trace_data)
            data_io.load_dataset(trace_data / "train")
            data_io.load_dataset(trace_data / "test")
            passes.append(run_pass(name, seed, train_set, data_dir, out_dir, ledger, clock, tracer))
            raw_gradcheck_s, gradcheck_s = gradcheck(ledger, clock, tracer, 1)
        finally:
            tracer.uninstall()
    else:
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            passes.append(run_pass(name, seed, train_set, data_dir, out_dir, ledger, clock, None))
        raw_gradcheck_s, gradcheck_s = gradcheck(ledger, clock, None, workloads.GRADCHECK_REPS)
    ledger.check("same-seed determinism", checks.same_fingerprint([p["fingerprint"] for p in passes]))

    report = passes[0]["report"]
    if trace:
        metrics = layers.metrics(tracer, untraced_s=passes[1]["pass_s"], traced_s=passes[2]["pass_s"],
                                 ckpt_bytes=passes[2]["ckpt_bytes"])
        metrics["evaluation.c_at_1"] = report.c_at_1
        tracer.write(work / "spans.jsonl.gz")
    else:
        metrics = {key: statistics.median(p[key] for p in passes) for key in ("train_queries_per_s", "eval_queries_per_s")}
        metrics.update(gradcheck_s=gradcheck_s, p_at_1=report.p_at_1, hist_overlap=report.histogram.overlap)
    also = {key: statistics.median(p[key] for p in passes) for key in ("raw_train_queries_per_s", "raw_eval_queries_per_s")}
    also.update(raw_gradcheck_s=raw_gradcheck_s, c_at_1=report.c_at_1)
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors[:20],
        "passes": len(passes),
        "fingerprint": passes[0]["fingerprint"],
        "environment": environment(),
        "also": also,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--calibration-fds", help="request,response pipe fds for calibration blocks from run.py")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        spec = data_io.SyntheticSpec(**workloads.spec_fields(args.workload, args.seed, args.tiny))
        data_io.generate(spec, args.work / "data")
        return 0
    blocks = parent_blocks(args.calibration_fds) if args.calibration_fds else calibrate.local_blocks
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.work, args.tiny, blocks)
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
