#!/usr/bin/env python3
"""Check that runs are byte-reproducible: the same seed, data and config
give the same files in any process, label file order, BLAS thread count
and hash seed. It takes no arguments:

    python3 scripts/determinism.py

Each generate-data, train, eval and scripts/fingerprint.py call runs in a
fresh process on this checkout's src/. Each case prints the sha256 of its
first file; at the first file that differs the script exits 1, naming it.

- Two runs of each config, fingerprinted on 40 labels: cluster; ance,
  which refreshes its hardest-negative pools every epoch; ance2, every
  second epoch, so its second epoch trains on kept pools; beta1 = 0, where
  head_ql gets no gradient but the encoder and head_qb around it do.
  Training holds the 1,024-row bucket table in first-use order, and Adam
  updates the prefix of the rows read so far: after the 30 steps of
  these runs it holds 59% of the table (cluster and beta1 = 0) or 60%
  (ance and ance2). ance's second refresh reads the reordered table.
- Two runs of ance on 255 labels, whose prefix grows from 30% of the
  table after the first step to 91% after the 300th.
- Label order: cluster and ance on 255 labels, and ance on 4,200 (two
  column tiles, so pools are cut at each), fingerprint the same on a copy
  with shuffled labels.jsonl files; their prefixes end at 91% of the
  table on 255 labels and 80% on 4,200. Scores take label rows in id order,
  zero-padded to a multiple of 8, so each passes the same OpenBLAS kernel
  columns whatever the file order.
- Threads (skipped, with the reason, where tests/test_blas_threads.py is):
  cluster and ance train on 255 labels to the same files at 1 and 2 BLAS
  threads, a probe, as the encoder's products are not padded; the ance run
  evaluates to the same report and scores at 1 and 2 threads on the
  ordered and the shuffled test split (unpadded, Haswell kernels rounded
  the last 7 of 255 columns differently at 2 threads).
- Spaced records: a test split with CRLF endings, a blank line before and
  two spaces in front of each record, which json.loads decodes in place
  of the C scanner, evaluates to the same report and scores.
- Title cap: generate-data writes the same files under PYTHONHASHSEED 1
  and 2 at 1,024 labels over 2 families, where labels retry most draws.
"""

import hashlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLI = ("-m", "xmcreg.cli")
TINY = "epochs = 2\nbatch_size = 4\nk = 3\ndim = 8\ndim_hidden = 16\nnum_buckets = 1024\n"
ANCE = TINY + "sampler = ance\npool_size = 5\n"
CONFIGS = {"cluster": TINY, "beta1": TINY + "beta1 = 0\n", "ance": ANCE + "refresh_cadence = 1\n",
           "ance2": ANCE + "refresh_cadence = 2\ndropout = 0.3\n"}
QUERIES = {40: 60, 255: 600, 4200: 200}  # the query count of the seed-3 dataset of each label count
BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]


class Skip(Exception):
    """Why a case cannot show anything on this host."""


def run(out: Path, *args, threads="1", **env) -> dict:
    """Run ``python args`` in a fresh process at ``threads`` BLAS threads,
    unless ``out`` exists; the sha256 of each file under ``out``, by path."""
    if not out.exists():
        out.mkdir(parents=True)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, **env})
        if done.returncode:
            sys.exit(f"python {' '.join(map(str, args))} failed:\n{done.stderr}")
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def thread_counts() -> tuple:
    """The BLAS thread counts to compare, unless a second thread would show nothing here."""
    if "openblas" not in BLAS["name"]:
        raise Skip(f"numpy's BLAS is {BLAS['name']}, not OpenBLAS")
    if (os.cpu_count() or 1) < 2:
        raise Skip("one CPU: a second OpenBLAS thread would not split the work")
    return ("1", "2")


def dataset(work: Path, labels: int, variant: str = "") -> Path:
    """The seed-3 dataset of ``labels`` labels, or its copy with
    ``shuffled`` labels.jsonl files or ``spaced`` test records."""
    data = work / str(labels)
    run(data, *CLI, "generate-data", "--out", data, "--num-labels", labels, "--num-queries", QUERIES[labels], "--seed", 3)
    if not variant:
        return data
    out = work / f"{labels}-{variant}"
    if not out.exists():
        shutil.copytree(data, out)
        for path in out.glob("*/labels.jsonl" if variant == "shuffled" else "test/*.jsonl"):
            rows = path.read_bytes().splitlines(keepends=True)
            if variant == "shuffled":
                random.Random(0).shuffle(rows)
            else:  # CRLF endings, a blank line before and two spaces in front of each record
                rows = [b"\r\n  " + row.rstrip(b"\n") + b"\r\n" for row in rows]
            path.write_bytes(b"".join(rows))
    return out


def config(work: Path, name: str) -> Path:
    (work / f"{name}.cfg").write_text(CONFIGS[name])
    return work / f"{name}.cfg"


def fingerprint(work: Path, name: str, data: Path, tag: str = "") -> dict:
    out = work / f"{name}-{data.name}{tag}"
    return run(out, ROOT / "scripts" / "fingerprint.py", "--config", config(work, name), "--data", data, "--out", out)


def trained(work: Path, name: str, threads: str) -> dict:
    """The files of config ``name`` trained on 255 labels at ``threads`` BLAS threads."""
    out = work / f"{name}-trained-{threads}"
    return run(out, *CLI, "train", "--config", config(work, name), "--data", dataset(work, 255) / "train",
               "--out", out, threads=threads)


def evaluated(work: Path, variant: str, threads: str) -> dict:
    """The report and scores of ance trained at 1 thread, on a 255-label test split."""
    trained(work, "ance", "1")  # into work / "ance-trained-1"
    out = work / f"eval-{variant}-{threads}"
    return run(out, *CLI, "eval", "--checkpoint", work / "ance-trained-1" / "checkpoint.bin",
               "--data", dataset(work, 255, variant) / "test", "--report", out / "report.json",
               "--scores", out / "scores.tsv", threads=threads)


def two_runs(work: Path, name: str, labels: int = 40) -> dict:
    return {label: fingerprint(work, name, dataset(work, labels), f"-{label}") for label in ("a", "b")}


def label_order(work: Path, name: str, labels: int) -> dict:
    return {v or "ordered": fingerprint(work, name, dataset(work, labels, v)) for v in ("", "shuffled")}


def training_threads(work: Path, name: str) -> dict:
    return {f"{t} threads": trained(work, name, t) for t in thread_counts()}


def eval_threads(work: Path) -> dict:
    return {f"{v or 'ordered'} at {t} threads": evaluated(work, v, t)
            for v in ("", "shuffled") for t in thread_counts()}


def spaced_records(work: Path) -> dict:
    return {v or "plain": evaluated(work, v, "1") for v in ("", "spaced")}


def title_cap(work: Path) -> dict:
    spec = work / "cap.cfg"
    spec.write_text("num_labels = 1024\nfamilies = 2\nnum_train_queries = 300\nnum_test_queries = 100\nseed = 5\n")
    return {f"PYTHONHASHSEED={seed}": run(work / f"cap-{seed}", *CLI, "generate-data", "--spec", spec,
                                          "--out", work / f"cap-{seed}", PYTHONHASHSEED=seed) for seed in ("1", "2")}


# each case's runs: run name -> sha256 by file
CASES = {
    **{f"{name}, two runs": partial(two_runs, name=name) for name in CONFIGS},
    "ance, two runs on 255 labels": partial(two_runs, name="ance", labels=255),
    "cluster, 255 labels ordered and shuffled": partial(label_order, name="cluster", labels=255),
    "ance, 255 labels ordered and shuffled": partial(label_order, name="ance", labels=255),
    "ance, 4,200 labels ordered and shuffled": partial(label_order, name="ance", labels=4200),
    "cluster, training at 1 and 2 threads": partial(training_threads, name="cluster"),
    "ance, training at 1 and 2 threads": partial(training_threads, name="ance"),
    "ance, eval at 1 and 2 threads on ordered and shuffled labels": eval_threads,
    "ance, eval of spaced records": spaced_records,
    "title cap, PYTHONHASHSEED 1 and 2": title_cap,
}


def check(case: str, work: Path) -> str:
    """Run ``case`` in ``work``; its line names its first file and hash, or
    the script exits 1 naming the first file its runs hash differently."""
    try:
        (first, expected), *others = CASES[case](work).items()
    except Skip as reason:
        return f"{case}: skipped, {reason}"
    for name, digest in expected.items():
        for other, got in others:
            if got.get(name) != digest:
                sys.exit(f"{case}: FAIL {name} differs: {digest[:12]} in {first}, {got.get(name, '-')[:12]} in {other}")
    name, digest = next(iter(expected.items()))
    return f"{case}: {digest}  {name}"


def main() -> None:
    if sys.argv[1:]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        for case in CASES:
            print(check(case, Path(work)), flush=True)


if __name__ == "__main__":
    main()
