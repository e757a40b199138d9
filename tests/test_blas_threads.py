"""Retrieval and pool mining give the same bytes at any OpenBLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

# sha256 of retrieve_top1's (id, score) and ance_pool's pools over the arrays in argv[1]
SCORE = """
import hashlib, sys
import numpy as np
from xmcreg.evaluation import retrieve_top1
from xmcreg.mining import ance_pool
z = np.load(sys.argv[1])
ids, positives = z["ids"].tolist(), [frozenset({int(p)}) for p in z["positives"]]
preds = retrieve_top1(z["queries"], z["labels"], list(range(len(positives))), ids, positives)
pools = ance_pool(z["queries"], z["labels"], ids, positives, 5)
print(hashlib.sha256(repr(([(p.top1_label_id, p.score) for p in preds], pools)).encode()).hexdigest())
"""


pytestmark = [
    pytest.mark.skipif("openblas" not in BLAS["name"], reason=f"numpy's BLAS is {BLAS['name']}, not OpenBLAS"),
    pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: a second OpenBLAS thread would not split the work"),
]


def _assert_equal_at_one_and_two_threads(tmp_path, num_labels: int, sources: int) -> None:
    # 600 queries x num_labels labels, d = 8, pools of 5. The labels past the
    # last multiple of 8 repeat labels among the first ``sources``, and every
    # query is a noisy copy of one of them, so pools hold a tie between such a
    # column and an earlier one (438 of 600 at 255 labels, 98 at 4,199): a
    # score that rounds differently with another thread count moves an id or
    # a score's bits.
    rng = np.random.default_rng(0)
    last = num_labels // 8 * 8
    labels = rng.normal(size=(num_labels, 8))
    labels[last:] = labels[rng.choice(sources, size=num_labels - last, replace=False)]
    queries = labels[last + rng.integers(num_labels - last, size=600)] + 0.01 * rng.normal(size=(600, 8))
    data = tmp_path / "case.npz"
    np.savez(data, queries=queries, labels=labels, ids=np.arange(num_labels),
             positives=rng.integers(num_labels, size=600))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def digest(threads: str) -> str:
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", SCORE, str(data)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout

    assert digest("1") == digest("2"), (
        f"retrieve_top1 or ance_pool changed with the OpenBLAS thread count on {BLAS['openblas configuration']!r}; "
        "this core may need another mining.SCORE_PAD_COLUMNS"
    )


def test_255_label_scores_and_pools_equal_at_one_and_two_threads(tmp_path):
    # CI's 255-label ANCE shape, one column tile: 7 labels past 248 repeat earlier ones
    _assert_equal_at_one_and_two_threads(tmp_path, 255, 248)


def test_4199_label_scores_and_pools_equal_at_one_and_two_threads(tmp_path):
    # two default column tiles (columns 0-2727 and 2728-4198): the 7 labels
    # past 4192 repeat labels of the first tile, so every tie crosses the
    # boundary and the pools' per-tile cut decides it
    _assert_equal_at_one_and_two_threads(tmp_path, 4199, 2728)
