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


@pytest.mark.skipif("openblas" not in BLAS["name"], reason=f"numpy's BLAS is {BLAS['name']}, not OpenBLAS")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: a second OpenBLAS thread would not split the work")
def test_255_label_scores_and_pools_equal_at_one_and_two_threads(tmp_path):
    # CI's 255-label ANCE shape: 600 queries x 255 labels, d = 8, pools of 5.
    # The 7 labels past the last multiple of 8 repeat earlier labels, and
    # every query is a noisy copy of one of them, so each top-1 and pool is
    # a tie between such a column and an earlier one: a score that rounds
    # differently with another thread count moves an id or a score's bits.
    rng = np.random.default_rng(0)
    labels = rng.normal(size=(255, 8))
    labels[248:] = labels[rng.choice(248, size=7, replace=False)]
    queries = labels[248 + rng.integers(7, size=600)] + 0.01 * rng.normal(size=(600, 8))
    data = tmp_path / "case.npz"
    np.savez(data, queries=queries, labels=labels, ids=np.arange(255), positives=rng.integers(255, size=600))
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
