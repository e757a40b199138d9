#!/usr/bin/env python3
"""Seed-averaged comparison of the base triplet objective against the
fully regularized one (margin regularizer + both auxiliary losses).

Trains two models per seed on a synthetic catalog and reports test-set
precision@1, coverage@1 at the target precision, and the correct/incorrect
score-histogram overlap. Writes a JSON summary next to the console table.

    python3 scripts/run_directional.py --seeds 0 1 2 --out directional_results.json

--test-queries N evaluates the same checkpoints on N test queries: the
synthetic spec draws its test queries after the labels and the training
queries, so the default split of 500 is the prefix of any larger one,
and training sees the same data.

It runs from a checkout without an install, on the checkout's own source,
with one BLAS thread, pinned before numpy loads: OpenBLAS rounds some
products differently with a different number of threads, so the table is
reproducible only at a fixed count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# the checkout's own source, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xmcreg.data_io import SyntheticSpec, write_atomic  # noqa: E402
from xmcreg.experiments import directional_comparison  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--target-precision", type=float, default=0.85)
    parser.add_argument("--test-queries", type=int, help=f"test split size (default {SyntheticSpec.num_test_queries})")
    parser.add_argument("--out", default="directional_results.json")
    args = parser.parse_args()

    test_queries = args.test_queries or SyntheticSpec.num_test_queries
    # without the flag, directional_comparison builds its own default spec
    spec = {} if args.test_queries is None else {"spec": SyntheticSpec(num_test_queries=args.test_queries)}
    result = directional_comparison(seeds=tuple(args.seeds), target_precision=args.target_precision, **spec)

    header = f"{'seed':>6} {'variant':>12} {'P@1':>8} {'C@1':>8} {'overlap':>8}"
    print(header)
    print("-" * len(header))
    for seed, base, reg in zip(result.seeds, result.base, result.regularized):
        print(f"{seed:>6} {'base':>12} {base.p_at_1:>8.4f} {base.c_at_1:>8.4f} {base.overlap:>8.4f}")
        print(f"{seed:>6} {'regularized':>12} {reg.p_at_1:>8.4f} {reg.c_at_1:>8.4f} {reg.overlap:>8.4f}")
    print("-" * len(header))
    for which in ("base", "regularized"):
        print(
            f"{'mean':>6} {which:>12} "
            f"{result.mean(which, 'p_at_1'):>8.4f} "
            f"{result.mean(which, 'c_at_1'):>8.4f} "
            f"{result.mean(which, 'overlap'):>8.4f}"
        )

    payload = {
        "seeds": result.seeds,
        "target_precision": args.target_precision,
        "test_queries": test_queries,
        "base": [vars(r) for r in result.base],
        "regularized": [vars(r) for r in result.regularized],
        "mean": {
            which: {f: result.mean(which, f) for f in ("p_at_1", "c_at_1", "overlap")}
            for which in ("base", "regularized")
        },
    }
    write_atomic(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
