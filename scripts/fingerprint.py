#!/usr/bin/env python3
"""Train and evaluate one run config with one BLAS thread and print the
sha256 of every output file.

    python3 scripts/fingerprint.py --config run.cfg --data data/

`--data` is a dataset directory with `train/` and `test/` splits (as
written by `xmcreg generate-data`). The run trains on `train/`, then
evaluates the checkpoint on `test/`, and prints one `sha256  file` line
for `checkpoint.bin`, its `.config.json` sidecar, `train_log.jsonl`,
`report.json` and `scores.tsv` to standard output (the commands' own
messages go to standard error). Two checkouts that print the same lines
for the same config and data produce byte-identical runs. The thread
count is pinned before numpy loads, because OpenBLAS rounds some
products differently with a different number of threads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# the checkout's own source, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xmcreg.cli import run  # noqa: E402

OUTPUTS = ("checkpoint.bin", "checkpoint.bin.config.json", "train_log.jsonl", "report.json", "scores.tsv")


def fingerprint(config: str, data: Path, out: Path) -> dict[str, str]:
    """Run train and eval into ``out``; return sha256 by output file name."""
    for argv in (
        ["train", "--config", config, "--data", str(data / "train"), "--out", str(out)],
        ["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data / "test"),
         "--report", str(out / "report.json"), "--scores", str(out / "scores.tsv")],
    ):
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the hashes
            code = run(argv)
        if code != 0:
            raise SystemExit(f"xmcreg {argv[0]} failed")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="key = value file with TrainConfig fields")
    parser.add_argument("--data", required=True, type=Path, help="dataset directory with train/ and test/")
    parser.add_argument("--out", type=Path, help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args()

    if args.out is not None:
        hashes = fingerprint(args.config, args.data, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = fingerprint(args.config, args.data, Path(tmp))
    for name, digest in hashes.items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
