#!/usr/bin/env python3
"""xmcreg benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload train-reg --seed 1 --seconds 10 --trace 0

Set-up (writing the workload's dataset) runs in fresh processes and is
timed from here, several times: once before the measured run and the
rest spread over it, while the measured worker waits between two of its
timed calls. The measured run is one more process whose peak RSS is
read from here. Timings are scaled to a reference machine speed by
calibration blocks taken here, around each timed call (see
calibrate.py); the raw ones are printed too. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``, named and with the units given in ``BENCHMARK.json``). Work files go under ``.bench_work/`` and are removed at
the end, except the spans file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
# a run is expected to finish within 180 s
BUDGET_S = 170.0

class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one thread of work per process; BLAS may not add its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float, serve=None) -> int:
    """Run worker.py to completion; returns its peak RSS in KiB.

    With ``serve``, the worker may ask for calibration blocks over a pair
    of pipes: it writes one byte and waits, and ``serve()`` runs here
    and its result goes back as one JSON line. The worker is killed and
    reaped if the budget runs out or the caller is interrupted."""
    pipes, pass_fds = [], ()
    if serve is not None:
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        pass_fds = (req_w, resp_r)
        args = [*args, "--calibration-fds", f"{req_w},{resp_r}"]
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env, stdout=sys.stderr,
                            pass_fds=pass_fds)
    for fd in pass_fds:
        os.close(fd)
    if serve is not None:
        pipes = [req_r, resp_w]
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                raise ChildFailed(f"worker {args[0]} exceeded the time budget")
            if serve is not None and select.select([req_r], [], [], 0.01)[0]:
                if os.read(req_r, 1):
                    os.write(resp_w, json.dumps(serve()).encode() + b"\n")
                else:  # the worker closed its end
                    serve = None
            elif serve is None:
                time.sleep(0.01)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        for fd in pipes:
            os.close(fd)
        if not pid:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args[0]} exited with {proc.returncode}")
    return usage.ru_maxrss


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    root = Path.cwd()
    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setup_reps = 1 if args.trace else workloads.SETUP_REPS
    setup_times, raw_setup_times, digests = [], [], []
    clock = calibrate.Clock()

    def set_up(target: Path) -> None:
        """One timed set-up into ``target``/data; its files are kept for comparison."""
        shutil.rmtree(target / "data", ignore_errors=True)
        _, raw, scaled = clock.time(run_child, ["setup", *common, "--work", str(target)], env, deadline)
        setup_times.append(scaled)
        raw_setup_times.append(raw)
        digests.append(tree_digest(target / "data"))

    def serve() -> tuple[float, float]:
        # the worker waits while this runs: close its timed call, and
        # spread the remaining set-ups over the run, between its calls
        closing = clock.mark()
        if len(setup_times) < setup_reps:
            set_up(work / "rep")
        return closing, clock.opening

    try:
        set_up(work)
        maxrss_kib = run_child(["measure", *common, "--work", str(work), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline, serve)
        while len(setup_times) < setup_reps:
            set_up(work / "rep")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            traces = root / ".bench_work" / "traces"
            traces.mkdir(exist_ok=True)
            spans_path = traces / f"{args.workload}-seed{args.seed}.jsonl.gz"
            os.replace(work / "spans.jsonl.gz", spans_path)
            result["spans_file"] = str(spans_path.relative_to(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # setup determinism: every setup of the same seed writes the same bytes
    result["attempted"] += 1
    if len(set(digests)) != 1:
        result["failed"] += 1
        result["errors"].append("setup: dataset files differ between set-ups of the same seed")
    result["also"].update(raw_setup_s=statistics.median(raw_setup_times), setup_reps=len(setup_times),
                          calibration_s=statistics.median(clock.readings))
    if not args.trace:
        result["metrics"] = {"setup_s": statistics.median(setup_times), "peak_rss_mb": maxrss_kib / 1024.0,
                             **result["metrics"]}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few dozen texts per workload, for smoke tests")
    args = parser.parse_args(argv)
    # let `finally` blocks stop the worker when the benchmark is terminated
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (Path.cwd() / "src" / "xmcreg" / "__init__.py").is_file():
        print("error: run from the root of an xmcreg checkout (src/xmcreg not found)", file=sys.stderr)
        return 2
    # the worker, its set-ups and the calibration blocks share one CPU, so
    # the blocks see the speed of the CPU the work runs on; children
    # inherit the affinity
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = run(args)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {result['passes']} passes, "
          f"fingerprint {result['fingerprint']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    if result.get("spans_file"):
        print(f"spans {result['spans_file']}")
    print("unbounded " + json.dumps(result["also"], sort_keys=True))
    for err in result["errors"]:
        print(f"FAILED {err}")
    declared = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != result["metrics"].keys():
        print(f"error: metrics differ from BENCHMARK.json: {sorted(units.keys() ^ result['metrics'].keys())}",
              file=sys.stderr)
        return 2
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name} {value} {units[name]}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
