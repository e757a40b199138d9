"""Span tracing around xmcreg's public functions, installed from outside.

While installed, every public function of each layer module under
``src/xmcreg/`` is replaced, in every xmcreg module that refers to it,
by a wrapper that records a span: name, start, end, parent span and
training-step id. ``GradTape.record`` is counted instead of spanned, and
the per-trigram hash and the diffmath kernels are left alone: they run
tens of thousands of times per step, and a span around each would
multiply the time being measured. Spans stay in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("encoder", "losses", "pair_reps", "diffmath", "trainer", "mining", "evaluation", "data_io", "verify")

# hot leaves measured as tape-node counts or not at all (see module docstring)
_UNWRAPPED = {"encoder.fnv1a64"}

# name, start, end, parent index, step id, phase
NAME, START, END, PARENT, STEP, PHASE = range(6)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
            yield attr, obj


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.observed: defaultdict = defaultdict(list)
        self.phase: str | None = None
        self._stack: list[int] = []
        self._step: int | None = None
        self._steps = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name == "losses.total_loss" and parent is not None and self.spans[parent][NAME] == "trainer.train":
            self._steps += 1
            self._step = self._steps
        self.spans.append([name, time.perf_counter(), None, parent, self._step, self.phase])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[NAME] == "trainer.update_step" and span[PARENT] is not None \
                and self.spans[span[PARENT]][NAME] == "trainer.train":
            self._step = None

    def set_phase(self, phase: str | None) -> None:
        self.phase = phase

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                tracer.observed[(tracer.phase, name)].append(observe(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, observers: dict | None = None) -> None:
        """Wrap every public layer function; ``observers`` maps a span name
        to ``f(args, kwargs, result)`` whose value is kept per call."""
        observers = observers or {}
        modules = {layer: importlib.import_module(f"xmcreg.{layer}") for layer in LAYERS}
        diffmath, losses, trainer = modules["diffmath"], modules["losses"], modules["trainer"]
        replacements = {}
        for layer, module in modules.items():
            if layer == "diffmath":
                # kernels are counted through GradTape.record below
                funcs = [("grad_check", diffmath.grad_check)]
            else:
                funcs = list(_public_functions(module))
            for attr, fn in funcs:
                name = f"{layer}.{attr}"
                if name not in _UNWRAPPED:
                    replacements[fn] = self._wrap(name, fn, observers.get(name))
        xmcreg_modules = [m for key, m in list(sys.modules.items()) if key == "xmcreg" or key.startswith("xmcreg.")]
        for module in xmcreg_modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(module, attr, replacements[value])

        self._patch(diffmath.GradTape, "record", self._counter("diffmath.tape_nodes", diffmath.GradTape.record))
        self._patch(diffmath.GradTape, "backward", self._wrap("diffmath.backward", diffmath.GradTape.backward))
        self._patch(losses.MlpHead, "forward", self._wrap("losses.MlpHead.forward", losses.MlpHead.forward))
        self._patch(trainer.Checkpoint, "save", self._wrap("trainer.Checkpoint.save", trainer.Checkpoint.save))
        load = trainer.Checkpoint.__dict__["load"].__func__
        self._patch(trainer.Checkpoint, "load", classmethod(self._wrap("trainer.Checkpoint.load", load)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        """Gzipped JSON lines: the spans, then one summary per span name."""
        own = self.self_times()
        summary: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "step": s[STEP], "phase": s[PHASE]}) + "\n")
                agg = summary[s[NAME]]
                agg[0] += 1
                agg[1] += s[END] - s[START]
                agg[2] += own[i]
            for name, (calls, total, self_s) in sorted(summary.items(), key=lambda kv: -kv[1][2]):
                f.write(json.dumps({"summary": name, "calls": calls, "total_s": total, "self_s": self_s}) + "\n")
