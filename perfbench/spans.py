"""Spans around the program's public functions, installed from outside.

The tracer replaces each public function of the seven layer modules, and
the public methods of ``DenoiserModel``, ``Adam`` and ``Corpus``, with a
wrapper that times the call, and rebinds every module-level name that
refers to the original, so calls through ``from .x import y`` are caught
too.  The autodiff primitives (``add``, ``matmul``, ...) run about 130
times per forward pass and are counted through ``Tensor`` construction
rather than timed, because a span each would cost more than the ops.

A span's self time is its duration minus that of the spans it encloses,
so the self times plus the untraced remainder add up to the traced wall
time.  Spans are aggregated per function in memory (calls, inclusive and
self seconds, tensors built); only ``denoise_loop`` keeps every duration,
for its percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("world", "diffusion", "edit_ops", "align", "model", "autodiff", "metrics")
TRACED_METHODS = {
    "model": {"DenoiserModel": ("forward", "predict_script")},
    "autodiff": {"Adam": ("step",)},
    "world": {"Corpus": ("content_hash",)},
}
# autodiff's public functions other than these are tape primitives
AUTODIFF_SPANS = ("backward", "zero_grads", "grad_check")
ROLLOUT = "diffusion.denoise_loop"
ROLLOUT_STEP = "model.DenoiserModel.predict_script"


class Stat:
    __slots__ = ("calls", "incl", "self_s", "tensors")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.tensors = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.wall = 0.0
        self.stats: dict[str, Stat] = {}
        self.rollout_s: list[float] = []
        self.tensors = 0
        self.step_len_sum = 0
        self._stack: list[list[float]] = []

    @contextmanager
    def window(self):
        """Trace the calls made inside the block; its duration is wall time."""
        self.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - t0
            self.active = False

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        samples = self.rollout_s if name == ROLLOUT else None
        is_step = name == ROLLOUT_STEP
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_step:
                tracer.step_len_sum += len(args[2])  # (self, condition, caption, t)
            frame = [0.0]
            stack.append(frame)
            tensors0 = tracer.tensors
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.incl += dur
                stat.self_s += dur - frame[0]
                stat.tensors += tracer.tensors - tensors0
                if samples is not None:
                    samples.append(dur)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap the layers' public functions; call once, after every editdiff
        module the run uses is imported, so that all their names are rebound."""
        import editdiff

        modules = {layer: importlib.import_module(f"editdiff.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and (layer != "autodiff" or attr in AUTODIFF_SPANS)):
                    replaced[fn] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                                  vars(cls)[meth]))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith(editdiff.__name__):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in replaced:
                        setattr(mod, attr, replaced[value])

        tensor = modules["autodiff"].Tensor
        init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        tensor.__init__ = counting_init

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def per_call(self, name: str, scale: float) -> float:
        s = self.stat(name)
        return s.incl / s.calls * scale if s.calls else 0.0

    def self_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.stats.items():
            out[name.split(".", 1)[0]] += s.self_s
        return out

    def dump(self) -> dict:
        return {
            "wall_s": self.wall,
            "spans": {name: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self_s,
                             "tensors": s.tensors}
                      for name, s in sorted(self.stats.items()) if s.calls},
            "rollout_s": self.rollout_s,
        }
