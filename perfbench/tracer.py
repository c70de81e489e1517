"""In-process span recorder for a traced ``lula-lab`` command.

Loaded only by ``launch.py --trace``. It wraps the public functions listed
in :data:`TARGETS` from outside the package: every ``lula_lab`` module
namespace that bound the original function object gets the wrapper, so
direct imports such as ``from .laplace import fit_curvature`` in ``cli`` are
covered. Per-element helpers (``apply_activation`` and the like) are left
alone; they run hundreds of thousands of times. Spans stay in memory and are
written as JSON lines when the command ends. Span names are
``<module>.<function>``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# module -> public functions to time. "Class.method" names wrap a method.
TARGETS = {
    "cli": ["cmd_train", "cmd_laplace", "cmd_lula", "cmd_eval", "cmd_demo_toy"],
    "config": ["load_config"],
    "data": ["load_csv"],
    "training": ["train_map"],
    "network": ["forward", "backward", "output_jacobian", "save", "load"],
    "laplace": [
        "fit_curvature",
        "build_posterior",
        "LaplacePosterior.sample",
        "mc_predict",
        "linearized_variance_batch",
        "tune_prior_precision",
    ],
    "lula": ["train_lula", "objective_gradient", "lula_objective"],
    "numerics": ["cholesky_psd", "inverse_cholesky_factor"],
    "metrics": ["auroc"],
}


class Tracer:
    """Spans of one process: ``[name, start, end, id, parent, attrs]``."""

    def __init__(self, run_id: str):
        self.run = run_id
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.missing: list[str] = []
        self._next_id = 1

    def add(self, name: str, start: float, end: float, attrs=None) -> None:
        parent = self.stack[-1][3] if self.stack else None
        self.spans.append([name, start, end, self._next_id, parent, attrs])
        self._next_id += 1

    def wrap(self, name: str, fn, attrs_of=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._next_id, stack[-1][3] if stack else None, None]
            self._next_id += 1
            stack.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                spans.append(record)
            if attrs_of is not None:
                extra = attrs_of(args, kwargs, result)
                record[5] = {**(record[5] or {}), **extra}
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, sid, parent, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "id": sid,
                       "parent": parent, "run": self.run}
                if attrs:
                    row["attrs"] = attrs
                handle.write(json.dumps(row) + "\n")
            if self.missing:
                handle.write(json.dumps({"missing": self.missing, "run": self.run}) + "\n")


# ---------------------------------------------------------------------------
# counters derived from arguments and results (computed outside the span)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _curvature_flops(fn):
    """Floating-point operations of the curvature products, from shapes."""

    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        net, kind, subset = a["net"], a["kind"], a["subset"]
        n = a["features"].shape[0]
        k = net.output_dim
        if subset == "last_layer":
            f = net.specs[-1].in_dim + 1
            per_example = {
                "kfac_last_layer": 2 * f * f + k * k,
                "full_ggn": 2 * k * k * f * f,
            }.get(kind, 2 * k * f)
        else:
            d = net.num_params
            per_example = (
                2 * d * k * k + 2 * k * d * d + d * d
                if kind == "full_ggn"
                else 2 * d * k * k + 2 * d * k
            )
        return {"flops": float(n * per_example)}

    return attrs


def _mc_points(fn):
    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        x, cfg = a["x"], a["cfg"]
        points = x.shape[0] if getattr(x, "ndim", 1) > 1 else 1
        samples = cfg.sample_count if cfg.method == "mc" else 1
        return {"point_samples": float(points * samples)}

    return attrs


def _tune_counts(default_grid):
    def make(fn):
        def attrs(args, kwargs, result):
            a = _bound(fn, args, kwargs)
            grid = list(default_grid if a["grid"] is None else a["grid"])
            best, scores = result
            edge = len(grid) > 1 and best in (min(grid), max(grid))
            return {"tried": float(len(grid)), "scored": float(len(scores)),
                    "edge": float(edge), "lambda": float(best)}

        return attrs

    return make


def _lula_history(fn):
    def attrs(args, kwargs, result):
        history = result[1]
        delta = float(history[-1] - history[0]) if history else 0.0
        return {"epochs": float(len(history)), "delta": delta}

    return attrs


def install(tracer: Tracer) -> None:
    """Wrap every target in every ``lula_lab`` namespace that bound it."""
    import numpy as np

    importlib.import_module("lula_lab.cli")
    laplace = importlib.import_module("lula_lab.laplace")
    modules = [m for n, m in list(sys.modules.items())
               if n == "lula_lab" or n.startswith("lula_lab.")]
    attr_hooks = {
        "laplace.fit_curvature": _curvature_flops,
        "laplace.mc_predict": _mc_points,
        "laplace.tune_prior_precision": _tune_counts(
            getattr(laplace, "DEFAULT_LAMBDA_GRID", ())
        ),
        "lula.train_lula": _lula_history,
    }
    for module_name, names in TARGETS.items():
        module = importlib.import_module(f"lula_lab.{module_name}")
        for qualname in names:
            span_name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                tracer.missing.append(span_name)
                continue
            hook = attr_hooks.get(span_name)
            wrapped = tracer.wrap(span_name, original, hook(original) if hook else None)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # Count Cholesky attempts (jitter-ladder retries) inside cholesky_psd.
    raw_cholesky = np.linalg.cholesky
    stack = tracer.stack

    @functools.wraps(raw_cholesky)
    def counting_cholesky(*args, **kwargs):
        if stack and stack[-1][0] == "numerics.cholesky_psd":
            attrs = stack[-1][5] = stack[-1][5] or {}
            attrs["attempts"] = attrs.get("attempts", 0.0) + 1.0
        return raw_cholesky(*args, **kwargs)

    np.linalg.cholesky = counting_cholesky
