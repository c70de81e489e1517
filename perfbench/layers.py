"""Per-layer metrics from a traced run, and what each should move.

A layer is a ``lula_lab`` module. Each metric below names, before any
measurement, the end-to-end metric and workload it is expected to move; a
layer can save at most its self-time share of ``wall_s`` because nothing
runs concurrently. ``<span>.calls`` counts calls, ``<span>.s`` is inclusive
busy seconds and ``<span>.self_s`` that time minus the time of child spans.
"""

from __future__ import annotations

# (name, unit, better, expected effect)
PER_LAYER = [
    ("cli.startup_s", "s", "lower", "wall_s on cli-mixture (four process starts)"),
    ("cli.cmd_demo_toy.s", "s", "lower", "wall_s on toy-demo"),
    ("cli.cmd_train.s", "s", "lower", "wall_s on cli-mixture"),
    ("cli.cmd_laplace.s", "s", "lower", "wall_s on cli-mixture"),
    ("cli.cmd_lula.s", "s", "lower", "wall_s on cli-mixture"),
    ("cli.cmd_eval.s", "s", "lower", "wall_s on cli-mixture and all-layers"),
    ("config.load_config.s", "s", "lower", "wall_s on cli-mixture"),
    ("data.load_csv.s", "s", "lower", "wall_s on cli-mixture"),
    ("training.train_map.calls", "count", "lower", "none: fixed by the inputs"),
    ("training.train_map.s", "s", "lower",
     "wall_s on toy-demo and cli-mixture, setup_s on all-layers"),
    ("network.forward.calls", "count", "lower", "wall_s on every workload"),
    ("network.forward.s", "s", "lower", "wall_s on every workload"),
    ("network.backward.calls", "count", "lower", "wall_s on toy-demo and cli-mixture"),
    ("network.backward.s", "s", "lower", "wall_s on toy-demo and cli-mixture"),
    ("network.output_jacobian.calls", "count", "lower", "wall_s on all-layers"),
    ("network.output_jacobian.s", "s", "lower", "wall_s on all-layers"),
    ("network.save.s", "s", "lower", "wall_s on cli-mixture"),
    ("network.load.s", "s", "lower", "wall_s on cli-mixture"),
    ("laplace.fit_curvature.calls", "count", "lower", "wall_s on all-layers"),
    ("laplace.fit_curvature.s", "s", "lower", "wall_s and peak_rss_mb on all-layers"),
    ("laplace.fit_curvature.self_s", "s", "lower", "wall_s and peak_rss_mb on all-layers"),
    ("laplace.fit_curvature.gflops_per_s", "GFLOP/s", "higher",
     "wall_s on all-layers (flops computed from shapes)"),
    ("laplace.build_posterior.calls", "count", "lower", "wall_s on cli-mixture"),
    ("laplace.build_posterior.s", "s", "lower",
     "wall_s and peak_rss_mb on all-layers, wall_s on cli-mixture"),
    ("laplace.LaplacePosterior.sample.calls", "count", "lower", "wall_s on cli-mixture"),
    ("laplace.LaplacePosterior.sample.s", "s", "lower", "wall_s on cli-mixture"),
    ("laplace.mc_predict.calls", "count", "lower", "wall_s on cli-mixture"),
    ("laplace.mc_predict.s", "s", "lower", "wall_s on cli-mixture"),
    ("laplace.mc_predict.self_s", "s", "lower", "wall_s on cli-mixture"),
    ("laplace.mc_predict.points_per_s", "1/s", "higher", "wall_s on cli-mixture"),
    ("laplace.linearized_variance_batch.calls", "count", "lower", "wall_s on toy-demo"),
    ("laplace.linearized_variance_batch.s", "s", "lower", "wall_s on toy-demo"),
    ("laplace.tune_prior_precision.s", "s", "lower", "wall_s on cli-mixture"),
    ("laplace.tune_prior_precision.candidates_tried", "count", "lower",
     "wall_s on cli-mixture"),
    ("laplace.tune_prior_precision.candidates_scored", "count", "higher",
     "none: scored over tried is the useful share"),
    ("laplace.tune_prior_precision.edge_picks", "count", "lower",
     "none: known defect, a chosen value at a grid end"),
    ("lula.train_lula.calls", "count", "lower", "wall_s on toy-demo and cli-mixture"),
    ("lula.train_lula.s", "s", "lower", "wall_s on toy-demo and cli-mixture"),
    ("lula.train_lula.self_s", "s", "lower", "wall_s on toy-demo"),
    ("lula.train_lula.epochs", "count", "lower", "wall_s on toy-demo and cli-mixture"),
    ("lula.objective_gradient.calls", "count", "lower", "wall_s on toy-demo"),
    ("lula.objective_gradient.s", "s", "lower", "wall_s on toy-demo"),
    ("lula.lula_objective.calls", "count", "lower", "wall_s on toy-demo"),
    ("lula.lula_objective.s", "s", "lower", "wall_s on toy-demo"),
    ("lula.objective_delta", "objective", "lower",
     "none: known defect, the objective history rises"),
    ("numerics.cholesky_psd.calls", "count", "lower", "wall_s on all-layers"),
    ("numerics.cholesky_psd.attempts_per_call", "count", "lower",
     "none: silent jitter-ladder retries"),
    ("numerics.inverse_cholesky_factor.s", "s", "lower", "wall_s on all-layers"),
    ("metrics.auroc.s", "s", "lower", "wall_s on cli-mixture and all-layers"),
    ("trace.overhead_share", "share", "lower", "none: cost of tracing itself"),
    ("trace.spans", "count", "lower", "none: size of the trace"),
]

_FIELDS = ("calls", "s", "self_s")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def compute(agg: dict, traced_wall: float, untraced_wall: float, span_count: int) -> dict:
    """Every PER_LAYER metric from aggregated spans; absent spans give 0."""

    def field(span: str, key: str) -> float:
        return float(agg.get(span, {}).get(key, 0.0))

    def attr(span: str, key: str) -> float:
        return float(agg.get(span, {}).get("attrs", {}).get(key, 0.0))

    special = {
        "cli.startup_s": field("cli.startup", "s"),
        "laplace.fit_curvature.gflops_per_s": _ratio(
            attr("laplace.fit_curvature", "flops") / 1e9, field("laplace.fit_curvature", "s")
        ),
        "laplace.mc_predict.points_per_s": _ratio(
            attr("laplace.mc_predict", "point_samples"), field("laplace.mc_predict", "s")
        ),
        "laplace.tune_prior_precision.candidates_tried": attr(
            "laplace.tune_prior_precision", "tried"
        ),
        "laplace.tune_prior_precision.candidates_scored": attr(
            "laplace.tune_prior_precision", "scored"
        ),
        "laplace.tune_prior_precision.edge_picks": attr("laplace.tune_prior_precision", "edge"),
        "lula.train_lula.epochs": attr("lula.train_lula", "epochs"),
        "lula.objective_delta": _ratio(
            attr("lula.train_lula", "delta"), field("lula.train_lula", "calls")
        ),
        "numerics.cholesky_psd.attempts_per_call": _ratio(
            attr("numerics.cholesky_psd", "attempts"), field("numerics.cholesky_psd", "calls")
        ),
        "trace.overhead_share": _ratio(traced_wall - untraced_wall, untraced_wall),
        "trace.spans": float(span_count),
    }
    out = {}
    for name, _, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        span, _, key = name.rpartition(".")
        if key not in _FIELDS:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = field(span, key)
    return out
