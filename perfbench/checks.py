"""Correctness checks on the files and output a workload leaves behind.

Every check returns a list of ``(label, ok, detail)`` tuples; the runner
counts each tuple as one attempted operation. The checks read files only,
so they can be run against fabricated outputs in the self-tests.
Values that the planned changes to LULA training and Kronecker sampling
move on purpose (confidences, variances, the tuned prior precision) are
reported, never gated.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re

PROB_TOL = 1e-9
PRESERVATION_TOL = 1e-12

MOONS_STAGES = ("map", "laplace", "lula")


def read_kv(path: str) -> dict[str, str]:
    """``key value`` lines (the first line is a format tag and is skipped)."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for line in lines[1:]:
        parts = line.split(None, 1)
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


def _as_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def check_demo(out_dir: str) -> list[tuple[str, bool, str]]:
    """demo-toy: label agreement, the six grid files, finite summary."""
    results = []
    summary_path = os.path.join(out_dir, "summary.txt")
    if not os.path.isfile(summary_path):
        return [("demo.summary", False, "summary.txt missing")]
    summary = read_kv(summary_path)
    values = {k: _as_float(v) for k, v in summary.items()}
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    results.append(("demo.summary_finite", not bad and bool(values), ", ".join(bad)))
    agreement = values.get("moons.label_agreement", math.nan)
    results.append(
        ("demo.label_agreement", agreement == 1.0, f"label_agreement {agreement}")
    )
    for stage in MOONS_STAGES:
        label = f"demo.moons_{stage}.csv"
        path = os.path.join(out_dir, f"moons_{stage}.csv")
        if not os.path.isfile(path):
            results.append((label, False, "missing"))
            continue
        header, rows = _read_csv(path)
        i0, i1 = header.index("p0"), header.index("p1")
        worst = max(
            (abs(float(r[i0]) + float(r[i1]) - 1.0) for r in rows), default=math.inf
        )
        results.append((label, worst <= PROB_TOL, f"max |p0+p1-1| {worst:.3g}"))
    for stage in MOONS_STAGES:
        label = f"demo.regression_{stage}.csv"
        path = os.path.join(out_dir, f"regression_{stage}.csv")
        if not os.path.isfile(path):
            results.append((label, False, "missing"))
            continue
        header, rows = _read_csv(path)
        cells = [float(c) for r in rows for c in r]
        stds = [
            float(r[header.index(col)])
            for r in rows
            for col in ("std_epistemic", "std_total")
        ]
        ok = bool(rows) and _finite(cells) and min(stds) >= 0.0
        results.append((label, ok, f"{len(rows)} rows"))
    return results


def check_eval_summary(path: str, prefix: str) -> list[tuple[str, bool, str]]:
    """eval: every metric finite, MMC in [0.1, 1], AUROC in [0, 1], Brier in [0, 2]."""
    label = f"{prefix}.eval_summary"
    if not os.path.isfile(path):
        return [(label, False, "eval_summary.txt missing")]
    values = {k: _as_float(v) for k, v in read_kv(path).items() if k != "model"}
    problems = [k for k, v in values.items() if not math.isfinite(v)]
    ranges = {".mmc.mean": (0.1, 1.0), ".auroc.mean": (0.0, 1.0), ".brier.mean": (0.0, 2.0)}
    for key, value in values.items():
        for suffix, (lo, hi) in ranges.items():
            if key.endswith(suffix) and not lo <= value <= hi:
                problems.append(f"{key}={value}")
    if not any(k.endswith(".mmc.mean") for k in values):
        problems.append("no mmc reported")
    return [(label, not problems, ", ".join(problems))]


_RESIDUAL = re.compile(r"max relative difference\s+(\S+)")


def check_preservation(stdout_text: str, prefix: str) -> list[tuple[str, bool, str]]:
    """The ``lula`` command's printed output-preservation residual."""
    match = _RESIDUAL.search(stdout_text)
    value = _as_float(match.group(1)) if match else math.nan
    ok = math.isfinite(value) and value <= PRESERVATION_TOL
    return [(f"{prefix}.output_preservation", ok, f"residual {value:.3g}")]


def check_argmax(report: dict, prefix: str) -> list[tuple[str, bool, str]]:
    """LULA and MAP models predict the same class on every held-out point."""
    agree, total = int(report.get("agree", -1)), int(report.get("total", 0))
    return [(f"{prefix}.argmax_agreement", total > 0 and agree == total, f"{agree}/{total}")]


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(out.items()))


def compare_digests(reference: dict, other: dict, label: str) -> list[tuple[str, bool, str]]:
    """Byte-identity of two output trees."""
    differ = sorted(
        k for k in set(reference) | set(other) if reference.get(k) != other.get(k)
    )
    return [(label, not differ, ", ".join(differ))]


# ---------------------------------------------------------------------------
# quality and known-defect values: reported, not gated


def demo_quality(out_dir: str) -> dict[str, float]:
    values = {k: _as_float(v) for k, v in read_kv(os.path.join(out_dir, "summary.txt")).items()}
    return {
        "ring_conf_drop": values["moons.laplace.ring_confidence"]
        - values["moons.lula.ring_confidence"],
        "far_std_ratio": values["regression.lula.far_field_std"]
        / values["regression.laplace.far_field_std"],
    }


def eval_quality(path: str) -> dict[str, float]:
    values = {k: _as_float(v) for k, v in read_kv(path).items() if k != "model"}
    return {
        "uniform_auroc": values["uniform.auroc.mean"],
        "test_brier": values["test.brier.mean"],
        "prior_precision": values["prior_precision"],
    }


def history_delta(path: str) -> float:
    """Last minus first value of a ``*_history.csv`` objective column."""
    _, rows = _read_csv(path)
    return float(rows[-1][1]) - float(rows[0][1])


def tuned_lambda(posterior_path: str) -> dict[str, float]:
    """Chosen prior precision of a ``laplace`` output and whether it is a grid end."""
    values = read_kv(posterior_path)
    with open(posterior_path, "r", encoding="utf-8") as handle:
        grid = [
            float(line.split()[1])
            for line in handle
            if line.startswith("grid_point ")
        ]
    lam = float(values["prior_precision"])
    at_edge = len(grid) > 1 and lam in (min(grid), max(grid))
    return {"lambda": lam, "at_grid_edge": float(at_edge)}
