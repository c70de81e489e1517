"""The three benchmark workloads: inputs from the seed, commands, checks.

Each workload is a short sequence of ``lula-lab`` commands run one after
another (a closed loop with one client). Inputs are generated from the
workload seed only; the program receives files, configs and ``--seed``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")


class Workload:
    name = ""
    why = ""

    def setup(self, runner, work: str, logs: str, seed: int) -> None:
        """Write the inputs into ``work``; commands run there afterwards."""

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, runner, rep_dir: str, logs: str, seed: int) -> None:
        raise NotImplementedError

    def quality(self, rep_dir: str) -> dict[str, float]:
        """Calibration values, reported but not gated."""
        return {}

    def defects(self, rep_dir: str) -> dict[str, float]:
        """Known-defect values, reported but not gated."""
        return {}


class ToyDemo(Workload):
    name = "toy-demo"
    why = ("demo-toy at a fifth of its default epochs: the paper's MAP, LA, LA+LULA "
           "comparison; LULA training dominates and all-layer curvature never runs")
    config = "toy_demo.ini"

    def setup(self, runner, work, logs, seed):
        shutil.copy(os.path.join(CONFIGS, self.config), work)

    def commands(self, seed):
        return [("demo-toy", ["demo-toy", "--config", self.config, "--out", "demo",
                              "--seed", str(seed)])]

    def check(self, runner, rep_dir, logs, seed):
        runner.record(checks.check_demo(os.path.join(rep_dir, "demo")))

    def quality(self, rep_dir):
        return checks.demo_quality(os.path.join(rep_dir, "demo"))


def write_mixture(work: str, seed: int, rows: int = 1500, classes: int = 10,
                  features: int = 16, heldout: int = 1000) -> None:
    """Gaussian-mixture CSV plus held-out points from the same mixture.

    The held-out points are standardized with the CSV's column statistics
    and saved as ``heldout.npy`` for the argmax check; the program never
    reads them.
    """
    rng = np.random.default_rng([seed, 20100272])
    centers = rng.normal(0.0, 0.75, (classes, features))

    def draw(count):
        labels = rng.integers(0, classes, count)
        return centers[labels] + rng.normal(0.0, 1.0, (count, features)), labels

    x, y = draw(rows)
    lines = [",".join([f"x{j}" for j in range(features)] + ["label"])]
    lines += [",".join(format(v, ".17g") for v in row) + f",{label}" for row, label in zip(x, y)]
    with open(os.path.join(work, "mixture.csv"), "w", encoding="utf-8", newline="\n") as h:
        h.write("\n".join(lines) + "\n")
    points, _ = draw(heldout)
    scale = np.where(x.std(axis=0) > 0, x.std(axis=0), 1.0)
    np.save(os.path.join(work, "heldout.npy"), (points - x.mean(axis=0)) / scale)


class CliMixture(Workload):
    name = "cli-mixture"
    why = ("train, laplace, lula, eval as four processes on a generated 10-class CSV: "
           "config, CSV parsing, model files, start-up and k=10 Kronecker sampling")
    config = "cli_mixture.ini"

    def setup(self, runner, work, logs, seed):
        shutil.copy(os.path.join(CONFIGS, self.config), work)
        write_mixture(work, seed)

    def commands(self, seed):
        s, cfg = str(seed), self.config
        return [
            ("train", ["train", "--config", cfg, "--out", "map.txt", "--seed", s]),
            ("laplace", ["laplace", "--config", cfg, "--model", "map.txt", "--seed", s]),
            ("lula", ["lula", "--config", cfg, "--model", "map.txt", "--out", "lula.txt",
                      "--seed", s]),
            ("eval", ["eval", "--config", cfg, "--model", "lula.txt", "--out", "eval",
                      "--seed", s]),
        ]

    def check(self, runner, rep_dir, logs, seed):
        with open(os.path.join(logs, "lula.out"), "r", encoding="utf-8") as handle:
            runner.record(checks.check_preservation(handle.read(), self.name))
        result = runner.spawn(
            ["--argmax", "map.txt", "lula.txt", "heldout.npy"], rep_dir, logs, "argmax"
        )
        report = {}
        if result.ok:
            with open(os.path.join(logs, "argmax.out"), "r", encoding="utf-8") as handle:
                report = json.loads(handle.read().strip().splitlines()[-1])
        runner.record(checks.check_argmax(report, self.name))
        runner.record(
            checks.check_eval_summary(os.path.join(rep_dir, "eval", "eval_summary.txt"), self.name)
        )

    def quality(self, rep_dir):
        return checks.eval_quality(os.path.join(rep_dir, "eval", "eval_summary.txt"))

    def defects(self, rep_dir):
        tuned = checks.tuned_lambda(os.path.join(rep_dir, "map_laplace.txt"))
        return {
            "laplace_lambda": tuned["lambda"],
            "laplace_lambda_at_grid_edge": tuned["at_grid_edge"],
            "lula_objective_delta": checks.history_delta(
                os.path.join(rep_dir, "lula_history.csv")
            ),
        }


class AllLayers(Workload):
    name = "all-layers"
    why = ("eval with a full-GGN posterior over all 1842 weights of a 2,40,40,2 net: "
           "per-example Jacobians and a dense factorization; LULA never runs")
    config = "all_layers.ini"

    def setup(self, runner, work, logs, seed):
        shutil.copy(os.path.join(CONFIGS, self.config), work)
        runner.spawn(
            ["--", "train", "--config", self.config, "--out", "map.txt", "--seed", str(seed)],
            work, logs, "setup-train",
        )

    def commands(self, seed):
        return [("eval", ["eval", "--config", self.config, "--model", "map.txt",
                          "--out", "eval", "--seed", str(seed)])]

    def check(self, runner, rep_dir, logs, seed):
        runner.record(
            checks.check_eval_summary(os.path.join(rep_dir, "eval", "eval_summary.txt"), self.name)
        )

    def quality(self, rep_dir):
        return checks.eval_quality(os.path.join(rep_dir, "eval", "eval_summary.txt"))


WORKLOADS = {w.name: w for w in (ToyDemo(), CliMixture(), AllLayers())}
