"""Benchmark for the lula-lab CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toy-demo --seed 1 --seconds 10 --trace 0

``--workload`` is ``toy-demo``, ``cli-mixture``, ``all-layers`` or ``all``.
Each workload runs ``lula-lab`` commands as child processes built from
``src/`` in the checkout, one after another (closed loop, one client), with
BLAS and OpenMP pinned to one thread. Set-up (environment probe and input
generation, plus MAP training of the input model for ``all-layers``) is
repeated five times and timed separately. Whole workload repetitions then
run until ``--seconds`` of measured time have passed (at least one); every
time is reported as the median over its samples. The result's times leave
out the pauses for speed samples and are scaled to a nominal core speed
measured by those samples (see ``speed.py``); the raw times are reported
beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
repetition whose spans give the per-layer metrics (see ``layers.py``). The
report goes to standard output and to ``perfbench/out/<workload>/report.json``;
the last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# The children get the pins in their environment; this process needs them
# before numpy loads, for the matrix product of the speed samples.
os.environ.update(THREAD_PINS)

import checks  # noqa: E402
import layers  # noqa: E402
import spans as spans_mod  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # every child is killed once a run has taken this long

# (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
]


@dataclass
class Command:
    label: str
    code: int
    wall: float
    cpu: float
    rss_mb: float

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class Rep:
    commands: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    directory: str = ""
    scale: float = 1.0  # speed scale of this repetition (speed.Reference.factor_since)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max((c.rss_mb for c in self.commands), default=0.0)


class Runner:
    """Starts child processes and counts every operation and check."""

    def __init__(self, root: str):
        self.src = os.path.join(root, "src")
        self.ops: list[tuple[str, bool, str]] = []
        self.deadline = perf_counter() + RUN_BUDGET_S
        env = {k: v for k, v in os.environ.items() if k != "LULA_LAB_THREADS"}
        env.update(THREAD_PINS)
        env["PYTHONPATH"] = self.src
        env["PERFBENCH_SRC"] = self.src
        self.env = env
        self.speed: speed.Reference | None = None  # samples taken while children run
        self.paused = 0.0  # seconds children spent stopped for speed samples

    def record(self, results) -> None:
        self.ops.extend(results)

    def spawn(self, launcher_args: list[str], cwd: str, logs: str, label: str,
              sample: bool = True) -> Command:
        """Run ``launch.py <launcher_args>`` in ``cwd``; time it, kill it at the deadline.

        With ``sample``, the child is paused for speed samples and its time
        leaves the pauses out.
        """
        os.makedirs(logs, exist_ok=True)
        env = dict(self.env)
        with open(os.path.join(logs, label + ".out"), "wb") as out, \
                open(os.path.join(logs, label + ".err"), "wb") as err:
            env["PERFBENCH_SPAWN_T"] = repr(perf_counter())
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, LAUNCHER, *launcher_args],
                cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            status, usage, paused = wait_until(
                proc.pid, self.deadline, self.speed if sample else None)
            wall = perf_counter() - start - paused
            self.paused += paused
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code  # reaped by wait4 already
        detail = f"exit {code}" + (" (killed at the run budget)" if code < 0 else "")
        self.ops.append((f"cmd.{label}", code == 0, detail))
        return Command(label, code, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


def wait_until(pid: int, deadline: float, reference: speed.Reference | None = None):
    """Reap child ``pid``, killing it at ``deadline``; ``(status, rusage, paused_s)``.

    With a ``reference``, the child is stopped every ``speed.INTERVAL_S`` for
    one speed sample; ``paused_s`` is the time it spent stopped.
    """
    interval = speed.INTERVAL_S if reference is not None else math.inf
    pidfd = os.pidfd_open(pid)
    paused = 0.0
    try:
        while not select.select(
                [pidfd], [], [], max(min(interval, deadline - perf_counter()), 0.0))[0]:
            if reference is None or perf_counter() >= deadline:
                os.kill(pid, signal.SIGKILL)
                break
            stopped = perf_counter()
            os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                return status, usage, paused  # it exited first and is reaped
            reference.sample()
            os.kill(pid, signal.SIGCONT)
            paused += perf_counter() - stopped
        _, status, usage = os.wait4(pid, 0)
        return status, usage, paused
    except BaseException:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)


def source_digest(*roots: str) -> str:
    """SHA-256 over the ``.py`` and ``.ini`` files under ``roots``."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, files in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".ini")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        h.update(handle.read())
    return h.hexdigest()


def git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True, check=False)
    return result.stdout.strip() or "unknown"


def run_rep(runner: Runner, workload, work: str, setup_dir: str, seed: int,
            tag: str, traced: bool) -> Rep:
    """One repetition of the workload's commands in a copy of the inputs."""
    rep_dir = os.path.join(work, tag)
    logs = os.path.join(work, tag + ".logs")
    shutil.copytree(setup_dir, rep_dir)
    rep = Rep(directory=rep_dir)
    commands = workload.commands(seed)
    for index, (label, args) in enumerate(commands):
        prefix = ["--"]
        if traced:
            spans_path = os.path.join(logs, f"{label}.spans.jsonl")
            prefix = ["--trace", spans_path, f"{workload.name}/{tag}/{index}", "--"]
        # Pauses would show in the spans, so the traced run takes no speed samples.
        command = runner.spawn(prefix + args, rep_dir, logs, label, sample=not traced)
        rep.commands.append(command)
        if not command.ok:
            for skipped, _ in commands[index + 1:]:
                runner.record([(f"cmd.{skipped}", False, f"skipped after {label} failed")])
            return rep
    workload.check(runner, rep_dir, logs, seed)
    rep.digests = checks.digests(rep_dir)
    return rep


def check_determinism(runner: Runner, workload, reps: list[Rep], seed: int,
                      src_digest: str) -> dict:
    """Byte-identical outputs across repeats, the traced run and earlier runs."""
    complete = [r for r in reps if r.digests]
    if not complete:
        return {}
    reference = complete[0].digests
    for rep in complete[1:]:
        runner.record(checks.compare_digests(
            reference, rep.digests, f"determinism.{os.path.basename(rep.directory)}"))
    # Runs of the same seed and the same source in this checkout must agree too.
    store_dir = os.path.join(OUT, "digests")
    os.makedirs(store_dir, exist_ok=True)
    store = os.path.join(store_dir, f"{workload.name}-{seed}-{src_digest[:16]}.json")
    if os.path.exists(store):
        with open(store, "r", encoding="utf-8") as handle:
            earlier = json.load(handle)
        runner.record(checks.compare_digests(earlier, reference, "determinism.earlier_run"))
    else:
        with open(store, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1)
    return reference


def run_setup(runner: Runner, workload, work: str, seed: int):
    """Repeated set-up: probe the environment and generate the inputs.

    Returns the raw set-up times, their speed scales, the probe's
    environment record and the directory of the last set-up, whose inputs
    the repetitions copy.
    """
    times, scales, digests, probe = [], [], [], {}
    for i in range(SETUP_REPEATS):
        setup_dir = os.path.join(work, f"setup-{i}")
        logs = setup_dir + ".logs"
        os.makedirs(setup_dir)
        mark, paused, start = runner.speed.mark(), runner.paused, perf_counter()
        ok = runner.spawn(["--probe"], setup_dir, logs, "probe").ok
        if ok:
            workload.setup(runner, setup_dir, logs, seed)
        times.append(perf_counter() - start - (runner.paused - paused))
        scales.append(runner.speed.factor_since(mark))
        digests.append(checks.digests(setup_dir))
        if ok and not probe:
            with open(os.path.join(logs, "probe.out"), "r", encoding="utf-8") as handle:
                probe = json.loads(handle.read().strip().splitlines()[-1])
    for i, digest in enumerate(digests[1:], start=1):
        runner.record(checks.compare_digests(digests[0], digest, f"determinism.setup-{i}"))
    return times, scales, probe, setup_dir


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(root)
    load_at_start = os.getloadavg()
    work = os.path.join(OUT, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # The workload configs shape the outputs, so they key the stored digests too.
    src_digest = source_digest(runner.src, os.path.join(HERE, "configs"))
    runner.speed = speed.Reference()
    setup_times, setup_scales, probe, setup_dir = run_setup(runner, workload, work, seed)

    reps: list[Rep] = []
    measured = 0.0
    setup_ok = runner.failed == 0
    while setup_ok and (not reps or measured < seconds) and perf_counter() < runner.deadline:
        mark = runner.speed.mark()
        rep = run_rep(runner, workload, work, setup_dir, seed, f"rep-{len(reps)}", False)
        rep.scale = runner.speed.factor_since(mark)
        reps.append(rep)
        measured += rep.wall
        if not rep.digests:
            break
    traced = None
    if trace and reps and reps[-1].digests:
        traced = run_rep(runner, workload, work, setup_dir, seed, "traced", True)
    reference = check_determinism(
        runner, workload, reps + ([traced] if traced else []), seed, src_digest)

    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load_model": "closed loop, one client: each command starts after the previous exits",
        "environment": {
            **probe,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start,
            "thread_pins": THREAD_PINS,
            "git_commit": git_commit(root),
            "source_sha256": src_digest,
        },
        "setup_s": setup_times,
        "setup_scales": setup_scales,
        "speed_samples_s": runner.speed.samples,
        "speed_nominal_s": speed.NOMINAL_S,
        "reps": [
            {"wall_s": r.wall, "cpu_s": r.cpu, "peak_rss_mb": r.rss_mb, "scale": r.scale,
             "commands": {c.label: {"wall_s": c.wall, "cpu_s": c.cpu, "rss_mb": c.rss_mb,
                                    "exit": c.code} for c in r.commands}}
            for r in reps
        ],
        "output_sha256": reference,
        "operations": [{"op": op, "ok": ok, "detail": detail} for op, ok, detail in runner.ops],
    }
    done = [r for r in reps if r.digests]
    if done:
        report["quality"] = workload.quality(done[0].directory)
        report["defects"] = workload.defects(done[0].directory)

    # Times scaled to the nominal core speed, then the raw times.
    e2e = {"setup_s": stats.summarize([t * f for t, f in zip(setup_times, setup_scales)])}
    complete = [r for r in reps if r.commands and all(c.ok for c in r.commands)]
    if complete:
        e2e["wall_s"] = stats.summarize([r.wall * r.scale for r in complete])
        e2e["cpu_s"] = stats.summarize([r.cpu * r.scale for r in complete])
        e2e["setup_s.raw"] = stats.summarize(setup_times)
        e2e["wall_s.raw"] = stats.summarize([r.wall for r in complete])
        e2e["cpu_s.raw"] = stats.summarize([r.cpu for r in complete])
        e2e["peak_rss_mb"] = stats.summarize([r.rss_mb for r in complete])
        for label in [c.label for c in complete[0].commands]:
            e2e[f"{label}.wall_s.raw"] = stats.summarize(
                [c.wall for r in complete for c in r.commands if c.label == label])
    report["end_to_end"] = e2e
    report["attempted"], report["failed"] = runner.attempted, runner.failed

    if traced is not None and traced.digests and "wall_s" in e2e:
        report.update(trace_report(traced, os.path.join(work, "traced.logs"),
                                   e2e["wall_s.raw"]["median"]))
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report


def trace_report(traced: Rep, logs: str, untraced_wall: float) -> dict:
    all_spans, missing = [], set()
    for name in sorted(os.listdir(logs)):
        if name.endswith(".spans.jsonl"):
            for row in spans_mod.read_jsonl(os.path.join(logs, name)):
                if "missing" in row:
                    missing.update(row["missing"])
                else:
                    all_spans.append(row)
    agg = spans_mod.aggregate(all_spans)
    per_layer = layers.compute(agg, traced.wall, untraced_wall, len(all_spans))
    tunes = [s["attrs"] for s in all_spans
             if s["name"] == "laplace.tune_prior_precision" and s.get("attrs")]
    return {
        "per_layer": per_layer,
        "traced_wall_s": traced.wall,
        "spans_by_name": {k: {"calls": v["calls"], "s": v["s"], "self_s": v["self_s"]}
                          for k, v in sorted(agg.items())},
        "untraced_targets": sorted(missing),
        "tuned_lambdas": [{"lambda": t["lambda"], "at_grid_edge": bool(t["edge"])}
                          for t in tunes],
        "shares_of_traced_wall": {k: v["s"] / traced.wall for k, v in sorted(agg.items())},
        "shares_of_command": {
            cmd: {k: v / agg[cmd]["s"] for k, v in spans_mod.breakdown(all_spans, cmd).items()}
            for cmd in sorted(agg) if cmd.startswith("cli.cmd_") and agg[cmd]["s"] > 0
        },
    }


def print_report(report: dict) -> None:
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"== {report['workload']} (seed {report['seed']}, trace {report['trace']}): "
          f"{report['why']}")
    print(f"   load: {report['load_model']}")
    env = report["environment"]
    print("   environment: " + ", ".join(
        f"{k}={env[k]}" for k in ("python", "numpy", "scipy", "blas", "blas_threads_runtime",
                                  "nproc", "loadavg_at_start", "git_commit") if k in env))
    print("   thread pins: " + ", ".join(f"{k}={v}" for k, v in env["thread_pins"].items()))
    samples = report["speed_samples_s"]
    print(f"   times scaled to a speed sample of {report['speed_nominal_s']:g} s (see speed.py); "
          f"samples took {min(samples):.4g}-{max(samples):.4g} s (median "
          f"{stats.median(samples):.4g}, n={len(samples)}); '.raw' times are unscaled")
    for name, summary in report["end_to_end"].items():
        print("   " + stats.describe(name, units.get(name, "s"), summary))
    share = 1.0 - report["failed"] / max(report["attempted"], 1)
    print(f"   ok_share = {share:.6g} share ({report['attempted'] - report['failed']}"
          f"/{report['attempted']} operations passed)")
    for op in report["operations"]:
        if not op["ok"]:
            print(f"   FAILED {op['op']}: {op['detail']}")
    for section in ("quality", "defects"):
        if report.get(section):
            print(f"   {section} (reported, not gated): " + ", ".join(
                f"{k}={v:.6g}" for k, v in report[section].items()))
    if "per_layer" in report:
        print(f"   traced wall {report['traced_wall_s']:.4g} s; per-layer metrics:")
        for name, unit, _, moves in layers.PER_LAYER:
            print(f"     {name} = {report['per_layer'][name]:.6g} {unit}  [moves: {moves}]")
        for name, value in report["shares_of_traced_wall"].items():
            print(f"     share of traced wall: {name} {value:.3f}")
        for cmd, shares in report["shares_of_command"].items():
            top = list(shares.items())[:4]
            print(f"     share of {cmd}: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
        if report["untraced_targets"]:
            print("     not found, so not traced: " + ", ".join(report["untraced_targets"]))


def result_metrics(report: dict, trace: bool) -> dict:
    """The metrics of the final line; empty when a measurement is missing."""
    if trace:
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        return {k: {"value": v, "unit": units[k]}
                for k, v in report.get("per_layer", {}).items()}
    e2e = report["end_to_end"]
    if "wall_s" not in e2e:
        return {}
    out = {}
    for name, unit, _ in END_TO_END:
        if name == "ok_share":
            value = 1.0 - report["failed"] / max(report["attempted"], 1)
        else:
            value = e2e[name]["median"]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark unwinds, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lula_lab", "cli.py")):
        print("run from the root of a lula-lab checkout: src/lula_lab/cli.py not found",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        report = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        found = result_metrics(report, bool(args.trace))
        correct = correct and report["failed"] == 0 and bool(found)
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
