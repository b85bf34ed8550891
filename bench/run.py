#!/usr/bin/env python3
"""bcoslab benchmark: one workload through the public ``bcoslab`` CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in a fresh child process (``bench/child.py``) started from
this single parent process, as a closed loop with one client: the next
command starts when the previous one has exited, until the next one would
end past S seconds (at least MIN_COMMANDS commands). Every command's outputs
are checked. The run prints the metrics by name and unit, each timing as
median, quartiles and sample count, and as its last line one JSON object
with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 untraced
and traced commands alternate, and the metrics are the per-layer ones from
the traced commands (``bench/tracer.py``) plus the tracing overhead.

NAME is run_bcos_c, run_conceptual or verify_default, or ``all`` to run the
three in turn with each metric name prefixed by its workload. The workload's
config is generated into a temporary directory inside the checkout, with
run.base_seed = N. Exit code 0 when every check passed, 1 when any failed,
2 when the bcoslab sources are not next to the benchmark. See
bench/README.md for why these workloads and how to read the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
SRC = os.path.join(ROOT, "src")

MIN_COMMANDS = 3
# one workload's commands, warm-up included, end within this many seconds,
# so a single-workload run exits within three minutes
RUN_DEADLINE_S = 170.0
# single-threaded BLAS: the plain one-process baseline (at most nproc)
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

QUADRATIC = """\
problem.kind = quadratic
problem.dim = 4
problem.h = 1.0,2.0,0.5,1.5
problem.sigma = 1.0
problem.x_star = 0.0
problem.x0 = 3.0
"""


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: str
    n_seeds: int = 0
    steps: int = 0
    sigma_every: int = 0
    # exact call counts every traced command must show (hooks fired)
    invariants: tuple = ()

    def config_text(self, seed: int) -> str:
        run = f"run.base_seed = {seed}\n"
        if self.subcommand == "run":
            run += (f"run.steps = {self.steps}\nrun.n_seeds = {self.n_seeds}\n"
                    f"run.sigma_every = {self.sigma_every}\n")
        return self.config + run


WORKLOADS = {
    # the per-seed engine of the practical methods, with per-step aiming and
    # periodic estimator diagnostics along seed 0; serial on purpose
    "run_bcos_c": Workload(
        "run",
        QUADRATIC + "optimizer.algorithm = bcos_c\noptimizer.beta1 = 0.9\n"
        "optimizer.epsilon = 1e-06\noptimizer.weight_decay_lambda = 0.1\n"
        "optimizer.decoupled = true\nschedule.kind = constant\nschedule.alpha = 0.01\n",
        n_seeds=8, steps=1000, sigma_every=100,
        invariants=(("optim.step", 8 * 1000),),
    ),
    # the criterion 05 setting: the vectorized conceptual ensemble, a long
    # horizon and about 2 MB of CSV; never calls optim.step
    "run_conceptual": Workload(
        "run",
        QUADRATIC + "optimizer.algorithm = conceptual_bcos\n"
        "optimizer.weight_decay_lambda = 1.5\noptimizer.decoupled = true\n"
        "schedule.kind = inverse_time\nschedule.alpha = 0.5\n",
        n_seeds=200, steps=20000,
        invariants=(("optim.step", 0),),
    ),
    # default verifier sections: vectorized Monte Carlo and long recursions,
    # no trajectory at all; its Monte Carlo seeds are fixed by the program
    "verify_default": Workload(
        "verify", "",
        invariants=(("optim.step", 0), ("analysis.estimator_stats", 5)),
    ),
}

VERIFY_HEADER = "name,observed,bound,tolerance,status"
# 2 log-aiming + 3 quadratic + 4 recursion + 2 ratio + 6 estimator checks
VERIFY_CHECK_LINES = 17
SLOPE_RANGE = (-1.2, -0.8)

# per-layer metric -> span name recorded by tracer.py, and the kinds reported
LAYERS = (
    ("problems.sample_gradient", "problems.NoisyQuadratic.sample_gradient", ("calls", "self_s")),
    ("problems.sample_gradients", "problems.NoisyQuadratic.sample_gradients",
     ("calls", "draws", "self_s")),
    ("problems.grad_moments", "problems.NoisyQuadratic.grad_moments", ("calls", "self_s")),
    ("problems.aiming_inner_product", "problems.aiming_inner_product", ("calls", "self_s")),
    ("problems.make_rng", "problems.make_rng", ("calls",)),
    ("optim.step", "optim.step", ("calls", "self_s", "p50_us", "p99_us")),
    ("optim.MomentOracle", "optim.MomentOracle", ("calls",)),
    ("optim.conceptual_step", "optim.conceptual_step", ("calls",)),
    ("core.ParamVector", "core.ParamVector", ("calls",)),
    ("core.BlockPartition.block_sums", "core.BlockPartition.block_sums", ("calls", "self_s")),
    ("schedules.value_at", "schedules.value_at", ("calls", "self_s")),
    ("analysis.run_trajectory", "analysis.run_trajectory", ("calls", "self_s")),
    ("analysis.mean_trajectory", "analysis.mean_trajectory", ("self_s",)),
    ("analysis.estimator_stats", "analysis.estimator_stats", ("calls", "draws", "self_s")),
    ("analysis.verify_chung_recursions", "analysis.verify_chung_recursions", ("self_s",)),
    ("analysis.verify_ratio_expansion", "analysis.verify_ratio_expansion", ("self_s",)),
    ("cli.curve_csv", "cli.curve_csv", ("self_s", "bytes")),
    ("cli.write_outputs", "cli.write_outputs", ("self_s", "bytes")),
)
UNITS = {"calls": "count", "draws": "count", "bytes": "bytes", "self_s": "s",
         "p50_us": "us", "p99_us": "us"}


# ---------------------------------------------------------------------------
# output checks: each returns (problems, digests); a problem fails the command


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trajectory(w: Workload, out_dir: str):
    """Manifest hashes and row shape shared by both run workloads; returns
    (problems, digests, rows) with rows as (t, mean_dist_sq, sigma_t)."""
    problems, digests = [], {}
    try:
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            manifest = fh.read()
        for line in manifest.splitlines():
            if not line.startswith("file "):
                continue
            _, name, sha, _ = line.split()
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = _sha256(fh.read())
            if sha != f"sha256={digests[name]}":
                problems.append(f"{name}: manifest hash differs from the file")
        digests["manifest.txt"] = _sha256(manifest.encode())
        with open(os.path.join(out_dir, "trajectory.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            rows.append((int(cells[0]), float(cells[1]), float(cells[5])))
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"outputs unreadable: {exc}"], digests, []
    if "trajectory.csv" not in digests:
        problems.append("manifest does not list trajectory.csv")
    if len(rows) != w.steps + 1:
        problems.append(f"trajectory.csv has {len(rows)} rows, expected {w.steps + 1}")
    if not all(math.isfinite(d) for _, d, _ in rows):
        problems.append("non-finite mean_dist_sq in trajectory.csv")
    return problems, digests, rows


def check_bcos_c(w: Workload, stdout: str, out_dir: str):
    problems, digests, rows = _trajectory(w, out_dir)
    if rows:
        if not rows[-1][1] < rows[0][1]:
            problems.append(f"final mean_dist_sq {rows[-1][1]} not below initial {rows[0][1]}")
        diag = [s for t, _, s in rows if t > 0 and t % w.sigma_every == 0]
        if not diag or not all(math.isfinite(s) for s in diag):
            problems.append(f"sigma_t not finite on every diagnostic row: {diag}")
    return problems, digests


def check_conceptual(w: Workload, stdout: str, out_dir: str):
    problems, digests, rows = _trajectory(w, out_dir)
    window = [(math.log(t + 1.0), math.log(d)) for t, d, _ in rows
              if w.steps // 100 <= t <= w.steps and d > 0]
    if len(window) < 20:
        return problems + ["too few positive points for the rate fit"], digests
    mx = statistics.fmean(x for x, _ in window)
    my = statistics.fmean(y for _, y in window)
    slope = (sum((x - mx) * (y - my) for x, y in window)
             / sum((x - mx) ** 2 for x, _ in window))
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        problems.append(f"log-log slope {slope} outside {list(SLOPE_RANGE)}")
    return problems, digests


def check_verify(w: Workload, stdout: str, out_dir: str):
    lines = stdout.splitlines()
    checks = [line for line in lines[1:] if not line.startswith("#")]
    problems = []
    if lines[:1] != [VERIFY_HEADER]:
        problems.append("verify output lacks its header line")
    if len(checks) != VERIFY_CHECK_LINES:
        problems.append(f"{len(checks)} check lines, expected {VERIFY_CHECK_LINES}")
    problems += [f"check failed: {line}" for line in checks if not line.endswith(",PASS")]
    return problems, {"stdout": _sha256(stdout.encode())}


CHECKS = {"run_bcos_c": check_bcos_c, "run_conceptual": check_conceptual,
          "verify_default": check_verify}


# ---------------------------------------------------------------------------
# traced commands


def layer_stats(spans_path: str) -> dict:
    """Per-span-name calls, self time and counted work of one traced command.
    A span's self time is its duration minus the durations of its direct
    children, which never overlap in a single-threaded run."""
    spans = tracer.load(spans_path)
    names, parent = spans["names"], spans["parent"]
    dur = [b - a for a, b in zip(spans["start"], spans["end"])]
    covered = [0.0] * len(dur)
    top_s = 0.0
    for i, p in enumerate(parent):
        if p < 0:
            top_s += dur[i]
        else:
            covered[p] += dur[i]
    calls, self_s, step_us = {}, {}, []
    for i, name_id in enumerate(spans["name"]):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - covered[i]
        if name == "optim.step":
            step_us.append(dur[i] * 1e6)
    return {"calls": calls, "amounts": spans["amounts"], "self_s": self_s,
            "step_us": step_us, "top_s": top_s}


def _percentile(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(traced: list) -> tuple[dict, list]:
    """Per-layer metrics over the traced commands, and the problems found:
    counts must repeat exactly from one traced command to the next."""
    stats = [s.layers for s in traced]
    problems = []
    if any(s["calls"] != stats[0]["calls"] or s["amounts"] != stats[0]["amounts"]
           for s in stats):
        problems.append("call counts differ between traced commands")
    metrics = {}
    for metric, span, kinds in LAYERS:
        for kind in kinds:
            if kind == "calls":
                value = stats[0]["calls"].get(span, 0)
            elif kind in ("draws", "bytes"):
                value = stats[0]["amounts"].get(span, 0)
            elif kind == "self_s":
                value = statistics.median(s["self_s"].get(span, 0.0) for s in stats)
            else:
                q = 50 if kind == "p50_us" else 99
                value = statistics.median(_percentile(s["step_us"], q) for s in stats)
            metrics[f"{metric}.{kind}"] = (value, UNITS[kind])
    return metrics, problems


# ---------------------------------------------------------------------------
# commands


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    rss_mb: float
    problems: list
    digests: dict
    layers: dict | None = None


class Runner:
    """Runs one workload's commands from one temporary directory."""

    def __init__(self, name: str, seed: int, tmp: str):
        self.name = name
        self.w = WORKLOADS[name]
        self.tmp = tmp
        self.config_path = os.path.join(tmp, f"{name}.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.w.config_text(seed))
        env = dict(os.environ)
        env.pop("OUTPUT_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        env["TMPDIR"] = tmp
        env.update({var: BLAS_THREADS for var in BLAS_VARS})
        self.env = env
        self.count = 0

    def warm_up(self, timeout: float) -> None:
        """Import once untimed, so byte-code caches and the page cache are
        filled before the first timed command."""
        subprocess.run([sys.executable, "-c", "import bcoslab.cli"], env=self.env,
                       cwd=self.tmp, capture_output=True, timeout=timeout, check=False)

    def command(self, traced: bool, timeout: float) -> Sample:
        index = self.count
        self.count += 1
        out_dir = os.path.join(self.tmp, f"out{index}")
        info_path = os.path.join(self.tmp, f"info{index}.json")
        spans_path = os.path.join(self.tmp, f"spans{index}.bin") if traced else None
        argv = [sys.executable, CHILD, info_path, str(index), spans_path or "-",
                self.w.subcommand, "--config", self.config_path]
        if self.w.subcommand == "run":
            argv += ["--out", out_dir]
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.tmp, capture_output=True,
                                  text=True, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return Sample(time.monotonic() - start, math.nan, math.nan,
                          [f"timed out after {timeout:.0f} s"], {})
        wall = time.monotonic() - start
        problems, digests = CHECKS[self.name](self.w, proc.stdout, out_dir)
        if proc.returncode != 0:
            stderr = proc.stderr.strip()[-500:]
            problems.insert(0, f"exit code {proc.returncode}" + (f": {stderr}" if stderr else ""))
        setup, rss = math.nan, math.nan
        try:
            with open(info_path, encoding="utf-8") as fh:
                info = json.load(fh)
            setup, rss = info["ready"] - start, info["peak_rss_kb"] / 1024.0
            layers = layer_stats(spans_path) if traced else None
        except (OSError, ValueError, KeyError, EOFError) as exc:
            problems.append(f"no timing record from the child: {exc}")
            layers = None
        shutil.rmtree(out_dir, ignore_errors=True)
        for path in (info_path, spans_path):
            if path and os.path.exists(path):
                os.remove(path)
        return Sample(wall, setup, rss, problems, digests, layers)


def closed_loop(run_pair, seconds: float, started: float) -> None:
    """Call run_pair(timeout) until the next call would end past `seconds`
    (at least MIN_COMMANDS calls) or past the run deadline; run_pair returns
    the seconds it took."""
    taken = []
    began = time.monotonic()
    while True:
        taken.append(run_pair(RUN_DEADLINE_S - (time.monotonic() - started)))
        elapsed = time.monotonic() - began
        if len(taken) >= MIN_COMMANDS and elapsed + statistics.median(taken) > seconds:
            return
        if time.monotonic() - started + max(taken) > RUN_DEADLINE_S:
            return


# ---------------------------------------------------------------------------
# reporting


def _timing_line(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"{name:<18} {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": int(BLAS_THREADS), "git_commit": git_commit(),
            "loadavg_start": list(os.getloadavg())}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tmp: str) -> tuple[dict, int, int, bool]:
    """Run one workload, print its report; returns (metrics, attempted,
    failed, correct) with metrics as name -> (value, unit)."""
    started = time.monotonic()
    runner = Runner(name, seed, tmp)
    w = runner.w
    runner.warm_up(RUN_DEADLINE_S - (time.monotonic() - started))
    plain, traced = [], []

    def run_pair(timeout: float) -> float:
        t0 = time.monotonic()
        plain.append(runner.command(False, timeout))
        if trace:
            traced.append(runner.command(True, RUN_DEADLINE_S - (time.monotonic() - started)))
        return time.monotonic() - t0

    closed_loop(run_pair, seconds, started)
    metrics = {}
    if trace:
        metrics, problems = trace_metrics(w, plain, traced)
        for s in traced:
            s.problems += [f"trace check: {p}" for p in problems]
    samples = plain + traced
    failed = [s for s in samples if s.problems]
    ok = [s for s in plain if not s.problems] or plain
    print(f"workload {name}: {len(samples)} commands, {w.subcommand} "
          f"(config sha256 {_sha256(w.config_text(seed).encode())[:16]})")
    for i, s in enumerate(samples):
        for problem in s.problems:
            print(f"  FAILED command {i}: {problem}")
    walls = [s.wall_s for s in ok]
    setups = [s.setup_s for s in ok if math.isfinite(s.setup_s)] or [math.nan]
    computes = [s.wall_s - s.setup_s for s in ok if math.isfinite(s.setup_s)] or [math.nan]
    rss = [s.rss_mb for s in ok if math.isfinite(s.rss_mb)] or [math.nan]
    print(_timing_line("wall_s", walls, "s"))
    print(_timing_line("setup_s", setups, "s"))
    print(_timing_line("compute_s", computes, "s"))
    if w.subcommand == "run":
        work = w.n_seeds * w.steps
        print(_timing_line("seed_steps_per_s", [work / c for c in computes], "1/s"))
    print(_timing_line("peak_rss_mb", rss, "MiB"))
    print(f"{'error_rate':<18} {len(failed) / len(samples):.6g} 1"
          f"  ({len(failed)} failed of {len(samples)})")
    for file, digest in sorted(ok[0].digests.items()):
        same = sum(s.digests.get(file) == digest for s in samples)
        print(f"digest {file} sha256={digest} (same in {same} of {len(samples)})")
    if trace:
        for metric, (value, unit) in metrics.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{metric:<46} {shown} {unit}")
    else:
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "compute_s": (statistics.median(computes), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MiB")}
    return metrics, len(samples), len(failed), not failed


def trace_metrics(w: Workload, plain: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics and tracing overhead, and the trace checks that
    failed: counts repeat exactly and meet the workload's invariants."""
    good = [s for s in traced if s.layers is not None]
    if not good:
        return {}, ["no traced command left spans"]
    metrics, problems = layer_metrics(good)
    calls = good[0].layers["calls"]
    for span, expected in w.invariants:
        if calls.get(span, 0) != expected:
            problems.append(f"{span} called {calls.get(span, 0)} times, expected {expected}")
    untraced_wall = statistics.median(s.wall_s for s in plain)
    traced_wall = statistics.median(s.wall_s for s in good)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.unaccounted_s"] = (
        statistics.median(s.wall_s - s.layers["top_s"] for s in good), "s")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "bcoslab", "cli.py")):
        print(f"error: bcoslab sources not found under {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"bench seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            got, n, bad, ok = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted, failed, correct = attempted + n, failed + bad, correct and ok
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    machine["loadavg_end"] = list(os.getloadavg())
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
