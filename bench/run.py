"""Benchmark of the repostminer batch pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N   # every workload, both modes
    python3 bench/run.py --smoke                   # tiny sizes, a few seconds

Each repetition of a workload's job runs in a fresh interpreter, one at a
time (a closed loop with one client), until ``--seconds`` of repetitions
have run.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced repetitions with traced ones and reports per-layer
metrics.  After the repetitions the outputs are checked (``check.py``); a
failed check prints ``"correct": false`` and exits with status 1.  The last
line of standard output is one JSON object with the results.

This process imports neither numpy nor the program, so that it stays small:
inputs are generated here in plain Python, and the jobs and checks run in
child processes.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0     # every run ends well inside the 180 s it is allowed
MAX_SECONDS = 120.0    # leaves time for generation, set-up and the checks
CHECK_MARGIN_S = 30.0  # kept free for the output checks after the last job
MIN_REPS = {0: 3, 1: 2}

END_TO_END = {"job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# The machine's speed drifts by a third over minutes, on all code alike.  A
# process of its own times its start-up, ``import numpy`` and fixed stdlib
# work, the same on every commit, just before and just after each job.  Each
# job's times in seconds are scaled by this reference over the mean of the two.
CALIBRATION_REF_S = 0.3

# Per-layer busy time: metric -> the spans whose durations it sums.  Calls
# that only some jobs make (split, simulate, write_log) share a metric with
# a call every job makes, so that no time reads 0 on every run of a workload.
SPAN_METRICS = {
    "eventlog.parse_s": ("eventlog.parse_log",),
    "eventlog.preprocess_s": ("eventlog.preprocess", "eventlog.split_by_bot_score"),
    "discovery.discover_s": ("discovery.discover_tree",),
    "discovery.tree_to_net_s": ("discovery.tree_to_net",),
    "discovery.reduce_s": ("discovery.reduce_net",),
    "stochastic.replay_s": ("stochastic.replay_log",),
    "stochastic.enrich_s": ("stochastic.enrich_from_replays",),
    "stochastic.fspn_s": ("stochastic.enrich_from_replays", "stochastic.fspn_from_json",
                          "stochastic.simulate"),
    "stochastic.waits_s": ("stochastic.waiting_time_stats",),
    "petri.rg_s": ("petri.reachability_graph",),
    "analysis.structure_s": ("analysis.density", "analysis.diameter"),
    "analysis.chain_s": ("analysis.build_markov_chain",),
    "analysis.stationary_s": ("analysis.stationary_distribution",),
    "cli.write_s": ("cli.write", "eventlog.write_log"),
}
# Metrics of a span's self time: ``ks_entropy`` without the stationary law it
# computes inside, which ``analysis.stationary_s`` reports.
SELF_METRICS = {"analysis.entropy_s": "analysis.ks_entropy"}
LAYERS = ("eventlog", "discovery", "stochastic", "petri", "analysis")
COUNTS = ("eventlog.rows_in", "eventlog.rows_rejected", "eventlog.traces_kept",
          "eventlog.events_kept", "discovery.tree_nodes", "discovery.flower_nodes",
          "discovery.net_transitions", "discovery.silent_transitions",
          "stochastic.replays", "stochastic.firings", "stochastic.silent_firings",
          "stochastic.simulated_events", "petri.rg_states", "petri.rg_edges",
          "analysis.chain_states", "cli.artifact_bytes")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {name: "s" for name in (*SPAN_METRICS, *SELF_METRICS)}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"stochastic.replay_trace_ms_p50": "ms",
                  "stochastic.replay_trace_ms_p90": "ms",
                  "stochastic.fitting_ratio": "1",
                  "analysis.chain_used_ratio": "1",
                  "analysis.matrix_mb": "MiB",
                  "cli.unaccounted_s": "s", "trace.job_s": "s",
                  "trace.overhead_s": "s"})
    units.update({name: "count" for name in COUNTS})
    return units


class Failure(Exception):
    """A child process failed; the message says which and why."""


class Runner:
    """Starts the child processes of one benchmark run and keeps its clock."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.serial = 0

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, script: str, *args: str) -> subprocess.CompletedProcess:
        timeout = self.left()
        if timeout <= 0:
            raise Failure(f"{script}: no time left")
        try:
            return subprocess.run([sys.executable, str(HERE / script), *args],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise Failure(f"{script} {' '.join(args[:1])}: timed out") from None

    def job(self, mode: str, spec: dict) -> dict:
        """One measured process; returns what it wrote."""
        self.serial += 1
        spec_path = self.work / f"spec{self.serial}.json"
        result_path = self.work / f"result{self.serial}.json"
        spec_path.write_text(json.dumps(spec))
        proc = self.child("job.py", mode, str(spec_path), str(result_path),
                          str(time.monotonic_ns()))
        if proc.returncode != 0 or not result_path.exists():
            raise Failure(f"{mode} job exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-800:]}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result

    def calibrate(self) -> float:
        """Seconds a fresh interpreter takes to start, import numpy and do
        fixed stdlib work."""
        return self.job("calibrate", {})["calibration_s"]


def resolve(wl: inputs.Workload, out: Path) -> dict:
    """The job spec with the output placeholder replaced by ``out``."""
    doc = json.dumps({"workload": wl.name, "commands": wl.commands,
                      "runs": wl.runs, "expect": wl.expect})
    return json.loads(doc.replace(str(inputs.OUT), str(out)))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans, counts = result["spans"], result["counts"]
    busy: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        busy[name] = busy.get(name, 0.0) + end - start
    own = self_times(spans)
    m = {metric: sum(busy.get(s, 0.0) for s in names)
         for metric, names in SPAN_METRICS.items()}
    m.update({metric: own.get(name, 0.0) for metric, name in SELF_METRICS.items()})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in own.items()
                                   if name.startswith(layer + "."))
    per_trace = [(end - start) * 1e3 for name, start, end, _, _ in spans
                 if name == "stochastic.replay_trace"]
    m["stochastic.replay_trace_ms_p50"] = percentile(per_trace, 0.5) if per_trace else 0.0
    m["stochastic.replay_trace_ms_p90"] = percentile(per_trace, 0.9) if per_trace else 0.0
    m["stochastic.fitting_ratio"] = (counts["stochastic.fitting"] / counts["stochastic.replays"]
                                     if counts["stochastic.replays"] else 0.0)
    m["analysis.chain_used_ratio"] = (counts["analysis.chain_states"] / counts["petri.rg_states"]
                                      if counts["petri.rg_states"] else 0.0)
    m["analysis.matrix_mb"] = counts["analysis.matrix_mb"]
    m["cli.unaccounted_s"] = own["cli.job"]
    m["trace.job_s"] = spans[0][2] - spans[0][1]
    m.update({name: counts[name] for name in COUNTS})
    return m


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Generate, repeat the job for ``seconds``, check; returns the run's
    metrics, counts of jobs attempted and failed, problems and environment."""
    work = WORK / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work)
    problems: list[str] = []
    attempted = failed = 0
    try:
        wl = inputs.generate(name, seed, work / "in", smoke)
        probe = resolve(wl, work / "unused")
        facts = runner.job("import", probe)     # warm-up: compiles bytecode
        setups: list[tuple[float, float]] = []  # (set-up, calibration) per job

        modes = ["plain", "traced"] if trace else ["plain"]
        results: dict[str, list[dict]] = {m: [] for m in modes}
        walls: dict[str, list[float]] = {m: [] for m in modes}
        reference = work / "out0"
        begun = time.monotonic()
        rep = 0
        before = runner.calibrate()
        while True:
            mode = modes[rep % len(modes)]
            elapsed = time.monotonic() - begun
            typical = statistics.median(walls[mode]) if walls[mode] else 0.0
            if rep >= MIN_REPS[trace] and (elapsed + typical > seconds or
                                           runner.left() < typical + CHECK_MARGIN_S):
                break
            out = work / f"out{rep}"
            spec = resolve(wl, out)
            out.mkdir(parents=True)
            attempted += 1
            t0 = time.monotonic()
            try:
                result = runner.job(mode, spec)
                after = runner.calibrate()
            except Failure as exc:
                failed += 1
                problems.append(str(exc))
                break
            walls[mode].append(time.monotonic() - t0)
            result["calibration_s"] = (before + after) / 2
            before = after
            results[mode].append(result)
            setups.append((result["setup_s"], result["calibration_s"]))
            if rep > 0:
                if tree_bytes(out) != tree_bytes(reference):
                    problems.append(f"{mode} repetition {rep} wrote other bytes "
                                    "than repetition 0")
                shutil.rmtree(out)
            rep += 1

        checked: dict = {}
        if not failed:
            spec_path = work / "check.json"
            spec_path.write_text(json.dumps(resolve(wl, reference)))
            proc = runner.child("check.py", str(spec_path))
            if proc.returncode != 0:
                problems.append(f"check.py exited with {proc.returncode}: "
                                f"{proc.stderr.strip()[-800:]}")
            else:
                checked = json.loads(proc.stdout.strip().splitlines()[-1])
                problems += checked["problems"]
    except Failure as exc:
        problems.append(str(exc))
        failed += 1
        attempted = max(attempted, 1)
        return {"workload": name, "problems": problems, "attempted": attempted,
                "failed": failed, "metrics": {}, "env": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # unless another run is using it
        except OSError:
            pass

    plain = results["plain"]
    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    if plain and (trace == 0 or smoke):
        raw["calibration_s"] = statistics.median(c for _, c in setups)
        for key, unit in END_TO_END.items():
            pairs = setups if key == "setup_s" else [(r[key], r["calibration_s"]) for r in plain]
            raw[key] = statistics.median(v for v, _ in pairs)
            scaled = [v * CALIBRATION_REF_S / c if unit == "s" else v for v, c in pairs]
            metrics[key] = (statistics.median(scaled), unit)
    if trace == 1 and results["traced"]:
        units = per_layer_units()
        per_rep = [layer_metrics(r) for r in results["traced"]]
        for key in units:
            if key == "trace.overhead_s":
                continue
            metrics[key] = (statistics.median(m[key] for m in per_rep), units[key])
        if plain:
            overhead = (statistics.median(r["job_s"] for r in results["traced"])
                        - statistics.median(r["job_s"] for r in plain))
            metrics["trace.overhead_s"] = (overhead, "s")
    env = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "commit": git_commit(), "python": facts["python"], "numpy": facts["numpy"],
        "blas_threads": facts["blas_threads"], "repostminer": facts["version"],
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "inputs": wl.inputs,
        "reps": {m: len(r) for m, r in results.items()},
        "setup_samples": len(setups), "raw": raw, "checked": checked.get("facts", {}),
    }
    return {"workload": name, "problems": problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "env": env}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes, both modes, minimal repetitions")
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in [0, {MAX_SECONDS:g}]: each run "
                     f"must end within {DEADLINE_S:g} s")
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repostminer" / "cli.py").is_file():
        print(f"program source not found under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    if args.smoke or args.workload == "all":
        names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
        # A smoke run needs no steady numbers: one traced run per workload
        # runs the job both ways and reports both kinds of metric.
        plan = [(n, t) for n in names for t in ((1,) if args.smoke else (0, 1))]
        seconds = 0.0 if args.smoke else args.seconds
    else:
        plan = [(args.workload, args.trace)]
        seconds = args.seconds

    runs = [run_workload(n, args.seed, seconds, t, args.smoke) for n, t in plan]
    single = len(runs) == 1
    for run in runs:
        print("env " + json.dumps(run["env"], sort_keys=True))
        for problem in run["problems"]:
            print(f"PROBLEM {run['workload']}: {problem}")
        for key, (value, unit) in run["metrics"].items():
            print(f"{run['workload']:<22} {key:<34} {value:>16.6f} {unit}")
    metrics = {(k if single else f"{r['workload']}.{k}"): {"value": v, "unit": u}
               for r in runs for k, (v, u) in r["metrics"].items()}
    correct = all(not r["problems"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
