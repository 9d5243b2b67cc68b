"""Benchmark of windex: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload enum-brute --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each pass over a workload's fixed task list runs in a fresh worker process
(`worker.py`), one process busy at a time, so no in-process cache carries
over between passes.  Passes repeat until `--seconds` is used up.

Times are scaled to a reference host speed.  Before each run of a task,
and after its last, a pass runs a fixed calibration loop
(`calibration.py`) and records the host's slowdown: the loop's time over
its time on a reference host.  A task's time in a run is the mean of all
its runs over all passes, divided by the mean slowdown around those runs;
set-up times are divided by the mean of all the slowdowns.  On a shared host
the speed a process gets changes by tens of percent over minutes; the task
and the loop, sampled side by side all through the run, slow down alike,
so their ratio repeats from run to run where the raw times do not.  The
unscaled sum of the task times and the mean slowdown are printed on the
lines before the result.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json: `wall_s` (the sum of the task
times: one pass over the task list), `task_geomean_s`, `slowest_task_s`,
`setup_s` (import plus building presentations and fixtures; the median over
several fresh processes) and `peak_rss_mb` (the median over passes).
`failed_frac` is printed on the lines before it and carried by the
`failed` / `attempted` fields.  With `--trace 1` the passes are
followed by one traced pass and the JSON carries the per-layer metrics.
`--workload all` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0
SETUP_SAMPLES = 11
END_TO_END = {"wall_s": "s", "task_geomean_s": "s", "slowest_task_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names():
    names = tracing.layer_metric_names()
    for wl, cls in WORKLOADS.items():
        names += [f"task.{wl}.{t}.s" for t in cls.TASKS]
    return names + ["trace.overhead_frac", "host.slowdown"]


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio") or name.endswith("_yield"):
        return "frac"
    if name == "serialize.bytes":
        return "B"
    if name == "host.slowdown":
        return "ratio"
    return "count"


class Runner:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".perfbench" / f"run-{os.getpid()}-{workload}"
        self.env = dict(os.environ)
        paths = [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                       if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        # string hashing, and with it set iteration order, changes what some
        # calls cost (fiberwise C_32 enumeration takes 1 s or 2 s depending
        # on the hash seed alone), so every process gets the same one
        self.env["PYTHONHASHSEED"] = "0"
        self.start = time.monotonic()
        self.count = 0

    def left(self):
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, trace=False, setup_only=False):
        """One worker process; returns its result, or None when it was
        killed at the deadline or printed no result."""
        self.count += 1
        workdir = self.work / f"pass-{self.count}"
        args = {"workload": self.workload, "seed": self.seed, "trace": int(trace),
                "setup_only": setup_only, "workdir": str(workdir)}
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(args)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                cwd=self.root, env=self.env, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.left()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        except BaseException:
            # interrupted or terminated: take the worker and its children down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(err)
            return None
        result["process_s"] = time.monotonic() - t0
        return result

    def run(self, trace):
        n_tasks = len(WORKLOADS[self.workload].TASKS)
        self.spawn(setup_only=True)      # warm-up: bytecode and file caches
        passes, broken = [], 0
        t0 = time.monotonic()
        while True:
            p = self.spawn()
            if p is None or "setup_error" in p:
                broken += 1
            else:
                passes.append(p)
            used = time.monotonic() - t0
            last = p["process_s"] if p and "process_s" in p else used
            if p is None or used + last > self.seconds or self.left() < 2 * last:
                break
        traced = None
        if trace and self.left() > 0:
            traced = self.spawn(trace=True)
            if traced is None or "setup_error" in traced:
                broken += 1
                traced = None
        setups = [p["setup_s"] for p in passes]
        while not trace and len(setups) < SETUP_SAMPLES and self.left() > 5:
            s = self.spawn(setup_only=True)
            if s is None or "setup_error" in s:
                break
            setups.append(s["setup_s"])
        if traced and Path(traced.get("spans_file", "")).is_file():
            shutil.move(traced["spans_file"], self.root / ".perfbench"
                        / f"spans-{self.workload}-seed{self.seed}.json")
        shutil.rmtree(self.work, ignore_errors=True)

        attempted, failed, errors = failures(
            passes + ([traced] if traced else []), broken, n_tasks)
        summary = {
            "workload": self.workload, "seed": self.seed, "passes": len(passes),
            "errors": errors, "failed_frac": failed / attempted if attempted else 1.0,
            "top_layers": traced["top_layers"] if traced else {},
        }
        if not passes:
            elapsed = time.monotonic() - t0
            e2e = dict.fromkeys(END_TO_END, elapsed)
        else:
            e2e = end_to_end(passes, setups)
        summary["end_to_end"] = e2e
        if passes:
            summary["raw_wall_s"] = sum(raw_times(passes).values())
            summary["slowdown"] = slowdown(passes)
        if trace:
            metrics = layers(self.workload, passes, traced, e2e)
        else:
            metrics = e2e
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k) if trace else END_TO_END[k]}
                        for k, v in metrics.items()},
        }
        return summary, result


def failures(passes, broken, n_tasks):
    """Tasks attempted and failed, with the errors; a pass that gave no
    result counts all its tasks as failed."""
    errors = [(t["name"], t["error"]) for p in passes for t in p["tasks"] if t["error"]]
    return n_tasks * (len(passes) + broken), len(errors) + n_tasks * broken, errors


def task_times(passes):
    """{task: its time in the run}: the mean of its run times over the
    passes, divided by the mean slowdown around those runs (a run's is the
    mean of the measurements just before and just after it)."""
    runs = {}
    for p in passes:
        for t in p["tasks"]:
            times, slowdowns = runs.setdefault(t["name"], ([], []))
            around = t["slowdowns"]
            times.extend(t["times"])
            slowdowns.extend((a + b) / 2 for a, b in zip(around, around[1:]))
    return {name: max(statistics.fmean(times), 1e-9) / statistics.fmean(slowdowns)
            for name, (times, slowdowns) in runs.items() if times}


def raw_times(passes):
    """{task: the mean of its run times over the passes}, unscaled."""
    runs = {}
    for p in passes:
        for t in p["tasks"]:
            runs.setdefault(t["name"], []).extend(t["times"])
    return {name: statistics.fmean(v) for name, v in runs.items() if v}


def slowdown(passes):
    """The mean slowdown over the passes."""
    return statistics.fmean(c for p in passes for t in p["tasks"] for c in t["slowdowns"])


def end_to_end(passes, setups):
    times = list(task_times(passes).values())
    return {
        "wall_s": sum(times),
        "task_geomean_s": math.exp(statistics.fmean(map(math.log, times))),
        "slowest_task_s": max(times),
        "setup_s": statistics.median(setups) / slowdown(passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def layers(workload, passes, traced, e2e):
    """Per-layer metrics: those of the traced pass, every task's untraced
    time (0 for the other workloads' tasks), the overhead, and the host's
    mean slowdown."""
    m = dict.fromkeys(per_layer_names(), 0.0)
    if traced:
        m.update(traced["layers"])
        traced_wall = sum(task_times([traced]).values())
        m["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
    for name, s in task_times(passes).items():
        m[f"task.{workload}.{name}.s"] = s
    m["host.slowdown"] = slowdown(passes)
    return m


def print_summary(summary, trace_metrics=None):
    wl = summary["workload"]
    print(f"# {wl} seed={summary['seed']} passes={summary['passes']}")
    for k, v in summary["end_to_end"].items():
        print(f"{wl:<12} {k:<16} {v:12.4f} {END_TO_END[k]}")
    print(f"{wl:<12} {'failed_frac':<16} {summary['failed_frac']:12.4f} frac")
    if "raw_wall_s" in summary:
        print(f"{wl:<12} unscaled wall {summary['raw_wall_s']:.4f} s, host slowdown "
              f"{summary['slowdown']:.3f}")
    for name, err in summary["errors"]:
        print(f"{wl:<12} FAILED {name}: {err}")
    if trace_metrics:
        for k, v in trace_metrics.items():
            if v["value"]:
                print(f"{wl:<12} {k:<48} {v['value']:14.6g} {v['unit']}")
        for task, top in summary["top_layers"].items():
            print(f"{wl:<12} top total time in {task}: "
                  + ", ".join(f"{name} {secs:.3g} s" for name, secs in top))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "windex" / "__init__.py").is_file():
        print("perfbench: src/windex not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for wl in names:
        summary, result = Runner(root, wl, args.seed, args.seconds).run(bool(args.trace))
        print_summary(summary, result["metrics"] if args.trace else None)
        results[wl] = result
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
