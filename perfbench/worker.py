"""One pass over a workload, in a fresh process.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "trace": 0,
                                  "workdir": ..., "setup_only": false}'

Imports windex, builds the workload's presentations and fixtures (the set-up
time), then runs each task, timing `run` and checking its answer untimed,
between runs of the calibration loop (`calibration.py`).  Prints one JSON
line: set-up time, per-task run times, slowdowns and errors, peak resident
memory, and, for a traced pass, the recorded spans' layer metrics.
"""
from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibration
import tracing
import workloads


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_pass(workload, seed, workdir, trace=False, setup_only=False):
    start = time.perf_counter()
    import windex
    cls = workloads.WORKLOADS[workload]
    tracer = None
    if trace and not cls.CHILD_PROCESSES:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.task = "setup"
    try:
        if cls.CHILD_PROCESSES:
            trace_dir = Path(workdir) / "traces" if trace else None
            wl = cls(seed, Path(workdir) / "files", windex, trace_dir)
        else:
            wl = cls(seed, Path(workdir) / "files", windex)
        wl.setup()
        setup_s = time.perf_counter() - start
        out = {"setup_s": setup_s, "tasks": []}
        if setup_only:
            return out
        with calibration.meter(child=cls.CHILD_PROCESSES) as calibrate:
            for task in wl.tasks():
                out["tasks"].append(run_task(task, tracer, repeat=not trace,
                                             calibrate=calibrate))
            # before the helper ends: its memory counts once it is waited for
            out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["layers"] = layer_metrics(tracer.spans, tracer.counts)
            out["trace"] = tracer.dump()
        elif trace:
            out["layers"], out["trace"] = launcher_metrics(wl.launched)
        if trace:
            out["top_layers"] = top_layers(out["trace"]["spans"])
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_task(task, tracer=None, repeat=True, calibrate=calibration.slowdown):
    """Run, time and check one task.

    A task runs `task.repeats` times (see `workloads.Task`), each run after
    its untimed `prepare`.  The host's slowdown is measured before each run
    and after the last, so that every run lies between two measurements.
    A traced pass runs each task once.
    """
    error = None
    times, slowdowns = [], []
    while True:
        try:
            if task.prepare is not None:
                untraced(tracer, task.prepare)
        except Exception as exc:
            return {"name": task.name, "s": 0.0, "times": [], "slowdowns": [],
                    "error": f"prepare raised {type(exc).__name__}: {exc}"}
        if tracer is not None:
            tracer.task = task.name
        slowdowns.append(calibrate())
        t0 = time.perf_counter()
        try:
            got = task.run()
        except Exception as exc:  # a task that raises is a failed task, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if error is not None or not repeat or len(times) >= task.repeats:
            break
    slowdowns.append(calibrate())
    if error is None:
        try:
            untraced(tracer, task.check, got)
        except workloads.CheckFailed as exc:
            error = f"wrong answer: {exc}"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is None and max(times) > workloads.TASK_LIMIT_S:
        error = f"ran {max(times):.1f}s, past the {workloads.TASK_LIMIT_S}s limit"
    return {"name": task.name, "s": sum(times) / len(times), "times": times,
            "slowdowns": slowdowns, "error": error}


def untraced(tracer, fn, *args):
    """Call fn outside the measured work: in a traced pass its spans are
    tagged "check", which `layer_metrics` drops, and the counts it adds are
    taken back (counters carry no task)."""
    if tracer is None:
        return fn(*args)
    before = Counter(tracer.counts)
    tracer.task = "check"
    try:
        return fn(*args)
    finally:
        tracer.counts.clear()
        tracer.counts.update(before)


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced pass; spans recorded while a
    task's answer was being checked do not count."""
    spans = tracing.select(spans, lambda sp: sp[4] != "check")
    agg = tracing.aggregate(spans)

    def span(name, field):
        return agg.get(name, {}).get(field, 0)

    m = {}
    for name in tracing.SELF_S:
        m[f"{name}.self_s"] = span(name, "self_s")
    for name in tracing.CALLS:
        m[f"{name}.calls"] = span(name, "calls")
    for name in tracing.TOTAL_S:
        m[f"{name}.total_s"] = span(name, "total_s")
    for name in tracing.COUNTERS:
        m[name] = counts.get(name, 0)
    level_calls = span("enumeration.level_ok", "calls")
    m["enumeration.level_ok.pass_ratio"] = (
        counts.get("enumeration.level_ok.passed", 0) / level_calls if level_calls else 0.0)
    certified = tracing.count_under(spans, "systems.saturate", "enumeration.enumerate_systems")
    m["enumeration.certify_yield"] = (
        counts.get("enumeration.enumerate_systems.out", 0) / certified if certified else 0.0)
    return m


def top_layers(spans, k=4):
    """Per task, the k span names with the most total time (a recursive
    call counted once), to show which layer a task loads."""
    spans = [tuple(sp) for sp in spans]
    out = {}
    for task in dict.fromkeys(sp[4] for sp in spans):
        if task == "check":
            continue
        agg = tracing.aggregate(tracing.select(spans, lambda sp: sp[4] == task))
        out[task] = sorted(((n, a["total_s"]) for n, a in agg.items()),
                           key=lambda x: -x[1])[:k]
    return out


def launcher_metrics(launched):
    """Layer metrics over the traced CLI processes of a pass, plus the mean
    start-up time of a command: process wall time minus `main` time (and
    minus the time spent installing the wrappers)."""
    spans, counts = [], Counter()
    for name, _, data in launched:
        off = len(spans)
        spans += [(n, s, e, p + off if p >= 0 else -1, name)
                  for n, s, e, p, _ in data["spans"]]
        counts.update(data["counts"])
    m = layer_metrics(spans, counts)
    startups = [r.wall_s - r.main_s - r.install_s for _, r, _ in launched]
    m["cli.startup_s"] = sum(startups) / len(startups) if startups else 0.0
    return m, {"spans": spans, "counts": dict(counts)}


def main():
    args = json.loads(sys.argv[1])
    workdir = Path(args["workdir"])
    try:
        out = run_pass(args["workload"], args["seed"], workdir,
                       trace=bool(args.get("trace")), setup_only=bool(args.get("setup_only")))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"setup_error": traceback.format_exc(limit=3)}))
        return 0
    finally:
        shutil.rmtree(workdir / "files", ignore_errors=True)
    trace_out = out.pop("trace", None)
    if trace_out is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "spans.json"
        path.write_text(json.dumps(trace_out))
        out["spans_file"] = str(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
