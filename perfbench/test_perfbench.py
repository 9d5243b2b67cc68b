"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import windex  # noqa: E402

import compare  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- self time -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1, "t"),
        ("b", 1.0, 4.0, 0, "t"),
        ("c", 3.0, 6.0, 0, "t"),     # overlaps b: covered once
        ("d", 8.0, 12.0, 0, "t"),    # runs past its parent: clipped at 10
        ("e", 2.0, 3.0, 1, "t"),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_total_time_counts_recursion_once():
    spans = [
        ("f", 0.0, 5.0, -1, "t"),
        ("f", 1.0, 3.0, 0, "t"),
        ("g", 3.0, 4.0, 0, "t"),
    ]
    agg = tracing.aggregate(spans)
    assert agg["f"] == pytest.approx({"calls": 2, "self_s": 4.0, "total_s": 5.0})
    assert agg["g"] == pytest.approx({"calls": 1, "self_s": 1.0, "total_s": 1.0})


def test_check_spans_are_dropped_with_parents_remapped():
    spans = [("x", 0, 1, -1, "check"), ("y", 1, 3, -1, "t"), ("z", 1, 2, 1, "t")]
    assert tracing.select(spans, lambda sp: sp[4] != "check") == [
        ("y", 1, 3, -1, "t"), ("z", 1, 2, 0, "t")]


# -- corrupted answers count as failures --------------------------------------


class Dropping:
    """windex, except that fiberwise enumeration loses one system."""

    def __getattr__(self, name):
        return getattr(windex, name)

    @staticmethod
    def enumerate_systems_fiberwise(P, which="unital"):
        return windex.enumerate_systems_fiberwise(P, which)[1:]


def failed_frac(results):
    attempted, failed, _ = run.failures([{"tasks": results}], 0, len(results))
    return failed / attempted


def test_dropped_system_fails(tmp_path):
    wl = workloads.LatticeC16(1, tmp_path, Dropping())
    wl.setup()
    results = [worker.run_task(t) for t in wl.tasks()[:1]]
    assert "wrong answer" in results[0]["error"]
    assert failed_frac(results) > 0


def test_wrong_join_fails(tmp_path):
    wl = workloads.CliChain(1, tmp_path, windex)
    wl.setup()
    a, b, lub = wl.joins[0]
    top = max(range(len(wl.keys8)), key=lambda i: bin(wl.lat8.down[i]).count("1"))
    assert top != lub

    def wrong_join():
        W = windex.enumerate_systems_fiberwise(wl.c8, "unital")[top]
        windex.serialize.dump(windex.serialize.system_to_obj(W), tmp_path / "join_a.json")
        return workloads.CliResult(0, "", "", 0.0)

    task = next(t for t in wl.tasks() if t.name == "join_c8_a")
    results = [worker.run_task(workloads.Task(task.name, wrong_join, task.check))]
    assert "least upper bound" in results[0]["error"]
    assert failed_frac(results) > 0


def test_checks_do_not_depend_on_output_order(tmp_path):
    from windex.enumeration import content_hash
    wl = workloads.CliChain(1, tmp_path, windex)
    wl.setup()
    systems = windex.enumerate_systems_fiberwise(wl.c4, "unital")
    for order in (systems, systems[::-1]):
        po = windex.system_poset(order, labels=[content_hash(W) for W in order])
        windex.serialize.dump(po.to_json_obj(), tmp_path / "c4.json")
        wl.check_enum_c4(workloads.CliResult(0, "", "", 0.0))
    # a wrong order is still caught: drop one cover
    doc = po.to_json_obj()
    doc["covers"] = doc["covers"][1:] + [doc["covers"][0][::-1]]
    windex.serialize.dump(doc, tmp_path / "c4.json")
    with pytest.raises(workloads.CheckFailed):
        wl.check_enum_c4(workloads.CliResult(0, "", "", 0.0))
    brute = workloads.EnumBrute(1, tmp_path, windex)
    brute.setup()
    brute.check_height_two(windex.enumerate_systems(wl.c4, "unital")[::-1], wl.c4)


# -- seeded fixtures -------------------------------------------------------------


def fixture_bytes(seed, path):
    wl = workloads.CliChain(seed, path, windex)
    wl.setup()
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_same_seed_same_fixtures(tmp_path):
    one = fixture_bytes(7, tmp_path / "one")
    again = fixture_bytes(7, tmp_path / "again")
    other = fixture_bytes(8, tmp_path / "other")
    assert one == again
    assert one.keys() == other.keys() and one != other
    relabel = [workloads.EnumBrute(s, tmp_path, windex).s3_relabel for s in (3, 3, 4)]
    assert relabel[0] == relabel[1] != relabel[2]


# -- the tracer leaves nothing behind ----------------------------------------------


def snapshot():
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "windex" or name.startswith("windex."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, attr, k)] = v
    return out


def test_wrappers_removed_after_traced_run():
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert windex.enumeration.saturate is not before[("windex.enumeration", "saturate")]
        tracer.task = "t"
        systems = windex.enumerate_systems(windex.chain_group(2, 1), "aE-unital")
    finally:
        tracer.uninstall()
    assert len(systems) == 13
    names = {s[0] for s in tracer.spans}
    assert {"systems.saturate", "enumeration.level_ok", "presentation.build"} <= names
    assert tracer.counts["presentation.points.calls"] > 0
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())


# -- times are scaled by the calibration loop ------------------------------------------


def test_times_are_divided_by_the_slowdown():
    def passes(speed):
        """Two passes on a host `speed` times slower than the reference."""
        return [{"peak_rss_mb": 10.0, "tasks": [
            {"name": "a", "times": [1.0 * speed, 3.0 * speed], "slowdowns": [speed] * 3},
            {"name": "b", "times": [0.5 * speed], "slowdowns": [speed] * 2}]}] * 2

    for speed in (1.0, 1.7):
        e2e = run.end_to_end(passes(speed), [0.2 * speed])
        assert e2e["wall_s"] == pytest.approx(2.5)
        assert e2e["slowest_task_s"] == pytest.approx(2.0)
        assert e2e["task_geomean_s"] == pytest.approx(1.0)
        assert e2e["setup_s"] == pytest.approx(0.2)
        assert e2e["peak_rss_mb"] == 10.0
    # a run's slowdown is the mean of the two measurements around it
    drift = [{"tasks": [{"name": "a", "times": [1.5, 2.5], "slowdowns": [1.0, 2.0, 3.0]}]}]
    assert run.task_times(drift)["a"] == pytest.approx(1.0)


def test_calibration_leaves_collection_on():
    import calibration
    import gc
    assert calibration.slowdown() > 0 and calibration.child_slowdown() > 0
    assert gc.isenabled()
    helper = calibration.Helper()
    assert helper() > 0 and helper() > 0
    helper.close()
    assert helper.proc.returncode == 0


# -- the benchmark's declared metrics match what it reports ---------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_compare_verdicts():
    a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(a, [x * 0.7 for x in a], "lower", 0.1)[0] == "improved"
    assert compare.verdict(a, [x * 1.3 for x in a], "lower", 0.1)[0] == "worse"
    assert compare.verdict(a, list(a), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)[0] == "unresolved"
    # a clear regression reads worse however noisy the parent
    assert compare.verdict(noisy, [x * 2 for x in noisy], "lower", 0.1)[0] == "worse"
    # a faster change that fails more tasks is not an improvement
    assert compare.verdict(a, [x * 0.7 for x in a], "lower", 0.1, 0, 1)[0] == "worse"


def test_lattice_reference_on_a_chain():
    # the four-element chain 0 < 1 < 2 < 3, as nested levels
    keys = [(("V", tuple(range(i))),) for i in range(4)]
    lat = ref.Lattice(keys)
    assert lat.covers() == [(0, 1), (1, 2), (2, 3)]
    assert lat.lub(1, 3) == 3 and lat.glb(1, 3) == 1
    assert lat.least_with([2, 3]) == 2
