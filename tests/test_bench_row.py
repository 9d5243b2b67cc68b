"""scripts/bench_row.py: a BENCH row from two canned perfbench outputs."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_row.py"


def _output(init_s, leq_calls, failed=0):
    result = {"correct": failed == 0, "attempted": 7, "failed": failed,
              "metrics": {"poset.init.self_s": {"value": init_s, "unit": "s"},
                          "systems.leq.calls": {"value": leq_calls,
                                                "unit": "count"}}}
    return "# lattice-c16 seed=1 passes=1\n" + json.dumps(result) + "\n"


def test_row_from_two_result_lines(tmp_path):
    (tmp_path / "parent.out").write_text(_output(1.8, 96300))
    (tmp_path / "change.out").write_text(_output(0.03, 200, failed=1))
    out = tmp_path / "BENCH_0.json"
    subprocess.run([sys.executable, str(SCRIPT),
                    "--parent", str(tmp_path / "parent.out"),
                    "--change", str(tmp_path / "change.out"),
                    "--out", str(out)], check=True)
    row = json.loads(out.read_text())
    assert row["median"] == {
        "poset.init.self_s": {"unit": "s", "parent": 1.8, "change": 0.03},
        "systems.leq.calls": {"unit": "count", "parent": 96300, "change": 200},
    }
    assert row["failed"] == {"parent": [0, 7], "change": [1, 7]}
    assert row["parent"][0]["metrics"]["systems.leq.calls"]["value"] == 96300


def test_output_without_a_result_line_is_refused(tmp_path):
    (tmp_path / "empty.out").write_text("# lattice-c16 seed=1 passes=0\n")
    run = subprocess.run([sys.executable, str(SCRIPT),
                          "--parent", str(tmp_path / "empty.out"),
                          "--change", str(tmp_path / "empty.out")],
                         capture_output=True, text=True)
    assert run.returncode == 2 and "empty.out" in run.stderr
