"""End-to-end runs of the command-line interface."""
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import windex
from windex import (
    YES, TransferSystem, WeakIndexingSystem, chain_group, cocartesian_transport,
    dump, f_complete, f_infinity, f_trivial, f_zero, family_to_obj, fold_left,
    join, system_from_obj, system_to_obj, transfer_of, transfer_to_obj,
)
from windex.cli import main


C2 = chain_group(2, 1)
C4 = chain_group(2, 2)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    dump(obj, path)
    return str(path)


# -- enumerate -------------------------------------------------------------------


def test_enumerate_height_one(capsys):
    assert main(["enumerate", "--p", "2", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "13 aE_unital systems" in out
    assert "16 cover relations" in out


def test_enumerate_unital_dot_output(tmp_path, capsys):
    dot = tmp_path / "hasse.dot"
    assert main(["enumerate", "--backend", "cpn", "--p", "2", "--n", "2",
                 "--class", "unital", "--out", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "21 unital systems" in out and "32 cover relations" in out
    text = dot.read_text()
    assert text.startswith("digraph unital_chain_p_2_n_2")
    assert text.count("->") == 32


def test_enumerate_fiberwise_agrees(capsys):
    assert main(["enumerate", "--p", "2", "--n", "2", "--class", "unital",
                 "--fiberwise"]) == 0
    assert "21 unital systems" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--brute"], [], ["--fiberwise"]],
                         ids=["brute", "default", "fiberwise"])
def test_enumerate_ae_unital_height_three(flags, capsys):
    assert main(["enumerate", "--p", "2", "--n", "3",
                 "--class", "aE-unital"] + flags) == 0
    assert "152 aE_unital systems" in capsys.readouterr().out


_CLASSES = ["aE-unital", "unital", "almost-unital", "indexing"]


@pytest.mark.parametrize("p, n, cls", [
    (p, n, cls) for p, n in [(2, 0), (2, 1), (2, 2), (3, 2)] for cls in _CLASSES
] + [(2, 3, "aE-unital")])
@pytest.mark.parametrize("ext", ["dot", "json"])
def test_default_and_brute_write_the_same_file(p, n, cls, ext, tmp_path, capsys):
    command = ["enumerate", "--p", str(p), "--n", str(n), "--class", cls]
    written, summaries = [], []
    for flags in ([], ["--brute"]):
        path = tmp_path / f"{len(flags)}.{ext}"
        assert main(command + flags + ["--out", str(path)]) == 0
        written.append(path.read_bytes())
        summaries.append(capsys.readouterr().out.splitlines()[0])
    assert written[0] == written[1]
    assert summaries[0] == summaries[1]


def test_enumerate_height_four_by_default(capsys):
    assert main(["enumerate", "--p", "2", "--n", "4", "--class", "unital"]) == 0
    out = capsys.readouterr().out
    assert "310 unital systems" in out and "800 cover relations" in out


def test_fiberwise_and_brute_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--fiberwise", "--brute"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_enumerate_json_poset(tmp_path, capsys):
    out = tmp_path / "poset.json"
    assert main(["enumerate", "--p", "3", "--n", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 13
    assert len(doc["covers"]) == 16


def test_enumerate_point_and_bg(capsys):
    for backend in (["--backend", "point"], ["--backend", "bg", "--p", "6"]):
        for flags in ([], ["--brute"]):
            assert main(["enumerate"] + backend + flags) == 0
            assert "4 aE_unital systems" in capsys.readouterr().out
        assert main(["enumerate"] + backend + ["--fiberwise"]) == 2
        assert "sieves are only defined over cyclic chains" in \
            capsys.readouterr().err


def test_enumerate_unknown_class_is_bad_input(capsys):
    assert main(["enumerate", "--class", "complete"]) == 2


# -- validate --------------------------------------------------------------------


def test_validate_good_system(tmp_path, capsys):
    path = _write(tmp_path, "w.json", system_to_obj(f_zero(C2)))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "restriction-stable" in out and "ok" in out
    assert "class:" in out and "unital" in out


def test_validate_unclosed_sparse_data(tmp_path, capsys):
    obj = system_to_obj(f_trivial(C2))
    obj["levels"]["C_2"].append(
        {"over": "C_2", "orbits": [["e", 1]]})  # free orbit, no fold below
    path = _write(tmp_path, "broken.json", obj)
    assert main(["validate", path]) == 1
    assert "not closed" in capsys.readouterr().out


def test_validate_bad_inputs(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2
    wrong = _write(tmp_path, "wrong.json", transfer_to_obj(TransferSystem(C2, [])))
    assert main(["validate", wrong]) == 2


def test_unreadable_and_unwritable_paths_are_bad_input(tmp_path, capsys):
    """A directory given as input or as --out exits 2 with an error line."""
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}")
    w = _write(tmp_path, "w.json", system_to_obj(f_zero(C2)))
    assert main(["join", w, w, "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write {tmp_path}")
    assert main(["enumerate", "--p", "2", "--n", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}")


# -- join ------------------------------------------------------------------------


def test_join_systems(tmp_path, capsys):
    a = _write(tmp_path, "a.json", system_to_obj(f_trivial(C2)))
    b = _write(tmp_path, "b.json", system_to_obj(f_zero(C2)))
    out = tmp_path / "j.json"
    assert main(["join", a, b, "--out", str(out)]) == 0
    assert system_from_obj(json.loads(out.read_text())) == f_zero(C2)


def test_join_without_out_prints_document(tmp_path, capsys):
    a = _write(tmp_path, "a.json", system_to_obj(f_zero(C2)))
    assert main(["join", a, a]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert system_from_obj(doc) == f_zero(C2)


# -- fiber -----------------------------------------------------------------------


def test_fiber_lists_systems(tmp_path, capsys):
    r = _write(tmp_path, "r.json", transfer_to_obj(
        TransferSystem(C4, [("e", "C_2"), ("e", "C_4")])))
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e"]))
    out = tmp_path / "fiber.json"
    assert main(["fiber", "--R", r, "--family", fam, "--out", str(out)]) == 0
    assert "3 systems" in capsys.readouterr().out
    docs = json.loads(out.read_text())
    assert len(docs) == 3
    assert len({str(sorted(d["levels"].items())) for d in docs}) == 3


def test_fiber_empty_when_domain_does_not_fold(tmp_path, capsys):
    r = _write(tmp_path, "r.json", transfer_to_obj(
        TransferSystem(C4, [("C_2", "C_4")])))
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e"]))
    assert main(["fiber", "--R", r, "--family", fam]) == 0
    assert "0 systems" in capsys.readouterr().out


def test_fiber_mismatched_presentations(tmp_path, capsys):
    r = _write(tmp_path, "r.json", transfer_to_obj(TransferSystem(C2, [])))
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e"]))
    assert main(["fiber", "--R", r, "--family", fam]) == 2


def test_fiber_transfer_naming_unknown_class(tmp_path, capsys):
    r = _write(tmp_path, "r.json", {**transfer_to_obj(TransferSystem(C4, [])),
                                    "pairs": [["e", "C_99"]]})
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e"]))
    assert main(["fiber", "--R", r, "--family", fam]) == 2
    assert "not an orbit" in capsys.readouterr().err


# -- transport -------------------------------------------------------------------


def test_transport_fold(tmp_path, capsys):
    w = _write(tmp_path, "w.json", system_to_obj(f_zero(C4)))
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e", "C_2"]))
    out = tmp_path / "t.json"
    assert main(["transport", "--map", "fold", "--to", fam, w,
                 "--out", str(out)]) == 0
    got = system_from_obj(json.loads(out.read_text()))
    assert got == fold_left(C4, ["e", "C_2"])


def test_transport_transfer_fold(tmp_path, capsys):
    w = _write(tmp_path, "w.json", system_to_obj(f_zero(C4)))
    to = _write(tmp_path, "to.json", {
        "presentation": C4.spec,
        "transfer": [["e", "C_2"]],
        "family": ["e"],
    })
    assert main(["transport", "--map", "transfer-fold", "--to", to, w]) == 0
    doc = json.loads(capsys.readouterr().out)
    W = system_from_obj(doc)
    expected = WeakIndexingSystem.from_sparse(C4, {
        "e": [C4.empty_vset("e"), C4.star_vset("e"),
              C4.vset("e", [("e", 2)])],
        "C_2": [C4.empty_vset("C_2"), C4.star_vset("C_2"),
                C4.orbit_vset("C_2", "e")],
        "C_4": [C4.empty_vset("C_4"), C4.star_vset("C_4")],
    }, validate=False)
    assert W == expected


def _three_free_orbits(tmp_path):
    # generated by 3*[e]@C_2: not aE-unital, so no sparse form describes it
    W = WeakIndexingSystem.from_generators(C2, [C2.orbit_vset("C_2", "e", 3)])
    w = _write(tmp_path, "w.json", system_to_obj(W))
    fam = _write(tmp_path, "fam.json", family_to_obj(C2, ["e", "C_2"]))
    return W, w, fam


def test_join_and_transport_write_the_computed_system(tmp_path, capsys):
    W, w, fam = _three_free_orbits(tmp_path)
    three = C2.orbit_vset("C_2", "e", 3)
    runs = [
        (["join", w, w], join(W, W)),
        (["transport", "--map", "color", "--to", fam, w],
         cocartesian_transport("color", W, frozenset(["e", "C_2"]))),
    ]
    for i, (argv, want) in enumerate(runs):
        out = tmp_path / f"out{i}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote {out}\n", "")
        got = system_from_obj(json.loads(out.read_text()))
        assert got == want
        assert got.member(three) == want.member(three) == YES


def test_stdout_holds_the_document_alone(tmp_path, capsys):
    W, w, fam = _three_free_orbits(tmp_path)
    for argv in (["join", w, w], ["transport", "--map", "color", "--to", fam, w]):
        assert main(argv) == 0
        got = capsys.readouterr()
        assert got.err == ""
        assert system_from_obj(json.loads(got.out)).form == "generated"
    exact = _write(tmp_path, "exact.json", system_to_obj(f_complete(C4)))
    assert main(["join", exact, exact]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert system_from_obj(json.loads(got.out)) == f_complete(C4)


def test_transport_unreachable_target(tmp_path, capsys):
    w = _write(tmp_path, "w.json", system_to_obj(f_complete(C4)))
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e"]))
    assert main(["transport", "--map", "fold", "--to", fam, w]) == 1
    assert "target not above" in capsys.readouterr().out
    # transfer-fold: either part of the target can be too low
    own = [[u, V] for u, V in transfer_of(f_infinity(C4)).strict()]
    for W, pairs, family, what in [
            (f_complete(C4), [], C4.orbit_classes, "transfer system"),
            (f_infinity(C4), own, ["e"], "fold family")]:
        w = _write(tmp_path, "w.json", system_to_obj(W))
        to = _write(tmp_path, "to.json", {
            "presentation": C4.spec, "transfer": pairs, "family": list(family)})
        assert main(["transport", "--map", "transfer-fold", "--to", to, w]) == 1
        out = capsys.readouterr().out
        assert out.startswith("target not above the current value: ")
        assert what in out


def test_transport_rejects_unknown_map(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["transport", "--map", "nope", "--to", "x.json", "y.json"])
    assert err.value.code == 2


# -- rep -------------------------------------------------------------------------


def test_rep_sigma(tmp_path, capsys):
    out = tmp_path / "sigma.json"
    assert main(["rep", "--name", "sigma", "--group", "c2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sigma over" in text and "unital" in text
    doc = json.loads(out.read_text())
    assert doc["label"] == "F^sigma"


def test_rep_bad_requests(capsys):
    assert main(["rep", "--name", "sigma", "--group", "c9"]) == 2
    assert main(["rep", "--name", "tau", "--group", "c2"]) == 2
    assert main(["rep", "--name", "sigma", "--group", "c6"]) == 2
    assert main(["rep", "--name", "sigma", "--group", "bg4"]) == 2


@pytest.mark.parametrize("group", ["cx", "c", "bgx"])
def test_rep_names_a_group_it_cannot_read(group, capsys):
    assert main(["rep", "--name", "sigma", "--group", group]) == 2
    assert capsys.readouterr().err == f"error: unknown group {group!r}\n"


# -- hull ------------------------------------------------------------------------


def test_hull_of_units_is_complete(tmp_path, capsys):
    w = _write(tmp_path, "w.json", system_to_obj(f_zero(C2)))
    out = tmp_path / "hull.json"
    assert main(["hull", w, "--out", str(out)]) == 0
    assert "indexing" in capsys.readouterr().out
    assert system_from_obj(json.loads(out.read_text())) == f_complete(C2)


def test_hull_refuses_a_negative_component_bound(tmp_path, capsys):
    w = _write(tmp_path, "w.json", system_to_obj(f_infinity(C2)))
    assert main(["hull", w, "--component-bound=-1"]) == 2
    assert "component bound -1 is negative" in capsys.readouterr().err
    assert main(["hull", w, "--component-bound=0"]) == 0


# -- malformed input and internal faults --------------------------------------------


def test_malformed_documents_are_bad_input(tmp_path, capsys):
    w = _write(tmp_path, "w.json", system_to_obj(f_zero(C4)))
    not_an_object = _write(tmp_path, "list.json", [1])
    assert main(["transport", "--map", "transfer-fold", "--to", not_an_object,
                 w]) == 2
    levels = _write(tmp_path, "levels.json",
                    {**system_to_obj(f_zero(C4)), "levels": [1]})
    assert main(["validate", levels]) == 2
    pairs = _write(tmp_path, "pairs.json",
                   {**transfer_to_obj(TransferSystem(C4, [])), "pairs": [1, 2]})
    assert main(["transport", "--map", "transfer", "--to", pairs, w]) == 2
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, ["e"]))
    assert main(["fiber", "--R", pairs, "--family", fam]) == 2
    family = _write(tmp_path, "family.json", {
        "presentation": C4.spec, "transfer": [["e", "C_2"]], "family": 3})
    assert main(["transport", "--map", "transfer-fold", "--to", family, w]) == 2
    assert capsys.readouterr().err.count("error:") == 5


MALFORMED_C4 = {
    # (level the V-set is filed under, the V-set)
    "not-sparse": ("e", {"over": "e", "orbits": [["e", 3]]}),
    "wrong-level": ("C_2", {"over": "e", "orbits": [["e", 2]]}),
    "not-closed": ("C_4", {"over": "C_4", "orbits": [["e", 1]]}),
}


@pytest.mark.parametrize("command", ["validate", "join", "hull", "transport"])
@pytest.mark.parametrize("shape", MALFORMED_C4)
def test_sparse_documents_are_checked_on_load(tmp_path, capsys, shape, command):
    obj = system_to_obj(f_zero(C4))
    level, vset = MALFORMED_C4[shape]
    obj["levels"][level].append(vset)
    bad = _write(tmp_path, "bad.json", obj)
    good = _write(tmp_path, "good.json", system_to_obj(f_zero(C4)))
    fam = _write(tmp_path, "fam.json", family_to_obj(C4, C4.orbit_classes))
    argv = {"validate": ["validate", bad], "join": ["join", good, bad],
            "hull": ["hull", bad],
            "transport": ["transport", "--map", "fold", "--to", fam, bad]}
    out_of_shape = shape != "not-closed"   # malformed, not merely unclosed
    assert main(argv[command]) == (2 if out_of_shape else 1)
    out = capsys.readouterr()
    if out_of_shape:
        assert out.out == ""
        assert out.err.startswith("error: ")
    elif command == "validate":
        assert out.out.startswith("not closed: ")
    else:
        assert out.out == ""
        assert out.err.startswith("validation failure: ")


def test_non_integer_multiplicity_is_bad_input(tmp_path, capsys):
    obj = system_to_obj(
        WeakIndexingSystem.from_generators(C2, [C2.star_vset("e")], bound=8))
    obj["generators"] = [{"over": "e", "orbits": [["e", 1.5]]}]
    path = _write(tmp_path, "gen.json", obj)
    for argv in (["validate", path], ["hull", path]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "not an integer" in out.err


def test_internal_faults_are_not_passed_off_as_bad_input(tmp_path, monkeypatch):
    w = _write(tmp_path, "w.json", system_to_obj(f_zero(C2)))

    def broken(W, bound=None):
        raise TypeError("internal fault")

    monkeypatch.setattr("windex.cli.validate_wic", broken)
    with pytest.raises(TypeError, match="internal fault"):
        main(["validate", w])


# -- bounds and entry point ---------------------------------------------------


def test_windex_bound_env_failure(tmp_path, capsys):
    """A generated document whose bound is below its generator is bad
    input (BoundTooSmall)."""
    obj = system_to_obj(
        WeakIndexingSystem.from_generators(C2, [C2.star_vset("e").scale(4)]))
    path = _write(tmp_path, "gen.json", obj)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    obj["bound"] = 2
    path = _write(tmp_path, "small.json", obj)
    assert main(["validate", path]) == 2
    assert "below the largest generator" in capsys.readouterr().err


def test_a_bool_bound_is_bad_input(tmp_path, capsys):
    obj = system_to_obj(
        WeakIndexingSystem.from_generators(C2, [C2.star_vset("e")]))
    obj["bound"] = True
    assert main(["validate", _write(tmp_path, "bool.json", obj)]) == 2
    assert "an integer bound" in capsys.readouterr().err


def test_installed_script_entry_point(tmp_path, monkeypatch):
    """The declared console script, started by name from PATH, runs the CLI
    of the code under test and passes its exit code on.

    The launcher is built here from ``[project.scripts]`` with the lines an
    installer writes, so no install step is needed and no other ``windex``
    on PATH is run in its place."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        value = tomllib.load(f)["project"]["scripts"]["windex"]
    ep = EntryPoint(name="windex", value=value, group="console_scripts")
    assert callable(ep.load())

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "windex"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n")
    launcher.chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH",
                       str(Path(windex.__file__).resolve().parent.parent),
                       prepend=os.pathsep)

    exe = shutil.which("windex")
    assert exe and Path(exe).resolve() == launcher.resolve()
    proc = subprocess.run([exe, "enumerate", "--backend", "point"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "4 aE_unital systems" in proc.stdout, proc.stderr
    proc = subprocess.run([exe, "enumerate", "--class", "nope"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr


def test_cli_import_loads_no_dataclasses():
    # dataclasses (and inspect, which it imports) would add about 11 ms to
    # the start of every CLI process
    src = str(Path(windex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, windex.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
