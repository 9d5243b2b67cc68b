"""JSON round trips for every document kind."""
import json

import pytest

from helpers import diamond_semilattice, s3_table
from windex import (
    NotClosed, SerializationError, Sieve, TransferSystem, WeakIndexingSystem,
    chain_group, classify, dump, dumps, f_complete, f_zero, family_from_obj,
    family_to_obj, finite_group, load, named_rep, one_object_groupoid,
    rep_from_obj, rep_to_obj, serialize, sieve_from_obj, sieve_to_obj,
    slice_restrict_wis, sparse_extract, system_from_obj, system_to_obj,
    transfer_from_obj, transfer_to_obj, trivial_point, vset_from_obj,
    vset_to_obj,
)
from windex.enumeration import enumerate_systems, enumerate_systems_fiberwise
from windex.systems import f_perp_nu


def test_vset_round_trip(C4):
    S = C4.star_vset("C_4") + C4.orbit_vset("C_4", "C_2", 2)
    assert vset_from_obj(C4, vset_to_obj(S)) == S
    with pytest.raises(SerializationError):
        vset_from_obj(C4, {"over": "C_4", "orbits": [["nope", 1]]})
    with pytest.raises(SerializationError):
        vset_from_obj(C4, {"orbits": []})


def test_sparse_system_round_trip(C2):
    for W in enumerate_systems(C2, "aE_unital"):
        again = system_from_obj(system_to_obj(W))
        assert again == W
        assert again.P.key == W.P.key


def test_generated_system_round_trip(C4):
    W = WeakIndexingSystem.from_generators(
        C4, [C4.vset("e", [("e", 2)])], bound=6)
    obj = system_to_obj(W)
    again = system_from_obj(obj)
    assert again.form == "generated"
    assert again.gens == W.gens and again.bound == W.bound


ROUND_TRIP_PRESENTATIONS = {
    "C4": lambda: chain_group(2, 2), "C9": lambda: chain_group(3, 2),
    "S3": lambda: finite_group(s3_table(), name="S3"),
    "diamond": diamond_semilattice, "point": trivial_point,
    "BG2": lambda: one_object_groupoid(2),
}


def _written_form_reads_back_equal(W):
    written = sparse_extract(W)[0]
    assert written == W
    assert system_from_obj(system_to_obj(written)) == W


@pytest.mark.parametrize("name", ROUND_TRIP_PRESENTATIONS)
def test_written_systems_read_back_equal(name):
    P = ROUND_TRIP_PRESENTATIONS[name]()
    for W in enumerate_systems(P, "aE_unital"):
        _written_form_reads_back_equal(W)
    for V in P.orbit_classes:
        _written_form_reads_back_equal(f_complete(P.slice_presentation(V)))


def test_written_generated_systems_read_back_equal(C2, C4):
    star_e = C2.star_vset("e")
    cases = [
        WeakIndexingSystem.from_generators(C2, [C2.orbit_vset("C_2", "e", 3)]),
        WeakIndexingSystem.from_generators(C2, [star_e.scale(3)]),
        WeakIndexingSystem.from_generators(C2, [star_e.scale(2)], bound=5),
        WeakIndexingSystem.from_generators(
            C2, [C2.empty_vset("e"), C2.empty_vset("C_2"), C2.star_vset("C_2")]),
        WeakIndexingSystem.from_generators(
            C4, [C4.empty_vset("C_4"), C4.orbit_vset("C_4", "C_2")]),
    ]
    assert {classify(W)["aE_unital"] for W in cases} == {True, False}
    for W in cases:
        _written_form_reads_back_equal(W)
        assert sparse_extract(W)[0].form == (
            "sparse" if classify(W)["aE_unital"] else "generated")


def test_systems_over_slices_read_back_equal(C4):
    for W in enumerate_systems(C4, "aE_unital"):
        for V in C4.orbit_classes:
            I = slice_restrict_wis(W, V)
            again = system_from_obj(system_to_obj(I), validate=True)
            assert again == I and again.P.key == f"{C4.key}/{V}"


def test_predicate_system_not_serializable(C2):
    with pytest.raises(SerializationError):
        system_to_obj(f_perp_nu(C2, ["e"]))


def test_system_document_shape_checked(C2):
    obj = system_to_obj(f_zero(C2))

    def with_member(level, vset):
        return {**obj, "levels": {**obj["levels"],
                                  level: obj["levels"][level] + [vset]}}

    for broken in (
        {**obj, "form": "mystery"},
        {k: v for k, v in obj.items() if k != "form"},
        {**obj, "presentation": {"backend": "chain"}},
        {**obj, "levels": {**obj["levels"], "bogus": []}},
        {**obj, "kind": "transfer"},
        # a C_2-set filed under level e, and three points, which are not sparse
        with_member("e", {"over": "C_2", "orbits": [["C_2", 1]]}),
        with_member("C_2", {"over": "C_2", "orbits": [["C_2", 3]]}),
    ):
        for validate in (False, True):
            with pytest.raises(SerializationError):
                system_from_obj(broken, validate=validate)


@pytest.mark.parametrize("m", [1.5, 2.0, True])
def test_non_integer_multiplicities_refused_on_load(C2, m):
    vset = {"over": "e", "orbits": [["e", m]]}
    sparse = system_to_obj(f_zero(C2))
    sparse["levels"]["e"] = sparse["levels"]["e"] + [vset]
    generated = system_to_obj(WeakIndexingSystem.from_generators(
        C2, [C2.star_vset("e")], bound=8))
    generated["generators"] = [vset]
    for obj in (sparse, generated):
        for validate in (False, True):
            with pytest.raises(SerializationError, match="not an integer"):
                system_from_obj(obj, validate=validate)


def test_document_shapes_checked(C4):
    R = TransferSystem(C4, [("e", "C_2")])
    system = system_to_obj(f_zero(C4))
    generated = system_to_obj(WeakIndexingSystem.from_generators(
        C4, [C4.star_vset("e")]))
    sieve = sieve_to_obj(Sieve(R, frozenset(["C_2"]), frozenset()))
    for load_obj, broken in (
        (system_from_obj, {**system, "levels": [1]}),
        (system_from_obj, {**system, "levels": {"e": 5}}),
        (system_from_obj, {**generated, "generators": 5}),
        (system_from_obj, {**generated, "bound": "8"}),
        (system_from_obj, {**generated, "bound": True}),
        (transfer_from_obj, {**transfer_to_obj(R), "pairs": [1, 2]}),
        (transfer_from_obj, {**transfer_to_obj(R), "pairs": [["e", "C_2", "C_4"]]}),
        (family_from_obj, {**family_to_obj(C4, ["e"]), "members": "e"}),
        (family_from_obj, {**family_to_obj(C4, ["e"]), "members": [["e"]]}),
        (sieve_from_obj, {**sieve, "scope": 3}),
        (sieve_from_obj, {**sieve, "pairs": [["e"]]}),
        (rep_from_obj, {**rep_to_obj(named_rep(C4, "lambda_cp")), "fixed_dims": [2]}),
    ):
        with pytest.raises(SerializationError):
            load_obj(broken)


def test_transfer_round_trip(C4):
    R = TransferSystem(C4, [("e", "C_2"), ("e", "C_4")])
    assert transfer_from_obj(transfer_to_obj(R)) == R
    with pytest.raises(SerializationError):
        transfer_from_obj({"kind": "transfer", "presentation": C4.spec,
                           "pairs": [["e", "C_4"]]})  # not closed
    with pytest.raises(SerializationError, match="not an orbit"):
        transfer_from_obj({"kind": "transfer", "presentation": C4.spec,
                           "pairs": [["e", "C_99"]]})  # unknown class


def test_family_round_trip(C4):
    obj = family_to_obj(C4, frozenset(["e", "C_2"]))
    P, fam = family_from_obj(obj)
    assert fam == frozenset(["e", "C_2"]) and P.key == C4.key
    with pytest.raises(SerializationError):
        family_from_obj({"kind": "family", "presentation": C4.spec,
                         "members": ["C_2"]})


def test_sieve_round_trip(C4):
    R = TransferSystem(C4, [("e", "C_2"), ("e", "C_4")])
    sv = Sieve(R, frozenset(["C_2", "C_4"]),
               frozenset([("e", "C_2"), ("e", "C_4")]))
    again = sieve_from_obj(sieve_to_obj(sv))
    assert again.pairs == sv.pairs and again.scope == sv.scope
    assert again.R == R
    broken = sieve_to_obj(sv)
    broken["pairs"] = [["e", "C_4"]]  # missing the middle level
    with pytest.raises(SerializationError):
        sieve_from_obj(broken)
    broken = sieve_to_obj(sv)
    broken["transfer"] = [["e", "C_99"]]  # unknown class
    with pytest.raises(SerializationError, match="not an orbit"):
        sieve_from_obj(broken)


def test_rep_round_trip(C4):
    rep = named_rep(C4, "lambda_cp")
    again = rep_from_obj(rep_to_obj(rep))
    assert again == rep and again.name == "lambda_cp"
    with pytest.raises(SerializationError):
        rep_from_obj({"kind": "rep", "presentation": C4.spec,
                      "fixed_dims": {"e": 0, "C_2": 1, "C_4": 0}})


def test_dump_and_load(C2, tmp_path):
    path = tmp_path / "w.json"
    dump(system_to_obj(f_zero(C2)), path)
    assert system_from_obj(load(path)) == f_zero(C2)
    with pytest.raises(SerializationError):
        load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SerializationError):
        load(bad)


def test_dumps_is_stable(C2):
    a = dumps(system_to_obj(f_zero(C2)))
    b = dumps(system_to_obj(f_zero(C2)))
    assert a == b and a.endswith("\n")


def _through_text(objs, validate=False):
    return [system_from_obj(o, validate=validate)
            for o in json.loads(dumps(objs))]


@pytest.mark.parametrize("systems, validate", [
    (lambda: enumerate_systems_fiberwise(chain_group(2, 4), "unital"), False),
    (lambda: enumerate_systems(finite_group(s3_table(), name="S3"),
                               "indexing"), True),
    (lambda: enumerate_systems(diamond_semilattice(), "indexing"), True),
], ids=["C16-unital", "S3-indexing", "diamond-indexing"])
def test_lists_round_trip_in_order(systems, validate):
    systems = systems()
    again = _through_text([system_to_obj(W) for W in systems], validate)
    assert again == systems  # same order too
    assert all(A.P.key == W.P.key for A, W in zip(again, systems))


def test_one_presentation_per_spec(C4, C8):
    fours = _through_text([system_to_obj(W)
                           for W in enumerate_systems_fiberwise(C4, "unital")])
    eights = _through_text([system_to_obj(W)
                            for W in enumerate_systems_fiberwise(C8, "unital")])
    assert len({id(W.P) for W in fours}) == 1
    assert len({id(W.P) for W in eights}) == 1
    assert fours[0].P is not eights[0].P
    assert (fours[0].P.key, eights[0].P.key) == (C4.key, C8.key)
    # other document kinds share it too
    R = transfer_from_obj(transfer_to_obj(TransferSystem(C4, [("e", "C_2")])))
    assert R.P is fours[0].P


def test_no_entry_of_a_sparse_document_is_decoded(monkeypatch):
    """Each entry of a sparse level is one of the sparse V-sets of its
    presentation, and is looked up among them."""
    P = chain_group(2, 4)
    systems = enumerate_systems_fiberwise(P, "unital")
    objs = [system_to_obj(W) for W in systems]
    distinct = {json.dumps(o, sort_keys=True)
                for obj in objs for level in obj["levels"].values() for o in level}
    decoded = []
    decode = serialize.vset_from_obj
    monkeypatch.setattr(serialize, "vset_from_obj",
                        lambda *args: decoded.append(args[1]) or decode(*args))
    assert _through_text(objs) == systems
    assert len(distinct) == 35 and decoded == []     # of 6,700 entries


def test_refusals_do_not_depend_on_what_was_read_before(C4):
    """Each bad entry follows a good copy of its value in its document, and
    the document is read again after the good one."""
    good = system_to_obj(f_zero(C4))
    point = {"over": "e", "orbits": [["e", 1]]}
    assert point in good["levels"]["e"]

    def with_level(V, *entries):
        return {**good, "levels": {**good["levels"], V: list(entries)}}

    for bad, message in (
            (with_level("e", point, {"over": "e", "orbits": [["e", 1.0]]}),
             "multiplicity 1.0 is not an integer"),
            (with_level("e", point, {"over": "e", "orbits": [["e", True]]}),
             "multiplicity True is not an integer"),
            (with_level("e", point, {"over": "e", "orbits": [["e", 1], ["e", 2]]}),
             "level e: 3\\*\\[e\\]@e is not a sparse e-set"),
            (with_level("C_2", point), "level C_2: .* is not a sparse C_2-set")):
        for _ in range(2):
            with pytest.raises(SerializationError, match=message):
                system_from_obj(bad)
            assert system_from_obj(good) == f_zero(C4)


def test_interned_vsets_that_are_not_sparse_are_refused(C4):
    good = system_to_obj(f_zero(C4))
    P = system_from_obj(good).P
    triple = P.vset("e", [("e", 3)])       # interned by P, not sparse
    assert P.sparse_vset("e", triple.orbits) is None
    bad = {**good, "levels": {**good["levels"], "e": [vset_to_obj(triple)]}}
    message = r"level e: 3\*\[e\]@e is not a sparse e-set"
    with pytest.raises(SerializationError, match=message):
        system_from_obj(bad)
    with pytest.raises(NotClosed, match=message):
        WeakIndexingSystem.from_sparse(P, {"e": [triple]})


def test_levels_are_encoded_in_order_of_their_orbits():
    systems = enumerate_systems_fiberwise(chain_group(2, 4), "unital")
    for W in systems:
        want = {V: sorted((vset_to_obj(S) for S in W.sparse_levels[V]),
                          key=lambda o: o["orbits"])
                for V in W.P.orbit_classes}
        assert system_to_obj(W)["levels"] == want


def test_bad_spec_refused_on_every_load(C2):
    cached = serialize._presentation.cache_info().currsize
    for spec in ({"backend": "chain", "p": 4, "n": 1},
                 {"backend": "slice", "at": "e"},
                 {"backend": "slice", "parent": C2.spec, "at": "C_4"},
                 {"backend": "slice", "parent": 5, "at": "e"}):
        obj = {**system_to_obj(f_zero(C2)), "presentation": spec}
        for _ in range(3):
            with pytest.raises(SerializationError, match="bad presentation spec"):
                system_from_obj(obj)
    assert serialize._presentation.cache_info().currsize == cached


def test_validate_runs_the_closure_on_load(C4):
    obj = system_to_obj(f_zero(C4))
    obj["levels"]["C_4"].append({"over": "C_4", "orbits": [["e", 1]]})
    assert system_from_obj(obj).form == "sparse"   # each V-set is sparse
    with pytest.raises(NotClosed, match="not closed"):
        system_from_obj(obj, validate=True)


def test_internal_faults_are_not_passed_off_as_bad_input(monkeypatch):
    """Only what malformed documents raise becomes SerializationError."""
    P = chain_group(2, 1)
    obj = system_to_obj(f_zero(P))

    def broken(*args):
        raise RuntimeError("internal fault")

    serialize._presentation.cache_clear()
    monkeypatch.setattr("windex.serialize.build_presentation", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        system_from_obj(obj)
    monkeypatch.undo()
    monkeypatch.setattr(P, "vset", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        vset_from_obj(P, vset_to_obj(P.star_vset("e")))


def test_dumps_is_compact_json_with_sorted_keys(C4):
    R = TransferSystem(C4, [("e", "C_2")])
    for x in (system_to_obj(f_zero(C4)), [transfer_to_obj(R)],
              {"b": 1, "a": [1, {"d": 2.5, "c": None}], "e": "\u00e9"}):
        assert dumps(x) == json.dumps(x, sort_keys=True) + "\n"
        assert json.loads(dumps(x)) == x


def test_indented_documents_still_load(C4, tmp_path):
    W = enumerate_systems_fiberwise(C4, "unital")[-1]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(system_to_obj(W), sort_keys=True, indent=2) + "\n")
    assert system_from_obj(load(path), validate=True) == W


def test_unreadable_paths_are_bad_input(tmp_path):
    with pytest.raises(SerializationError, match="cannot read"):
        load(tmp_path)   # a directory
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(SerializationError, match="not valid JSON"):
        load(binary)


def test_two_loads_of_a_transfer_document_give_one_object(tmp_path):
    path = tmp_path / "r.json"
    dump(transfer_to_obj(TransferSystem(chain_group(2, 2), [("e", "C_2")])), path)
    first, second = (transfer_from_obj(load(path)) for _ in range(2))
    assert first is second
    assert transfer_from_obj(transfer_to_obj(first)) is first
