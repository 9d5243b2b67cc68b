import copy
import pickle

import pytest

from windex.presentation import (
    InvalidSpec, MismatchedIndex, NoSuchMap, OrbitalPresentation, TooLarge, VSet,
    build_presentation, chain_group, cyclic_group, finite_group,
    indexed_coproduct, meet_semilattice, one_object_groupoid, sub_multisets,
    trivial_point, validate_presentation,
)
from windex.systems import downward_closure

from helpers import (
    a4_table, a5_table, c6_table, chain_restrict_oracle, d8_table,
    klein_table, q8_table, s3_table, scanned_downward_closure, subsets,
)


DIAMOND = {
    "0": {"0": "0", "a": "0", "b": "0", "1": "0"},
    "a": {"0": "0", "a": "a", "b": "0", "1": "a"},
    "b": {"0": "0", "a": "0", "b": "b", "1": "b"},
    "1": {"0": "0", "a": "a", "b": "b", "1": "1"},
}


def diamond_lattice():
    return meet_semilattice(["0", "a", "b", "1"], DIAMOND)


@pytest.mark.parametrize("P", [
    chain_group(2, 2), chain_group(3, 1), chain_group(2, 3),
    cyclic_group(2, 2), cyclic_group(3, 1),
    trivial_point(), one_object_groupoid(4),
    finite_group(klein_table(), name="C2xC2"),
    finite_group(c6_table(), name="C6"), finite_group(q8_table(), name="Q8"),
    finite_group(a4_table(), name="A4"), finite_group(d8_table(), name="D8"),
])
def test_backends_validate(P):
    report = validate_presentation(P)
    assert report.ok, report.failures


def test_semilattice_validates():
    report = validate_presentation(diamond_lattice())
    assert report.ok, report.failures


def test_s3_presentation_validates():
    P = finite_group(s3_table(), name="S3")
    report = validate_presentation(P)
    assert report.ok, report.failures
    assert len(P.orbit_classes) == 4  # e, the reflections, the rotation, S3


@pytest.mark.parametrize("make", [
    lambda: finite_group(s3_table(), name="S3"),
    lambda: finite_group(c6_table(), name="C6"),
    lambda: finite_group(klein_table(), name="C2xC2"),
    lambda: finite_group(q8_table(), name="Q8"),
    lambda: finite_group(a4_table(), name="A4"),
    lambda: finite_group(d8_table(), name="D8"),
    pytest.param(lambda: finite_group(a5_table(), name="A5"),
                 marks=pytest.mark.slow),
    lambda: chain_group(2, 3), lambda: chain_group(3, 2),
    lambda: cyclic_group(2, 3), lambda: cyclic_group(3, 2),
], ids=["S3", "C6", "C2xC2", "Q8", "A4", "D8", "A5", "chain-C8", "chain-C9",
        "cyclic-C8", "cyclic-C9"])
def test_subgroup_key_is_the_key_of_the_conjugacy_class(make):
    # the oracle: the one slice key over V = [G/H] whose representative is
    # H-conjugate to K, for every subgroup K of H
    P = make()
    G = P.group
    subgroups = G.subgroups()
    for V in P.orbit_classes:
        H = P.class_rep[V]
        keys = P.subgroup_key[V]
        assert set(keys) == {K for K in subgroups if K <= H}
        for K, key in keys.items():
            assert [k for k in P.slice_keys(V) if G.subgroups_conjugate(
                K, P.slice_rep[(V, k)], H)] == [key], (V, sorted(K))
        for k in P.slice_keys(V):
            assert keys[P.slice_rep[(V, k)]] == k


def test_subgroup_key_only_with_concrete_group_data():
    for P in (trivial_point(), one_object_groupoid(2), diamond_lattice()):
        assert P.class_rep is None and P.subgroup_key is None


def test_vset_refuses_non_integer_multiplicities():
    P = chain_group(2, 1)
    for m in (1.5, 2.0, True, False, "1", None):
        with pytest.raises(InvalidSpec, match="not an integer"):
            P.vset("C_2", [("e", m)])
    assert P.vset("C_2", [("e", 2), ("C_2", 0)]) == P.orbit_vset("C_2", "e", 2)


def test_chain_classes_and_points():
    P = chain_group(2, 3)
    assert P.orbit_classes == ("e", "C_2", "C_4", "C_8")
    # the orbit C_8/C_2 has index 4
    assert P.slice_points("C_8", "C_2") == 4
    assert P.star_key("C_8") == "C_8"


def test_chain_restriction_matches_counting_formula():
    p, n = 2, 3
    P = chain_group(p, n)
    labels = P.orbit_classes
    for v in range(n + 1):
        V = labels[v]
        for l in range(v + 1):
            for k in range(v + 1):
                copies, level = chain_restrict_oracle(p, v, l, k)
                got = P.restrict_orbit(V, labels[l], labels[k])
                assert got.over == labels[l]
                assert got.orbits == ((labels[level], copies),)


def test_restriction_failure_modes():
    P = chain_group(2, 1)
    with pytest.raises(NoSuchMap):
        P.restrict_orbit("e", "C_2", "e")
    with pytest.raises(NoSuchMap, match="no map-class 'x' over 'C_2'"):
        P.restrict("x", P.star_vset("C_2"))
    with pytest.raises(KeyError):
        P.restrict_orbit("C_2", "nope", "e")


def test_vset_algebra():
    P = chain_group(2, 2)
    S = P.vset("C_4", [("e", 1), ("C_2", 2)])
    assert P.points(S) == 4 + 2 * 2
    assert S.mult("C_2") == 2
    assert (S + P.star_vset("C_4")).mult("C_4") == 1
    assert S.scale(2).mult("e") == 2
    with pytest.raises(MismatchedIndex):
        S + P.star_vset("C_2")
    assert str(P.empty_vset("e")) == "0@e"


def test_vset_is_canonical():
    C2 = chain_group(2, 1)
    with pytest.raises(InvalidSpec):
        VSet("C_2", (("e", 0),))
    with pytest.raises(InvalidSpec):
        VSet("C_2", (("e", 1), ("C_2", 1)))    # keys out of order
    with pytest.raises(InvalidSpec):
        VSet("C_2", (("e", 1), ("e", 1)))      # repeated key
    assert VSet("C_2", ()) == C2.empty_vset("C_2")
    assert VSet("C_2", (("C_2", 1), ("e", 2))) == \
        C2.vset("C_2", [("e", 2), ("C_2", 1)])


def test_sub_multisets_counts():
    P = chain_group(2, 2)
    S = P.vset("C_4", [("e", 1), ("C_2", 2)])
    subs = list(sub_multisets(S))
    assert len(subs) == 2 * 3  # one orbit of mult 1, one of mult 2
    assert P.empty_vset("C_4") in subs and S in subs


def test_indexed_coproduct_against_direct_expansion():
    P = chain_group(2, 2)
    S = P.vset("C_4", [("C_2", 1), ("C_4", 1)])
    components = {
        "C_2": P.vset("C_2", [("e", 1)]),
        "C_4": P.vset("C_4", [("C_2", 1)]),
    }
    T = [components[P.slice_cls("C_4", k)] for k in S.expand()]
    out = indexed_coproduct(P, S, T)
    # Ind_{C_2}^{C_4}[C_2/e] = [C_4/e] and the point component passes through
    assert out == P.vset("C_4", [("e", 1), ("C_2", 1)])


def test_indexed_coproduct_needs_matching_components():
    P = chain_group(2, 2)
    S = P.orbit_vset("C_4", "C_2")
    with pytest.raises(MismatchedIndex):
        indexed_coproduct(P, S, [P.star_vset("C_4")])
    point = P.star_vset("C_2")
    with pytest.raises(MismatchedIndex, match="2 components for 1 orbits"):
        indexed_coproduct(P, S, [point, point])
    assert indexed_coproduct(P, S, [point]) == \
        indexed_coproduct(P, S, (point,)) == S
    # the components are a list or tuple aligned with S.expand(), nothing else
    for components in ({"C_2": point}, iter([point]), point):
        with pytest.raises(MismatchedIndex, match="must be a list or tuple"):
            indexed_coproduct(P, S, components)


def test_slice_presentation_of_chain_is_shorter_chain():
    P = chain_group(2, 3)
    Q = P.slice_presentation("C_4")
    assert tuple(Q.orbit_classes) == ("e", "C_2", "C_4")
    report = validate_presentation(Q)
    assert report.ok, report.failures


def test_slice_presentation_of_s3_slice_validates():
    P = finite_group(s3_table(), name="S3")
    for V in P.orbit_classes:
        Q = P.slice_presentation(V)
        report = validate_presentation(Q)
        assert report.ok, (V, report.failures)


def _tables(P):
    return (P.key, P.spec, P.orbit_classes, P._slices, P._star, P._cls,
            P._points, P._res, P._ind)


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 2), lambda: finite_group(s3_table(), name="S3"),
    diamond_lattice, trivial_point, lambda: one_object_groupoid(2),
    lambda: cyclic_group(2, 3),
], ids=["C4", "S3", "diamond", "point", "BG2", "C8-table"])
def test_slice_specs_build_the_slice(make):
    P = make()
    for V in P.orbit_classes:
        Q = P.slice_presentation(V)
        assert _tables(build_presentation(Q.spec)) == _tables(Q)
        for u in Q.orbit_classes:
            QQ = Q.slice_presentation(u)
            assert _tables(build_presentation(QQ.spec)) == _tables(QQ)


def _corrupted(P, table, key, value):
    """A copy of P with one entry of one of its tables changed."""
    tables = {"restriction": dict(P._res), "induction": dict(P._ind),
              "points": dict(P._points), "cls_of": dict(P._cls)}
    assert key in tables[table]
    tables[table][key] = value
    return OrbitalPresentation(
        key=P.key, spec=P.spec, orbit_classes=P.orbit_classes,
        slices=P._slices, star=P._star, **tables)


# each axiom of validate_presentation, and one C_4 table entry that breaks it
CORRUPTIONS = {
    "identity-restriction": ("restriction", ("C_4", "C_4", "C_2"), [("C_4", 2)]),
    "terminal-to-terminal": ("restriction", ("C_4", "C_2", "C_4"), [("e", 1)]),
    "point-count-preservation": ("restriction", ("C_4", "e", "C_2"), [("e", 3)]),
    "restriction-pasting": ("restriction", ("C_2", "C_2", "e"), [("C_2", 2)]),
    "atomicity": ("induction", ("C_4", "C_2", "e"), "C_4"),
    "fixed-point-property": ("restriction", ("C_4", "C_2", "C_2"), [("e", 1)]),
    "induction-unit": ("induction", ("C_4", "C_2", "C_2"), "C_4"),
    "induction-point-count": ("points", ("C_4", "e"), 5),
    "induction-class-preservation": ("induction", ("C_4", "C_2", "e"), "C_2"),
    "induction-associativity": ("induction", ("C_2", "C_2", "e"), "C_2"),
}


def test_every_axiom_has_a_corruption():
    assert set(CORRUPTIONS) == set(validate_presentation(chain_group(2, 2)).checks)


@pytest.mark.parametrize("axiom", CORRUPTIONS)
def test_a_corrupted_table_fails_its_axiom(axiom):
    report = validate_presentation(_corrupted(chain_group(2, 2), *CORRUPTIONS[axiom]))
    ok, witness = report.checks[axiom]
    assert not ok and witness
    assert not report.ok
    assert report.failures[axiom] == witness
    assert report.failures == {
        name: w for name, (ok, w) in report.checks.items() if not ok}
    lines = str(report).splitlines()
    assert f"FAIL {axiom}: {witness}" in lines
    assert len(lines) == len(report.checks)
    assert sum(line.startswith("PASS ") for line in lines) == \
        len(report.checks) - len(report.failures)
    intact = validate_presentation(chain_group(2, 2))
    assert report != intact == validate_presentation(chain_group(2, 2))


# a C_4 table entry changed so that some check looks up an entry the tables
# lack: a check, and the missing entry it reports
MISSING_ENTRIES = [
    ("induction", ("C_4", "C_2", "C_2"), "e", "induction-associativity",
     "no induction entry ('C_4', 'e', 'C_2')"),
    ("cls_of", ("C_4", "e"), "C_2", "induction-unit",
     "no induction entry ('C_4', 'e', 'C_2')"),
    ("cls_of", ("C_4", "e"), "X", "terminal-to-terminal",
     "no table entry 'X'"),
]


@pytest.mark.parametrize("table,key,value,check,missing", MISSING_ENTRIES,
                         ids=["induction-to-e", "cls-to-C_2", "cls-to-unknown"])
def test_a_missing_table_entry_fails_the_check_that_meets_it(
        table, key, value, check, missing):
    report = validate_presentation(_corrupted(chain_group(2, 2), table, key, value))
    assert not report.ok
    assert report.checks[check] == (False, missing)
    assert set(report.checks) == set(CORRUPTIONS)
    lines = str(report).splitlines()
    assert len(lines) == len(report.checks)
    assert f"FAIL {check}: {missing}" in lines


def test_hom_exists_is_occurrence_as_slice():
    P = chain_group(2, 2)
    assert P.hom_exists("e", "C_4")
    assert P.hom_exists("C_2", "C_4")
    assert not P.hom_exists("C_4", "C_2")
    L = diamond_lattice()
    assert L.hom_exists("0", "a")
    assert not L.hom_exists("a", "b")


@pytest.mark.parametrize("build, message", [
    (lambda: meet_semilattice(["0", "0"], lambda a, b: "0"), "duplicate"),
    (lambda: meet_semilattice(["0", "1"], lambda a, b: "2"), "not an element"),
    (lambda: meet_semilattice(["0", "1"], lambda a, b: a), "not commutative"),
    (lambda: meet_semilattice(["0", "1"], lambda a, b: "0"), "not idempotent"),
    # rock, paper, scissors: each pair meets in the third
    (lambda: meet_semilattice(["r", "p", "s"], lambda a, b: a if a == b else
                              ({"r", "p", "s"} - {a, b}).pop()),
     "not associative"),
    (lambda: one_object_groupoid(0), "order must be positive"),
    (lambda: chain_group(2, -1), "must be nonnegative"),
], ids=["duplicate", "not-an-element", "not-commutative", "not-idempotent",
        "not-associative", "groupoid-0", "chain-negative"])
def test_bad_specs_are_refused(build, message):
    with pytest.raises(InvalidSpec, match=message):
        build()


def test_group_order_is_capped():
    table = [[(a + b) % 61 for b in range(61)] for a in range(61)]
    with pytest.raises(TooLarge, match="group order 61 exceeds cap 60"):
        finite_group(table)


def test_build_presentation_dispatch():
    assert build_presentation({"backend": "chain", "p": 3, "n": 1}).key == \
        chain_group(3, 1).key
    assert build_presentation({"backend": "point"}).orbit_classes == ("pt",)
    with pytest.raises(InvalidSpec):
        build_presentation({"backend": "nope"})
    with pytest.raises(InvalidSpec):
        build_presentation({"backend": "chain", "p": 4, "n": 1})


def test_vsets_up_to_counts():
    P = chain_group(2, 2)
    # over C_4 with at most 4 points: 0, *, 2*, 3*, 4*, [C_2], [C_2]+*,
    #   [C_2]+2*, 2[C_2], [e]
    assert len(list(P.vsets_up_to("C_4", 4))) == 10


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 2), lambda: chain_group(3, 2),
    lambda: finite_group(s3_table(), name="S3"), diamond_lattice,
], ids=["C4", "C9", "S3", "diamond"])
def test_fixed_points_are_the_terminal_multiplicity_of_the_restriction(make):
    P = make()
    for V in P.orbit_classes:
        for w in P.slice_keys(V):
            star = P.star_key(P.slice_cls(V, w))
            for S in P.vsets_up_to(V, 6):
                assert P.fixed_points(V, w, S.orbits) == \
                    P.restrict(w, S).mult(star), (V, w, S)


def test_fixed_points_need_table_entries():
    P = chain_group(2, 2)
    assert P.fixed_points("C_4", "C_2", ()) == 0
    with pytest.raises(NoSuchMap):
        P.fixed_points("C_2", "C_4", ())
    with pytest.raises(NoSuchMap):
        P.fixed_points("C_2", "e", [("C_4", 1)])


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 2), lambda: finite_group(s3_table(), name="S3"),
    diamond_lattice,
], ids=["C4", "S3", "diamond"])
def test_restriction_keys_are_the_orbits_of_the_restriction(make):
    P = make()
    for V in P.orbit_classes:
        for w in P.slice_keys(V):
            for u in P.slice_keys(V):
                assert P.restriction_keys(V, w, u) == \
                    P.restrict_orbit(V, w, u).support, (V, w, u)


def test_restriction_keys_need_table_entries():
    P = chain_group(2, 2)
    with pytest.raises(NoSuchMap):
        P.restriction_keys("C_2", "C_4", "e")
    with pytest.raises(NoSuchMap):
        P.restriction_keys("C_4", "nope", "e")


INTERNED = {
    "C4": lambda: chain_group(2, 2), "C9": lambda: chain_group(3, 2),
    "C8": lambda: chain_group(2, 3),
    "S3": lambda: finite_group(s3_table(), name="S3"),
}


@pytest.mark.parametrize("name", INTERNED)
def test_vset_hands_out_one_object_per_value(name):
    P = INTERNED[name]()
    for V in P.orbit_classes:
        star = P.star_key(V)
        assert P.empty_vset(V) is P.vset(V) is P.vset(V, {})
        assert P.star_vset(V) is P.vset(V, [(star, 1)]) is P.orbit_vset(V, star)
        assert P.double_vset(V) is P.vset(V, {star: 2}) is \
            P.vset(V, [(star, 1), (star, 1)]) is P.orbit_vset(V, star, 2)
        for k in P.slice_keys(V):
            assert P.orbit_vset(V, k) is P.vset(V, [(k, 1), (star, 0)])
        for w in P.slice_keys(V):
            for u in P.slice_keys(V):
                S = P.restrict_orbit(V, w, u)
                assert S is P.restrict_orbit(V, w, u)
                assert S is P.vset(S.over, list(S.orbits))
        for S in P.vsets_up_to(V, 6):
            pairs = list(S.orbits)
            got = P.vset(V, pairs)
            assert got == S and got is not S
            assert got is P.vset(V, pairs[::-1]) is P.vset(V, dict(pairs))
            # built directly: equal by content, with the same hash
            direct = VSet(S.over, S.orbits)
            assert direct == got and got == direct
            assert hash(direct) == hash(got) == hash((S.over, S.orbits))


def test_vset_is_refused_after_its_value_is_interned():
    # 1.0, True and 1 hash alike: a table keyed by raw input would let the
    # first two through once the third was interned
    P = chain_group(2, 2)
    for V in P.orbit_classes:
        for k in P.slice_keys(V):
            P.vset(V, [(k, 1)])
            P.orbit_vset(V, k)
            for bad in ([(k, 1.0)], [(k, True)], [(k, -1)], {k: 1.0}):
                with pytest.raises(InvalidSpec):
                    P.vset(V, bad)
            for mult in (1.0, True, -1, "1"):
                with pytest.raises(InvalidSpec):
                    P.orbit_vset(V, k, mult)
        with pytest.raises(InvalidSpec):
            P.vset(V, [("C_99", 1)])
        with pytest.raises(InvalidSpec):
            P.orbit_vset(V, "C_99")
    for make in (P.star_vset, P.empty_vset, P.double_vset):
        with pytest.raises(InvalidSpec):
            make("C_99")
    with pytest.raises(InvalidSpec):
        P.orbit_vset("C_99", "e")
    with pytest.raises(InvalidSpec):
        P.vset("C_99")


def test_vset_is_an_immutable_ordered_value():
    P = chain_group(2, 2)
    S = P.vset("C_4", [("e", 1), ("C_2", 2)])
    with pytest.raises(AttributeError):
        S.over = "C_2"
    with pytest.raises(AttributeError):
        S.orbits = ()
    with pytest.raises(AttributeError):
        del S.orbits
    assert repr(S) == "VSet(over='C_4', orbits=(('C_2', 2), ('e', 1)))"
    assert str(S) == "2*[C_2] + [e]@C_4"
    assert sorted([P.star_vset("C_4"), S, P.empty_vset("C_2")]) == \
        [P.empty_vset("C_2"), S, P.star_vset("C_4")]
    assert P.empty_vset("C_2") < S <= S and S >= S > P.empty_vset("C_2")
    assert S != ("C_4", S.orbits)
    for twin in (pickle.loads(pickle.dumps(S)), copy.copy(S), copy.deepcopy(S)):
        assert twin == S and hash(twin) == hash(S)


def test_vset_scale_refuses_factors_that_are_not_integers():
    P = chain_group(2, 1)
    point = P.star_vset("e")
    for factor in (1.5, 2.0, True, False, "2"):
        with pytest.raises(InvalidSpec):
            point.scale(factor)
    with pytest.raises(InvalidSpec):
        point.scale(-1)
    assert point.scale(0) == P.empty_vset("e")
    assert point.scale(3) == P.vset("e", [("e", 3)])


TABLES = {
    "C4": lambda: chain_group(2, 2), "C9": lambda: chain_group(3, 2),
    "C8": lambda: chain_group(2, 3), "C8-table": lambda: cyclic_group(2, 3),
    "S3": lambda: finite_group(s3_table(), name="S3"),
    "C6": lambda: finite_group(c6_table(), name="C6"),
    "C2xC2": lambda: finite_group(klein_table(), name="C2xC2"),
    "Q8": lambda: finite_group(q8_table(), name="Q8"),
    "A4": lambda: finite_group(a4_table(), name="A4"),
    "D8": lambda: finite_group(d8_table(), name="D8"),
    "diamond": diamond_lattice, "point": trivial_point,
    "BG2": lambda: one_object_groupoid(2),
}


@pytest.mark.parametrize("name", TABLES)
def test_down_sets_equal_the_slice_scan(name):
    # on the table and on each of its slices: each class's down-set, every
    # downward closure, and hom_exists
    P = TABLES[name]()
    for Q in [P] + [P.slice_presentation(V) for V in P.orbit_classes]:
        for V in Q.orbit_classes:
            assert Q.down_sets[V] == scanned_downward_closure(Q, [V])
            for U in Q.orbit_classes:
                assert Q.hom_exists(U, V) == (U in Q.down_sets[V])
        for classes in subsets(Q.orbit_classes):
            assert downward_closure(Q, classes) == \
                scanned_downward_closure(Q, classes), classes
