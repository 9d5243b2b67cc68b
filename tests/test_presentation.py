import pytest

from windex.presentation import (
    InvalidSpec, MismatchedIndex, NoSuchMap, VSet, build_presentation,
    chain_group, cyclic_group, finite_group, indexed_coproduct,
    meet_semilattice, one_object_groupoid, sub_multisets, trivial_point,
    validate_presentation,
)

from helpers import chain_restrict_oracle, s3_table


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


def test_hom_exists_is_occurrence_as_slice():
    P = chain_group(2, 2)
    assert P.hom_exists("e", "C_4")
    assert P.hom_exists("C_2", "C_4")
    assert not P.hom_exists("C_4", "C_2")
    L = diamond_lattice()
    assert L.hom_exists("0", "a")
    assert not L.hom_exists("a", "b")


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
