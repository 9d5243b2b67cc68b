"""Algebraic laws checked exhaustively over enumerated posets.

Every loop here is either exhaustive over an enumerated class (13 systems at
height one, 21 at height two) or runs the full cross product of such classes,
so each law gets thousands of concrete instances.
"""
import itertools

import pytest

from windex import (
    NO, WeakIndexingSystem, YES, chain_group, classify, concretize,
    enumerate_transfer_systems, f_complete, f_perp_nu, f_trivial, f_zero,
    finite_group, join, leq, meet, minimal_unital, orbit_decompose,
    restrict_concrete, sparse_extract, transfer_closure, transfer_of,
    transfer_to_indexing, validate_wic,
)
from windex.enumeration import enumerate_systems

from helpers import s3_table


@pytest.fixture(scope="module")
def ae13(C2):
    return enumerate_systems(C2, "aE_unital")


@pytest.fixture(scope="module")
def unital21(C4):
    return enumerate_systems(C4, "unital")


# -- lattice laws (169 pairs, 2197 triples) ---------------------------------------


def test_join_meet_commute(ae13, C2):
    for a, b in itertools.product(ae13, ae13):
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)
    # generated and non-aE systems join by generators and compare by content
    pool = _pool(C2)
    for a, b in itertools.product(pool[len(ae13):], pool):
        assert join(a, b) == join(b, a)


def test_absorption_and_idempotence(ae13):
    for a, b in itertools.product(ae13, ae13):
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a
    for a in ae13:
        assert join(a, a) == a and meet(a, a) == a


def test_join_associative(ae13):
    for a, b, c in itertools.product(ae13, ae13, ae13):
        assert join(join(a, b), c) == join(a, join(b, c))


def test_meet_associative(ae13):
    for a, b, c in itertools.product(ae13, ae13, ae13):
        assert meet(meet(a, b), c) == meet(a, meet(b, c))


def test_order_agrees_with_operations(ae13):
    for a, b in itertools.product(ae13, ae13):
        below = leq(a, b) == YES
        assert below == (join(a, b) == b)
        assert below == (meet(a, b) == a)


def test_meet_is_levelwise_intersection(ae13, C2):
    for a, b in itertools.product(ae13, ae13):
        m = meet(a, b)
        for V in C2.orbit_classes:
            assert m.sparse_levels[V] == \
                a.sparse_levels[V] & b.sparse_levels[V]


# -- Galois correspondences, one per adjoint ------------------------------------


def test_color_adjoints(ae13, C2):
    from windex import enumerate_families
    for fam in enumerate_families(C2):
        lo, hi = f_trivial(C2, fam), f_complete(C2, fam)
        for W in ae13:
            color = W.families()["color"]
            assert (leq(lo, W) == YES) == (fam <= color)
            assert (leq(W, hi) == YES) == (color <= fam)


def test_unit_left_adjoint(ae13, C2):
    from windex import enumerate_families
    for fam in enumerate_families(C2):
        lo = f_zero(C2, fam)
        for W in ae13:
            assert (leq(lo, W) == YES) == (fam <= W.families()["unit"])


def test_unit_has_no_right_adjoint(C2):
    # a largest system with units inside {e} would have to contain both of
    # these, yet their join acquires the unit at C_2
    fam = frozenset(["e"])
    W1 = f_zero(C2, fam)
    W2, exact = sparse_extract(f_perp_nu(C2, frozenset()))
    assert not exact  # the sparse members only underapproximate it
    assert W1.families()["unit"] <= fam
    assert W2.families()["unit"] <= fam
    J = join(W1, W2)
    assert J.families()["unit"] == frozenset(C2.orbit_classes)
    sp, exact = sparse_extract(J)
    assert exact and sp == f_complete(C2)


def test_transfer_adjoints_at_height_one(C2):
    unital = [W for W in enumerate_systems(C2, "unital")]
    for R in enumerate_transfer_systems(C2):
        for W in unital:
            fR = transfer_of(W)
            assert (leq(minimal_unital(R), W) == YES) == (R <= fR)
            assert (leq(W, transfer_to_indexing(R)) == YES) == (fR <= R)


# -- compatibility of invariants with joins ----------------------------------------


def _pool(C2):
    systems = list(enumerate_systems(C2, "aE_unital"))
    star = C2.star_key("e")
    systems.append(WeakIndexingSystem.from_generators(
        C2, [C2.vset("e", [(star, 2)])]))
    systems.append(WeakIndexingSystem.from_generators(
        C2, [C2.star_vset("C_2") + C2.orbit_vset("C_2", "e")]))
    ex, _ = sparse_extract(f_perp_nu(C2, frozenset()))
    systems.append(ex)
    return systems


def test_color_and_eps_add_under_join(C2):
    pool = _pool(C2)
    for a, b in itertools.product(pool, pool):
        J = join(a, b)
        fa, fb, fj = a.families(), b.families(), J.families()
        assert fj["color"] == fa["color"] | fb["color"]
        assert fj["eps"] == fa["eps"] | fb["eps"]


def test_unit_adds_under_join_only_for_ae_pairs(C2, ae13):
    for a, b in itertools.product(ae13, ae13):
        assert join(a, b).families()["unit"] == \
            a.families()["unit"] | b.families()["unit"]
    pool = _pool(C2)
    grew = 0
    for a, b in itertools.product(pool, pool):
        fa, fb = a.families()["unit"], b.families()["unit"]
        fj = join(a, b).families()["unit"]
        assert fa | fb <= fj
        if fa | fb != fj:
            grew += 1
    assert grew  # outside the matched-families class the unit family can jump


def test_transfer_and_fold_add_under_join(unital21):
    for a, b in itertools.product(unital21, unital21):
        J = join(a, b)
        assert transfer_of(J) == transfer_closure(
            a.P, transfer_of(a).pairs | transfer_of(b).pairs)
        assert J.families()["fold"] == \
            a.families()["fold"] | b.families()["fold"]


# -- restriction against the concrete double-coset oracle ----------------------------


@pytest.mark.parametrize("P_maker", [
    lambda: finite_group(s3_table(), name="S3"),
    lambda: chain_group(3, 2),
])
def test_restriction_table_matches_concrete_orbits(P_maker):
    P = P_maker()
    for V in P.orbit_classes:
        for w in P.slice_keys(V):
            for u in P.slice_keys(V):
                X = concretize(P, P.orbit_vset(V, P.slice_cls(V, u)))
                got = orbit_decompose(P, restrict_concrete(P, V, w, X),
                                      P.slice_cls(V, w))
                assert got == P.restrict_orbit(V, w, u)


# -- axiom profiles across an enumerated class ---------------------------------------


def test_axiom_profiles_of_height_one_systems(ae13, C2):
    everything = frozenset(C2.orbit_classes)
    for W in ae13:
        report = validate_wic(W)
        assert report["restriction-stable"][0], W
        assert report["segal"][0]
        flags = classify(W)
        assert flags["indexing"] == (
            flags["unital"] and W.families()["fold"] == everything)

    report = validate_wic(f_zero(C2))
    assert not report["all-folds"][0]
    report = validate_wic(f_complete(C2))
    assert all(ok for ok, _ in report.values())
    report = validate_wic(f_perp_nu(C2, ["e"]), bound=4)
    assert not report["summand-closed"][0]
