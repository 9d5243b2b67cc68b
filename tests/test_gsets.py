import random

import pytest

from windex.groups import GroupTable
from windex.gsets import (
    ConcreteGSet, coinduce_concrete, concretize, disjoint_union,
    indexed_product, induce_concrete, orbit_decompose, point_gset,
    restrict_concrete,
)
from windex.presentation import (
    MismatchedIndex, UnsupportedBackend, chain_group, cyclic_group,
    finite_group, meet_semilattice,
)

from helpers import s3_table


def _presentations():
    return [
        ("C4", chain_group(2, 2)),
        ("C8", chain_group(2, 3)),
        ("C9", chain_group(3, 2)),
        ("C4tab", cyclic_group(2, 2)),
        ("S3", finite_group(s3_table(), name="S3")),
    ]


@pytest.mark.parametrize("name,P", _presentations())
def test_concretize_decompose_round_trip(name, P):
    for V in P.orbit_classes:
        for u in P.slice_keys(V):
            S = P.orbit_vset(V, u)
            X = concretize(P, S)
            assert orbit_decompose(P, X, V) == S
        S = P.vset(V, [(u, 2) for u in P.slice_keys(V)])
        assert orbit_decompose(P, concretize(P, S), V) == S


@pytest.mark.parametrize("name,P", _presentations())
def test_orbits_are_listed_by_least_point_each_sorted(name, P):
    # the points of two copies of every orbit, relabelled so that orbits
    # interleave; a group moves a point onto its whole orbit in one step
    rng = random.Random(name)
    for V in P.orbit_classes:
        X = concretize(P, P.vset(V, [(u, 2) for u in P.slice_keys(V)]))
        new = rng.sample(range(X.n), X.n)
        action = {}
        for h, perm in X.action.items():
            action[h] = [None] * X.n
            for x in range(X.n):
                action[h][new[x]] = new[perm[x]]
        Y = ConcreteGSet(X.group, X.subgroup, X.n, action)
        orbits = {frozenset(perm[x] for perm in action.values()) for x in range(X.n)}
        assert Y.orbits() == sorted(sorted(orbit) for orbit in orbits)


@pytest.mark.parametrize("name,P", _presentations())
def test_restriction_table_matches_concrete_action(name, P):
    """The restriction table is the pullback of honest permutation actions."""
    for V in P.orbit_classes:
        for w in P.slice_keys(V):
            for u in P.slice_keys(V):
                S = P.orbit_vset(V, u)
                expected = P.restrict_orbit(V, w, u)
                X = restrict_concrete(P, V, w, concretize(P, S))
                assert orbit_decompose(P, X, P.slice_cls(V, w)) == expected, \
                    (V, w, u)


@pytest.mark.parametrize("name,P", _presentations())
def test_induction_table_matches_concrete_action(name, P):
    for V in P.orbit_classes:
        for u in P.slice_keys(V):
            U = P.slice_cls(V, u)
            for x in P.slice_keys(U):
                T = P.orbit_vset(U, x)
                expected = P.orbit_vset(V, P.induct_key(V, u, x))
                X = induce_concrete(P, V, u, concretize(P, T))
                assert orbit_decompose(P, X, V) == expected, (V, u, x)


def test_chain_and_tabular_cyclic_agree():
    """Formula-built and table-built C_4 produce identical restriction data."""
    A = chain_group(2, 2)
    B = cyclic_group(2, 2)
    assert A.orbit_classes == B.orbit_classes
    for V in A.orbit_classes:
        assert A.slice_keys(V) == B.slice_keys(V)
        for w in A.slice_keys(V):
            for u in A.slice_keys(V):
                assert A.restrict_orbit(V, w, u) == B.restrict_orbit(V, w, u)


def test_fixed_points_and_stabilizer():
    P = chain_group(2, 2)
    G = P.group
    X = concretize(P, P.orbit_vset("C_4", "C_2"))
    assert X.n == 2
    assert len(X.fixed_points()) == 0
    K = P.slice_rep[("C_4", "C_2")]
    assert X.fixed_points(K) == [0, 1]
    assert X.stabilizer(0) == K


def test_coinduction_norm_doubles_a_free_orbit():
    # CoInd from C_2 to C_4 of the free C_2-orbit is the free C_4-orbit
    P = chain_group(2, 2)
    T = concretize(P, P.orbit_vset("C_2", "e"))
    X = coinduce_concrete(P, "C_4", "C_2", T)
    assert orbit_decompose(P, X, "C_4") == P.orbit_vset("C_4", "e")


def test_indexed_product_over_empty_is_terminal():
    P = chain_group(2, 2)
    S = P.empty_vset("C_4")
    assert indexed_product(P, S, []) == P.star_vset("C_4")


def test_indexed_product_over_point_is_identity():
    P = chain_group(2, 2)
    S = P.star_vset("C_4")
    for T in [P.orbit_vset("C_4", "e"), P.vset("C_4", [("C_2", 1), ("C_4", 2)])]:
        assert indexed_product(P, S, [T]) == T


def test_indexed_product_norm_of_doubled_point():
    # squaring a doubled point along [C_4/C_2]: the two diagonal tuples are
    # fixed, the off-diagonal pair forms one [C_4/C_2] orbit
    P = chain_group(2, 2)
    S = P.orbit_vset("C_4", "C_2")
    T = [P.vset("C_2", [("C_2", 2)])]
    got = indexed_product(P, S, T)
    assert got == P.vset("C_4", [("C_4", 2), ("C_2", 1)])


def test_indexed_product_norm_of_free_orbit():
    # squaring the free C_2-orbit along [C_4/C_2] gives a free orbit: the
    # four tuples form a single free C_4-orbit
    P = chain_group(2, 2)
    S = P.orbit_vset("C_4", "C_2")
    got = indexed_product(P, S, [P.orbit_vset("C_2", "e")])
    assert got == P.orbit_vset("C_4", "e")


def test_indexed_product_component_class_mismatch():
    P = chain_group(2, 2)
    S = P.orbit_vset("C_4", "C_2")
    with pytest.raises(MismatchedIndex):
        indexed_product(P, S, [P.star_vset("C_4")])


def test_group_data_required():
    L = meet_semilattice(["0", "1"], {"0": {"0": "0", "1": "0"},
                                      "1": {"0": "0", "1": "1"}})
    with pytest.raises(UnsupportedBackend):
        concretize(L, L.star_vset("1"))


def test_action_validation_catches_non_action():
    G = GroupTable.cyclic(2)
    with pytest.raises(ValueError):
        ConcreteGSet(G, frozenset({0, 1}), 2, {0: (0, 1), 1: (0, 0)})
