import pytest

from windex.groups import GroupTable, NotAGroup

from helpers import (
    a4_table, a5_table, c6_table, klein_table, q8_table, s3_table,
    scanned_subgroups,
)


def test_cyclic_table_is_a_group():
    G = GroupTable.cyclic(6)
    assert G.n == 6
    assert G.mul(4, 5) == 3
    assert G.inv(4) == 2
    assert G.e == 0


def test_bad_table_rejected():
    with pytest.raises(NotAGroup):
        GroupTable([[0, 1], [1, 1]])  # not a Latin square
    z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    z5[3], z5[4] = z5[4], z5[3]  # still Latin, no longer a group
    with pytest.raises(NotAGroup):
        GroupTable(z5)
    with pytest.raises(NotAGroup, match="not associative"):
        GroupTable([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def test_identity_found_anywhere():
    # relabeled Z/2 with the identity at index 1
    G = GroupTable([[1, 0], [0, 1]])
    assert G.e == 1
    assert G.inv(0) == 0


def test_cyclic_subgroups_by_divisor():
    G = GroupTable.cyclic(12)
    subs = G.subgroups()
    assert len(subs) == 6  # one per divisor of 12
    sizes = sorted(len(H) for H in subs)
    assert sizes == [1, 2, 3, 4, 6, 12]


def test_s3_subgroups_and_conjugacy():
    G = GroupTable(s3_table())
    subs = G.subgroups()
    assert sorted(len(H) for H in subs) == [1, 2, 2, 2, 3, 6]
    two = [H for H in subs if len(H) == 2]
    full = frozenset(range(6))
    assert G.subgroups_conjugate(two[0], two[1], full)
    three = [H for H in subs if len(H) == 3]
    assert not G.subgroups_conjugate(two[0], three[0], full)


def test_subgroup_generated_closure():
    G = GroupTable(s3_table())
    for g in range(6):
        H = G.subgroup_generated([g])
        assert G.e in H
        assert all(G.mul(a, b) in H for a in H for b in H)


@pytest.mark.parametrize("table", [c6_table, s3_table, klein_table, q8_table,
                                   a4_table],
                         ids=["C6", "S3", "C2xC2", "Q8", "A4"])
def test_subgroups_equal_subset_scan(table):
    G = GroupTable(table())
    assert G.subgroups() == scanned_subgroups(G)


def test_a5_has_59_subgroups():
    assert len(GroupTable(a5_table(), check=False).subgroups()) == 59


def test_coset_reps_partition():
    G = GroupTable(s3_table())
    three = next(H for H in G.subgroups() if len(H) == 3)
    reps = G.left_coset_reps(frozenset(range(6)), three)
    assert len(reps) == 2 and reps[0] == G.e
    covered = {G.mul(r, h) for r in reps for h in three}
    assert covered == set(range(6))


def test_double_cosets_count_orbits():
    # |L\G/K| equals the number of L-orbits on G/K
    G = GroupTable(s3_table())
    subs = G.subgroups()
    full = frozenset(range(6))
    for L in subs:
        for K in subs:
            reps = G.double_coset_reps(L, full, K)
            seen = set()
            orbits = 0
            for g in range(6):
                coset = frozenset(G.mul(g, k) for k in K)
                if coset in seen:
                    continue
                orbits += 1
                for ell in L:
                    moved = frozenset(G.mul(G.mul(ell, g), k) for k in K)
                    seen.add(moved)
            assert len(reps) == orbits, (L, K)


def test_coset_reps_are_least_elements_of_their_cosets():
    # identity first, then by element number: presentation keys depend on
    # this order
    G = GroupTable(s3_table())
    subs = G.subgroups()
    first = lambda x: (x != G.e, x)  # noqa: E731

    def expected(H, cosets):
        return sorted({min(c, key=first) for c in cosets}, key=first)

    for H in subs:
        for K in (K for K in subs if K <= H):
            assert G.left_coset_reps(H, K) == expected(
                H, [{G.mul(h, k) for k in K} for h in H])
            assert G.right_coset_reps(K, H) == expected(
                H, [{G.mul(k, h) for k in K} for h in H])
            for L in (L for L in subs if L <= H):
                assert G.double_coset_reps(L, H, K) == expected(
                    H, [{G.mul(G.mul(l, h), k) for l in L for k in K}
                        for h in H])
