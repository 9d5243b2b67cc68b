"""Sieves and the fiberwise description of unital systems over chains."""
import copy
import itertools

import pytest

from windex import (
    MixedPresentation, NotAdmissible, NotClosed, NotUnital, Sieve, TransferSystem,
    UnsupportedBackend, WeakIndexingSystem, YES, chain_group,
    cocartesian_transport, cyclic_group, enumerate_families, enumerate_sieves,
    enumerate_transfer_systems, f_infinity, f_trivial, fiber_from_sieve,
    fiber_systems, finite_group, is_sieve, leq, minimal_unital, sieve_of, transfer_closure, transfer_codomain, transfer_domain,
    transfer_of, transport_sieve,
)
from windex.enumeration import enumerate_systems, enumerate_systems_fiberwise

from helpers import (
    per_sieve_fiber, per_sieve_fiber_systems, probed_sieve_of,
    probed_transfer_of, s3_table, scanned_sieves, sieve_conditions, subsets,
)


FIBER_TABLE = [
    # rows follow enumerate_transfer_systems order; columns follow
    # enumerate_families order (by family size)
    [1, 1, 1, 1],
    [0, 2, 1, 1],
    [0, 0, 2, 1],
    [0, 3, 2, 1],
    [0, 0, 3, 1],
]


def test_sieve_counts(C4):
    R = enumerate_transfer_systems(C4)
    assert len(enumerate_sieves(R[3], ["e"])) == 3
    assert len(enumerate_sieves(R[4], ["e", "C_2"])) == 3
    assert len(enumerate_sieves(R[2], ["e", "C_2"])) == 2
    assert len(enumerate_sieves(R[1], ["e"])) == 2


def test_sieve_conditions_enforced(C4):
    R0, R1, R2, R3, R4 = enumerate_transfer_systems(C4)
    scope = frozenset(["C_2", "C_4"])
    # skipping the middle codomain breaks downward closure
    with pytest.raises(ValueError):
        Sieve(R4, scope, frozenset([("e", "C_4")]))
    # a composite's tail forces the composite
    with pytest.raises(ValueError):
        Sieve(R4, frozenset(["C_4"]), frozenset([("C_2", "C_4")]))
    # pairs must come from the transfer system itself
    with pytest.raises(ValueError):
        Sieve(R1, scope, frozenset([("C_2", "C_4")]))
    Sieve(R4, scope, frozenset([("e", "C_2")]))  # and this one is fine


def test_sieve_is_an_immutable_value(C4):
    R4 = enumerate_transfer_systems(C4)[4]
    scope = frozenset(["C_2", "C_4"])
    sv = Sieve(R4, scope, frozenset([("e", "C_2")]))
    same = Sieve(transfer_closure(C4, R4.strict()), frozenset(scope),
                 frozenset([("e", "C_2")]))
    assert sv == same and hash(sv) == hash(same) and len({sv, same}) == 1
    assert sv != Sieve(R4, scope, frozenset())
    with pytest.raises(AttributeError):
        sv.pairs = frozenset()
    with pytest.raises(AttributeError):
        del sv.scope
    assert repr(sv).startswith("Sieve(R=<TransferSystem ")
    assert copy.copy(sv) == sv


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 2), lambda: chain_group(3, 2),
    lambda: chain_group(2, 3), lambda: chain_group(3, 3),
    lambda: cyclic_group(2, 3), lambda: chain_group(2, 4),
    lambda: chain_group(2, 5),
], ids=["C4", "C9", "C8", "C27", "C8-table", "C16", "C32"])
def test_sieves_equal_subset_scans(make):
    P = make()
    for R in enumerate_transfer_systems(P):
        for fam in enumerate_families(P):
            got = enumerate_sieves(R, fam)
            assert [s.pairs for s in got] == scanned_sieves(R, fam), (R, fam)
            assert {s.scope for s in got} == {transfer_codomain(R) - fam}


def test_is_sieve_is_the_definition(C8):
    # every scope, not only those a family leaves, and pairs from anywhere in R
    for R in enumerate_transfer_systems(C8):
        for scope in map(frozenset, subsets(C8.orbit_classes)):
            for pairs in map(frozenset, subsets(sorted(R.strict()))):
                assert is_sieve(C8, R, scope, pairs) == \
                    sieve_conditions(C8, R, scope, pairs), (R, scope, pairs)


def test_fiber_cardinalities_match_table(C4):
    transfers = enumerate_transfer_systems(C4)
    families = enumerate_families(C4)
    got = [[len(fiber_systems(R, fam)) for fam in families]
           for R in transfers]
    assert got == FIBER_TABLE
    assert sum(map(sum, got)) == 21


def test_fibers_partition_the_unital_systems(C4):
    transfers = enumerate_transfer_systems(C4)
    families = enumerate_families(C4)
    seen = []
    for R, fam in itertools.product(transfers, families):
        for W in fiber_systems(R, fam):
            assert transfer_of(W) == R
            assert W.families()["fold"] == fam
            seen.append(W)
    assert len(seen) == len(set(seen)) == 21
    assert set(seen) == set(enumerate_systems(C4, "unital"))


def test_fiber_trichotomy(C4):
    R0, R1, R2, R3, R4 = enumerate_transfer_systems(C4)
    # domain does not fold: empty fiber
    assert fiber_systems(R2, ["e"]) == []
    # every codomain folds: a single system
    every = list(C4.orbit_classes)
    assert fiber_systems(R0, every) == [f_infinity(C4)]
    with pytest.raises(NotAdmissible):
        fiber_from_sieve(R2, ["e"], Sieve(R2, frozenset(), frozenset()))


def test_fiber_from_sieve_refuses_sieves_of_other_fibers(C4):
    # every sieve of an admissible (R, F) pair, tried with every such pair:
    # it fits when it is a sieve of R on the scope F leaves
    admissible = [(R, F) for R in enumerate_transfer_systems(C4)
                  for F in enumerate_families(C4) if transfer_domain(R) <= F]
    sieves = [s for R, F in admissible for s in enumerate_sieves(R, F)]
    refused = 0
    for (R, F), s in itertools.product(admissible, sieves):
        if s.R == R and s.scope == transfer_codomain(R) - F:
            W = fiber_from_sieve(R, F, s)
            assert W == per_sieve_fiber(R, F, s)
            WeakIndexingSystem.from_sparse(C4, W.sparse_levels, validate=True)
        else:
            with pytest.raises(NotAdmissible):
                fiber_from_sieve(R, F, s)
            refused += 1
    assert (len(admissible), len(sieves), refused) == (14, 21, 259)


def test_fiber_from_sieve_refuses_a_sieve_of_a_smaller_transfer(C4):
    # {(C_2, C_4)} is a sieve of C_2<C_4 on {C_4}.  The family {e, C_2}
    # leaves the same scope for R = C_2<C_4, e<C_2, e<C_4, but a sieve of R
    # holding (C_2, C_4) holds (e, C_4) too, and without it the levels are
    # not closed
    R = transfer_closure(C4, [("C_2", "C_4"), ("e", "C_2")])
    small = transfer_closure(C4, [("C_2", "C_4")])
    sieve = Sieve(small, frozenset(["C_4"]), frozenset([("C_2", "C_4")]))
    family = ["e", "C_2"]
    with pytest.raises(NotAdmissible, match="belongs to"):
        fiber_from_sieve(R, family, sieve)
    with pytest.raises(NotClosed):
        WeakIndexingSystem.from_sparse(
            C4, per_sieve_fiber(R, family, sieve).sparse_levels, validate=True)
    with pytest.raises(NotAdmissible, match="lies on"):
        fiber_from_sieve(R, ["e", "C_2", "C_4"],
                         Sieve(R, frozenset(["C_4"]), frozenset()))


def test_a_sieve_of_another_presentation_is_named_with_it(C4, C4_tabular):
    # the full transfer systems of the chain and of the cyclic table have the
    # same pairs; the refusal names both presentations
    chain = enumerate_transfer_systems(C4)[-1]
    table = enumerate_transfer_systems(C4_tabular)[-1]
    assert repr(chain) != repr(table)
    sieve = next(iter(enumerate_sieves(chain, ["e", "C_2"])))
    with pytest.raises(NotAdmissible) as err:
        fiber_from_sieve(table, ["e", "C_2"], sieve)
    message = str(err.value)
    assert f"{chain!r}, not {table!r}" in message
    assert C4.key in message and C4_tabular.key in message
    assert C4.key != C4_tabular.key


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 2), lambda: chain_group(3, 2),
    lambda: chain_group(2, 3), lambda: chain_group(2, 4),
    lambda: chain_group(5, 2), lambda: chain_group(2, 5),
    lambda: cyclic_group(2, 3),
], ids=["C4", "C9", "C8", "C16", "C25", "C32", "cyclic-C8"])
def test_fiber_systems_equal_the_per_sieve_path(make):
    P = make()
    for R in enumerate_transfer_systems(P):
        for fam in enumerate_families(P):
            assert fiber_systems(R, fam) == per_sieve_fiber_systems(R, fam), \
                (R, fam)


def test_fiber_parts_are_computed_once_per_transfer_system(C8):
    for R in enumerate_transfer_systems(C8):
        parts = R._chain_parts
        for fam in enumerate_families(C8):
            fiber_systems(R, fam)
        minimal_unital(R)
        assert R._chain_parts is parts


def test_every_c8_fiber_system_validates(C8):
    count = 0
    for R in enumerate_transfer_systems(C8):
        for fam in enumerate_families(C8):
            for W in fiber_systems(R, fam):
                WeakIndexingSystem.from_sparse(C8, W.sparse_levels,
                                               validate=True)
                count += 1
    assert count == 79


def test_sieve_of_needs_a_unital_system(C4):
    with pytest.raises(NotUnital):
        sieve_of(f_trivial(C4))


def test_sieve_of_round_trips(C4):
    transfers = enumerate_transfer_systems(C4)
    families = enumerate_families(C4)
    for R, fam in itertools.product(transfers, families):
        if not transfer_domain(R) <= fam:
            continue
        for s in enumerate_sieves(R, fam):
            W = fiber_from_sieve(R, fam, s)
            got = sieve_of(W)
            assert got.pairs == s.pairs
            assert got.scope == transfer_codomain(R) - fam


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (2, 5)],
                         ids=["C4", "C9", "C8", "C16", "C25", "C32"])
def test_transfer_of_and_sieve_of_equal_their_probing_oracles(p, n):
    # on systems with empty membership caches, probed by the oracles second
    P = chain_group(p, n)
    listed = enumerate_transfer_systems(P)
    for W in enumerate_systems_fiberwise(P, "unital"):
        R, s = transfer_of(W), sieve_of(W)
        assert R is s.R and sum(L is R for L in listed) == 1
        assert R == probed_transfer_of(W)
        assert s == probed_sieve_of(W)


def test_every_unital_system_rebuilds_from_its_sieve(C4):
    for W in enumerate_systems(C4, "unital"):
        R = transfer_of(W)
        fam = W.families()["fold"]
        assert fiber_from_sieve(R, fam, sieve_of(W)) == W


def test_transport_commutes_with_sieves(C4):
    transfers = enumerate_transfer_systems(C4)
    families = enumerate_families(C4)
    checked = 0
    for W in enumerate_systems(C4, "unital"):
        R, fam = transfer_of(W), W.families()["fold"]
        s = sieve_of(W)
        for R2, fam2 in itertools.product(transfers, families):
            if not (R <= R2 and fam <= fam2 and transfer_domain(R2) <= fam2):
                continue
            T = cocartesian_transport("transfer-fold", W, (R2, fam2))
            assert sieve_of(T) == transport_sieve(s, R2, fam2)
            checked += 1
    assert checked == 109


def test_transport_sieve_needs_larger_transfer(C4):
    R0, R1, R2, R3, R4 = enumerate_transfer_systems(C4)
    s = enumerate_sieves(R4, ["e", "C_2"])[-1]
    with pytest.raises(NotAdmissible):
        transport_sieve(s, R1, ["e"])


def test_transport_sieve_stays_on_its_presentation(C4):
    # the full transfer system of C_4 from its table holds the same pairs
    s = enumerate_sieves(enumerate_transfer_systems(C4)[-1], ["e", "C_2"])[-1]
    S = enumerate_transfer_systems(cyclic_group(2, 2))[-1]
    with pytest.raises(MixedPresentation):
        transport_sieve(s, S, ["e"])


def test_sieves_need_a_chain():
    S3 = finite_group(s3_table(), name="S3")
    from windex import f_complete
    with pytest.raises(UnsupportedBackend):
        sieve_of(f_complete(S3))
    with pytest.raises(UnsupportedBackend):
        fiber_systems(TransferSystem(S3, []), ["e"])


def test_sieves_work_over_tabular_cyclic_groups(C4_tabular):
    from windex import f_complete
    W = f_complete(C4_tabular)
    s = sieve_of(W)
    assert s.scope == frozenset()
    assert s.pairs == frozenset()
    transfers = enumerate_transfer_systems(C4_tabular)
    assert len(transfers) == 5
    total = sum(len(fiber_systems(R, fam)) for R in transfers
                for fam in enumerate_families(C4_tabular))
    assert total == 21
