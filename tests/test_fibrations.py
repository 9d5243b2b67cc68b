"""Transfer systems, the family adjoints, and cocartesian transport."""
import copy
import itertools
import pickle

import pytest

from windex import (
    NO, MixedPresentation, NotUnital, TargetNotAbove, TransferSystem, WeakIndexingSystem,
    YES, chain_group, classify, cocartesian_transport, cyclic_group,
    enumerate_families, enumerate_systems_fiberwise,
    enumerate_transfer_systems, f_complete, f_infinity, f_trivial, f_zero,
    finite_group, fold_left, fold_right, is_family, join, leq,
    minimal_unital, one_object_groupoid, transfer_closure, transfer_codomain,
    transfer_domain, transfer_of, transfer_to_indexing, trivial_point,
)
from windex.enumeration import enumerate_systems
from windex.fibrations import _transfer_rule
from windex.poset import closure

from helpers import (
    a4_table, c6_table, diamond_semilattice, extensional_fold_right,
    klein_table, probed_transfer_of, q8_table, recomputed_transfer_codomain,
    recomputed_transfer_domain, s3_table, saturated_minimal_unital,
    scanned_families, scanned_transfer_systems, subsets, transfer_conditions,
)


PRESENTATIONS = {
    "C4": lambda: chain_group(2, 2), "C9": lambda: chain_group(3, 2),
    "C8": lambda: chain_group(2, 3), "C16": lambda: chain_group(2, 4),
    "C32": lambda: chain_group(2, 5), "C27": lambda: chain_group(3, 3),
    "S3": lambda: finite_group(s3_table(), name="S3"),
    "diamond": diamond_semilattice, "C8-table": lambda: cyclic_group(2, 3),
    "point": trivial_point, "BG2": lambda: one_object_groupoid(2),
    "C2xC2": lambda: finite_group(klein_table(), name="C2xC2"),
    "C6": lambda: finite_group(c6_table(), name="C6"),
    "Q8": lambda: finite_group(q8_table(), name="Q8"),
    "A4": lambda: finite_group(a4_table(), name="A4"),
}


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_closed_set_enumerations_equal_subset_scans(name):
    P = PRESENTATIONS[name]()
    assert enumerate_families(P) == scanned_families(P)
    assert enumerate_transfer_systems(P) == scanned_transfer_systems(P)


@pytest.mark.parametrize("name,cases", [("C8", 84), ("S3", 45), ("Q8", 816)])
def test_seeded_closure_step_equals_closure_from_scratch(name, cases):
    # a step of the closed-set walk expands only the new pair and what it
    # brings in, never the closed set it starts from
    P = PRESENTATIONS[name]()
    rule = _transfer_rule(P)
    strict = [(u, V) for V in P.orbit_classes
              for u in P.slice_keys(V) if u != P.star_key(V)]
    steps = [(R.strict(), x) for R in enumerate_transfer_systems(P)
             for x in strict]
    assert len(steps) == cases
    for C, x in steps:
        assert closure(rule, C, [x]) == closure(rule, (), C | {x}), (C, x)


# -- families ------------------------------------------------------------------


def test_chain_families_are_prefixes(C4):
    fams = enumerate_families(C4)
    assert fams == [frozenset(), frozenset(["e"]), frozenset(["e", "C_2"]),
                    frozenset(["e", "C_2", "C_4"])]
    assert not is_family(C4, ["C_2"])
    assert not is_family(C4, ["e", "nope"])


def test_s3_families():
    S3 = finite_group(s3_table(), name="S3")
    fams = enumerate_families(S3)
    assert len(fams) == 6
    assert frozenset(["e", "H1"]) in fams
    assert frozenset(["e", "H2"]) in fams
    assert frozenset(["e", "H1", "H2"]) in fams


# -- transfer systems ------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14)])
def test_transfer_counts_follow_catalan(n, count):
    assert len(enumerate_transfer_systems(chain_group(2, n))) == count
    if n <= 2:
        assert len(enumerate_transfer_systems(chain_group(3, n))) == count


def test_transfer_count_is_prime_independent():
    assert len(enumerate_transfer_systems(chain_group(5, 2))) == 5


def test_point_and_groupoid_have_one_transfer_system(PT, BG):
    assert len(enumerate_transfer_systems(PT)) == 1
    assert len(enumerate_transfer_systems(BG)) == 1


@pytest.mark.parametrize("p,n,count", [(2, 6, 429), (2, 7, 1430), (3, 4, 42)],
                         ids=["C64", "C128", "C81"])
def test_catalan_counts_on_long_chains(p, n, count):
    # Balchin-Barnes-Roitzheim: C_{p^n} has Catalan(n + 1) transfer systems
    assert len(enumerate_transfer_systems(chain_group(p, n))) == count


def _five_transfers(C4):
    """The transfer systems over the height-two chain, smallest first."""
    return [
        TransferSystem(C4, []),
        TransferSystem(C4, [("e", "C_2")]),
        TransferSystem(C4, [("C_2", "C_4")]),
        TransferSystem(C4, [("e", "C_2"), ("e", "C_4")]),
        TransferSystem(C4, [("e", "C_2"), ("e", "C_4"), ("C_2", "C_4")]),
    ]


def test_the_five_transfer_systems(C4):
    assert enumerate_transfer_systems(C4) == _five_transfers(C4)


def test_transfer_closure_base_change(C4):
    # a full-depth transfer forces its pullback to the intermediate level
    R = transfer_closure(C4, [("e", "C_4")])
    assert ("e", "C_2") in R
    assert ("C_2", "C_4") not in R


def test_transfer_closure_composition(C4):
    R = transfer_closure(C4, [("e", "C_2"), ("C_2", "C_4")])
    assert ("e", "C_4") in R
    assert len(R.strict()) == 3


def test_unclosed_transfer_rejected(C4):
    with pytest.raises(ValueError, match=r"missing \('e', 'C_2'\)"):
        TransferSystem(C4, [("e", "C_4")])
    with pytest.raises(ValueError):
        TransferSystem(C4, [("x", "C_4")])
    with pytest.raises(ValueError, match="not an orbit"):
        TransferSystem(C4, [("e", "C_99")])


@pytest.mark.parametrize("pairs", [[("x", "C_4")], [("e", "C_99")]],
                         ids=["key", "class"])
def test_transfer_closure_refuses_a_pair_that_is_not_an_orbit(C4, pairs):
    u, V = pairs[0]
    with pytest.raises(ValueError,
                       match=rf"\({u!r}, {V!r}\) is not an orbit of chain:p=2,n=2"):
        transfer_closure(C4, pairs)


def test_transfer_systems_over_two_presentations_are_not_compared():
    # C_4 as a chain and from its table: the same pairs, unequal systems
    R = enumerate_transfer_systems(chain_group(2, 2))[-1]
    S = enumerate_transfer_systems(cyclic_group(2, 2))[-1]
    assert R.pairs == S.pairs and R != S
    for a, b in ((R, S), (S, R)):
        with pytest.raises(MixedPresentation, match="cannot be compared"):
            a <= b
    assert R <= R and S <= S
    with pytest.raises(TypeError):
        R <= 5


def test_transfer_check_runs_once_per_pair_set_and_presentation(monkeypatch):
    from windex import fibrations
    calls = []

    def counted(rule, closed, new):
        calls.append(frozenset(new))
        return closure(rule, closed, new)

    monkeypatch.setattr(fibrations, "closure", counted)
    P = chain_group(2, 2)
    TransferSystem(P, [("e", "C_2")])
    TransferSystem(P, [("e", "C_2"), ("C_2", "C_2")])    # the same set
    assert len(calls) == 1
    # a second presentation, equal to the first, checks it anew
    TransferSystem(chain_group(2, 2), [("e", "C_2")])
    assert len(calls) == 2
    # a set that fails is refused every time, also once its closure passed
    closed = TransferSystem(P, [("e", "C_2"), ("e", "C_4")]).pairs
    assert closed == transfer_closure(P, [("e", "C_4")]).pairs
    del calls[:]
    for _ in range(3):
        with pytest.raises(ValueError, match="not closed"):
            TransferSystem(P, [("e", "C_4")])
        with pytest.raises(ValueError, match="not an orbit"):
            TransferSystem(P, [("e", "C_99")])
    assert len(calls) == 3
    TransferSystem(P, [("e", "C_2"), ("e", "C_4")])
    assert len(calls) == 3


def test_transfer_systems_are_listed_once_per_presentation():
    P = chain_group(2, 3)
    first = enumerate_transfer_systems(P)
    second = enumerate_transfer_systems(P)
    assert second is not first and len(second) == len(first) == 14
    assert all(a is b for a, b in zip(first, second))
    first.clear()     # the caller's list, not the presentation's
    assert enumerate_transfer_systems(P) == second


def test_transfer_of_hands_out_the_listed_transfer_system():
    P = chain_group(2, 3)
    unital = enumerate_systems(P, "unital")
    # met before the listing, and the listing keeps it
    early = transfer_of(unital[-1])
    listed = enumerate_transfer_systems(P)
    assert sum(R is early for R in listed) == 1
    for W in unital:
        R = transfer_of(W)
        assert sum(L is R for L in listed) == 1
        assert transfer_of(W) is R


def test_a_pair_set_that_is_not_closed_is_never_kept():
    P = chain_group(2, 2)
    closed = {R.pairs for R in scanned_transfer_systems(P)}
    for listed in (False, True, True):
        if listed:
            enumerate_transfer_systems(P)
        with pytest.raises(ValueError, match="not closed"):
            TransferSystem(P, [("e", "C_4")])
        assert set(P._transfer_systems) <= closed
        assert all(R.pairs == pairs for pairs, R in P._transfer_systems.items())


@pytest.mark.parametrize("name", ["C8", "S3", "diamond"])
def test_a_presentation_holds_one_transfer_system_per_pair_set(name):
    P = PRESENTATIONS[name]()
    unital = (enumerate_systems_fiberwise(P, "unital") if name == "C8"
              else enumerate_systems(P, "unital"))
    listed = enumerate_transfer_systems(P)
    for R in listed:
        assert TransferSystem(P, R.strict()) is R
        assert TransferSystem(P, R.pairs) is R
        assert transfer_closure(P, R.strict()) is R
        assert copy.copy(R) is R
    held = {id(R) for R in listed}
    assert all(id(transfer_of(W)) in held for W in unital)
    assert [id(R) for R in enumerate_transfer_systems(P)] == list(map(id, listed))


@pytest.mark.parametrize("name", ["C8", "S3", "diamond"])
def test_a_pair_set_that_fails_raises_every_time_and_is_never_held(name):
    P = PRESENTATIONS[name]()
    identities = {(P.star_key(V), V) for V in P.orbit_classes}
    strict = [(u, V) for V in P.orbit_classes
              for u in P.slice_keys(V) if u != P.star_key(V)]
    bad = [identities | set(c) for c in subsets(strict)
           if not transfer_conditions(P, identities | set(c))]
    assert bad
    for listed in (False, True):
        if listed:
            enumerate_transfer_systems(P)
        for pairs in bad:
            for _ in range(2):
                with pytest.raises(ValueError, match="not closed"):
                    TransferSystem(P, pairs)
        assert all(transfer_conditions(P, pairs) for pairs in P._transfer_systems)
        assert all(R.pairs == pairs for pairs, R in P._transfer_systems.items())


def test_a_pickled_transfer_system_is_held_by_its_presentation():
    P = chain_group(2, 3)
    R = enumerate_transfer_systems(P)[5]
    transfer_domain(R)     # kept facts travel with R
    for twin in (pickle.loads(pickle.dumps(R)), copy.deepcopy(R)):
        assert twin == R and twin.P is not P
        assert transfer_domain(twin) == transfer_domain(R)
        assert TransferSystem(twin.P, R.strict()) is twin
        assert enumerate_transfer_systems(twin.P)[5] is twin
    W = minimal_unital(R)
    assert pickle.loads(pickle.dumps(W)) == W


def test_transfer_of_named_systems(C4):
    R0, R1, R2, R3, R4 = _five_transfers(C4)
    assert transfer_of(f_zero(C4)) == R0
    assert transfer_of(f_complete(C4)) == R4
    assert transfer_of(fold_left(C4, C4.orbit_classes)) == R0
    with pytest.raises(NotUnital):
        transfer_of(f_trivial(C4))


def test_transfer_of_refuses_an_undecided_membership(C4):
    # the empty set and the point at every class, saturated only up to two
    # points: whether the free orbit [e] over C_4 is a member is undecided
    W = WeakIndexingSystem.from_generators(C4, [
        S for V in C4.orbit_classes
        for S in (C4.empty_vset(V), C4.star_vset(V))], bound=2)
    with pytest.raises(ValueError,
                       match=r"membership of \[e\] over C_4 is undecided"):
        transfer_of(W)


# -- the Galois correspondences ----------------------------------------------------


def test_transfer_galois_adjunctions(C4):
    transfers = _five_transfers(C4)
    unital = [W for W in enumerate_systems(C4, "unital")]
    assert len(unital) == 21
    for W, R in itertools.product(unital, transfers):
        fR = transfer_of(W)
        # minimal_unital is left adjoint to transfer_of
        assert (leq(minimal_unital(R), W) == YES) == (R <= fR)
        # transfer_to_indexing is right adjoint to transfer_of
        assert (leq(W, transfer_to_indexing(R)) == YES) == (fR <= R)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3)],
                         ids=["C4", "C9", "C8", "C16", "C25", "C27"])
def test_minimal_unital_from_coordinates_equals_saturation(p, n, monkeypatch):
    P = chain_group(p, n)
    transfers = enumerate_transfer_systems(P)
    expected = [saturated_minimal_unital(R) for R in transfers]

    def refuse(*args, **kwargs):
        raise AssertionError("minimal_unital saturates over a chain")

    monkeypatch.setattr("windex.fibrations.sparse_closure", refuse)
    assert [minimal_unital(R) for R in transfers] == expected


@pytest.mark.parametrize("name", ["S3", "diamond"])
def test_saturated_minimal_unital_is_left_adjoint_off_chains(name):
    P = PRESENTATIONS[name]()
    unital = enumerate_systems(P, "unital")
    images = [transfer_of(W) for W in unital]
    for R in enumerate_transfer_systems(P):
        M = minimal_unital(R)
        assert M == saturated_minimal_unital(R)
        for W, fR in zip(unital, images):
            assert (leq(M, W) == YES) == (R <= fR)


@pytest.mark.parametrize("name", ["S3", "C6", "diamond"])
def test_transfer_of_equals_its_probing_oracle_off_chains(name):
    P = PRESENTATIONS[name]()
    listed = enumerate_transfer_systems(P)
    for W in enumerate_systems(P, "unital"):
        R = transfer_of(W)
        assert R == probed_transfer_of(W)
        assert sum(L is R for L in listed) == 1


def test_adjoint_units_are_identities(C4):
    for R in _five_transfers(C4):
        assert transfer_of(minimal_unital(R)) == R
        assert transfer_of(transfer_to_indexing(R)) == R


def test_transfer_domain_codomain(C4):
    R0, R1, R2, R3, R4 = _five_transfers(C4)
    assert transfer_domain(R0) == frozenset()
    assert transfer_domain(R1) == frozenset(["e"])
    assert transfer_domain(R2) == frozenset(["e", "C_2"])
    assert transfer_domain(R3) == frozenset(["e"])
    assert transfer_domain(R4) == frozenset(["e", "C_2"])
    assert transfer_codomain(R0) == frozenset()
    assert transfer_codomain(R1) == frozenset(["e", "C_2"])
    assert transfer_codomain(R2) == frozenset(C4.orbit_classes)
    assert transfer_codomain(R3) == frozenset(C4.orbit_classes)


@pytest.mark.parametrize("name", ["C8", "S3", "diamond"])
def test_transfer_system_keeps_its_facts(name):
    P = PRESENTATIONS[name]()
    systems = enumerate_transfer_systems(P)
    for R in systems:
        assert R.strict() is R.strict()
        assert R.strict() == frozenset(
            (u, V) for u, V in R.pairs if u != P.star_key(V))
        assert transfer_domain(R) is transfer_domain(R)
        assert transfer_domain(R) == recomputed_transfer_domain(R)
        assert transfer_codomain(R) is transfer_codomain(R)
        assert transfer_codomain(R) == recomputed_transfer_codomain(R)
        # equality and hash stay by content, with or without kept facts
        assert hash(R) == hash((P.key, R.pairs))
        for same in (transfer_closure(P, R.strict()),
                     TransferSystem(P, R.strict())):
            assert same is R
            assert same == R and hash(same) == hash(R)
            assert same.strict() == R.strict()
            assert transfer_domain(same) == transfer_domain(R)
            assert transfer_codomain(same) == transfer_codomain(R)
        assert sum(S == R for S in systems) == 1


def test_domain_is_fold_family_of_minimal_system(C4):
    for R in _five_transfers(C4):
        assert transfer_domain(R) == minimal_unital(R).families()["fold"]


def test_fold_adjoints_galois(C4):
    unital = enumerate_systems(C4, "unital")
    for fam in enumerate_families(C4):
        lo, hi = fold_left(C4, fam), fold_right(C4, fam)
        assert lo.families()["fold"] == fam
        for W in unital:
            fW = W.families()["fold"]
            assert (leq(lo, W) == YES) == (fam <= fW)
            assert (leq(W, hi) == YES) == (fW <= fam)


# -- cocartesian transport -----------------------------------------------------------


def test_transport_climbs_to_target_fold(C4):
    W = f_zero(C4)
    fam = frozenset(["e", "C_2"])
    T = cocartesian_transport("fold", W, fam)
    assert leq(W, T) == YES
    assert T.families()["fold"] == fam
    assert T == fold_left(C4, fam)


def test_transport_universal_property(C4):
    unital = enumerate_systems(C4, "unital")
    transfers = _five_transfers(C4)
    families = enumerate_families(C4)
    checked = 0
    for W in unital:
        fR, fold = transfer_of(W), W.families()["fold"]
        for R, fam in itertools.product(transfers, families):
            if not (fR <= R and fold <= fam and transfer_domain(R) <= fam):
                continue
            T = cocartesian_transport("transfer-fold", W, (R, fam))
            assert leq(W, T) == YES
            assert transfer_of(T) == R
            assert T.families()["fold"] == fam
            for Y in unital:
                if leq(W, Y) == YES and R <= transfer_of(Y) \
                        and fam <= Y.families()["fold"]:
                    assert leq(T, Y) == YES
            checked += 1
    assert checked > 20


def test_transport_along_transfer_is_least_with_that_transfer_system(C4):
    unital = enumerate_systems(C4, "unital")
    landed = 0
    for W, R in itertools.product(unital, enumerate_transfer_systems(C4)):
        if not transfer_of(W) <= R:
            with pytest.raises(TargetNotAbove):
                cocartesian_transport("transfer", W, R)
            continue
        T = cocartesian_transport("transfer", W, R)
        assert leq(W, T) == YES
        assert transfer_of(T) == R
        assert T in unital
        for Y in unital:
            if leq(W, Y) == YES and R <= transfer_of(Y):
                assert leq(T, Y) == YES
        landed += 1
    assert landed > 21


def test_transport_rejects_lower_target(C4):
    with pytest.raises(TargetNotAbove):
        cocartesian_transport("fold", f_complete(C4), frozenset(["e"]))
    with pytest.raises(TargetNotAbove):
        cocartesian_transport(
            "transfer", f_complete(C4), TransferSystem(C4, []))
    # transfer-fold: either part of the target can be too low
    with pytest.raises(TargetNotAbove, match="transfer system"):
        cocartesian_transport("transfer-fold", f_complete(C4),
                              (TransferSystem(C4, []), C4.orbit_classes))
    W = f_infinity(C4)
    with pytest.raises(TargetNotAbove, match="fold family"):
        cocartesian_transport("transfer-fold", W,
                              (transfer_of(W), frozenset(["e"])))
    with pytest.raises(ValueError):
        cocartesian_transport("nope", f_zero(C4), frozenset())


def test_transport_color_and_unit_on_truncated_systems(C4):
    W = f_trivial(C4, ["e"])
    T = cocartesian_transport("color", W, frozenset(["e", "C_2"]))
    assert T.families()["color"] == frozenset(["e", "C_2"])
    U = cocartesian_transport("unit", f_zero(C4, ["e"]),
                              frozenset(C4.orbit_classes))
    assert U == f_zero(C4)


# -- fold_right against its extensional definition -------------------------------


def _fold_right_galois(P, F, unital):
    """Check W <= fold_right(F) exactly when fold(W) lies in F, for every W
    in `unital`, and return fold_right(F)."""
    top = fold_right(P, F)
    for W in unital:
        assert (leq(W, top) == YES) == (W.families()["fold"] <= frozenset(F)), (F, W)
    return top


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 1), lambda: chain_group(5, 1),
    lambda: chain_group(2, 2), lambda: cyclic_group(2, 2), trivial_point,
    lambda: one_object_groupoid(2),
], ids=["C2", "C5", "C4", "C4-table", "point", "BG2"])
def test_fold_right_equals_extensional_join(make):
    P = make()
    unital = enumerate_systems(P, "unital")
    for fam in enumerate_families(P):
        assert fold_right(P, fam) == extensional_fold_right(P, fam, unital), fam


@pytest.mark.parametrize("make, enumerate_unital", [
    (lambda: chain_group(3, 2), enumerate_systems_fiberwise),
    (lambda: chain_group(2, 3), enumerate_systems_fiberwise),
    (lambda: finite_group(s3_table(), name="S3"), enumerate_systems),
    (diamond_semilattice, enumerate_systems),
], ids=["C9", "C8", "S3", "diamond"])
def test_fold_right_is_largest_unital_system_with_fold_family_inside(
        make, enumerate_unital):
    P = make()
    unital = enumerate_unital(P, "unital")
    for fam in enumerate_families(P):
        top = _fold_right_galois(P, fam, unital)
        WeakIndexingSystem.from_sparse(P, top.sparse_levels, validate=True)
        assert classify(top)["unital"]
        assert top.families()["fold"] <= fam


def test_fold_right_galois_over_c16():
    P = chain_group(2, 4)
    unital = enumerate_systems_fiberwise(P, "unital")
    for fam in enumerate_families(P):
        _fold_right_galois(P, fam, unital)


def test_fold_right_galois_for_sets_that_are_not_families(C4, C8):
    for P, sets in ((C4, [["C_2"], ["C_4"], ["e", "C_4"]]),
                    (C8, [["C_2"], ["e", "C_4"], ["e", "C_2", "C_8"]])):
        unital = enumerate_systems_fiberwise(P, "unital")
        for F in sets:
            assert not is_family(P, F)
            _fold_right_galois(P, F, unital)
