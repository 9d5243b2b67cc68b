"""Closure, membership, sparse forms, and the named systems."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windex import (
    BoundTooSmall, INDETERMINATE, MixedPresentation, NO, NotClosed,
    UnsupportedBackend, WeakIndexingSystem, YES, bor_system, chain_group,
    classify, closure_bound, coinduce_wis, e_system, f_complete, f_infinity,
    f_perp_nu, f_trivial, f_zero, finite_group, indexed_coproduct,
    is_sparse, join, leq, meet, member, multiplicative_hull, saturate,
    slice_restrict_wis, sparse_bound, sparse_decompose, sparse_extract,
    sparse_generate, sparse_part, sparse_universe, validate_wic,
)
from windex.enumeration import enumerate_systems
from windex.presentation import VSet
from windex.serialize import system_from_obj, system_to_obj

from helpers import naive_closure, s3_table


S3 = finite_group(s3_table(), name="S3")


# -- sparse V-sets -----------------------------------------------------------


def test_sparse_universe_sizes_chain(C2, C4):
    assert len(sparse_universe(C2, "e")) == 3
    assert len(sparse_universe(C2, "C_2")) == 5
    assert sparse_bound(C2) == 3
    assert len(sparse_universe(C4, "e")) == 3
    assert len(sparse_universe(C4, "C_2")) == 5
    assert len(sparse_universe(C4, "C_4")) == 7
    assert sparse_bound(C4) == 5


def test_sparse_universe_s3_antichain():
    # the reflection and rotation orbits are incomparable, so they appear
    # together in sparse sets over the full group
    top = sparse_universe(S3, "S3")
    both = S3.orbit_vset("S3", "H1") + S3.orbit_vset("S3", "H2")
    assert both in top
    assert both + S3.star_vset("S3") in top


def test_is_sparse_cases(C4):
    star = C4.star_key("C_4")
    assert is_sparse(C4, C4.vset("C_4", [(star, 2)]))
    assert not is_sparse(C4, C4.vset("C_4", [(star, 3)]))
    assert is_sparse(C4, C4.star_vset("C_4") + C4.orbit_vset("C_4", "C_2"))
    assert not is_sparse(C4, C4.orbit_vset("C_4", "C_2", 2))
    # comparable orbits never share a sparse set
    assert not is_sparse(
        C4, C4.orbit_vset("C_4", "C_2") + C4.orbit_vset("C_4", "e"))


@pytest.mark.parametrize("P_name", ["C4", "C9", "C8"])
def test_sparse_decompose_roundtrip_exhaustive(P_name, request):
    P = request.getfixturevalue(P_name)
    for V in P.orbit_classes:
        for S in P.vsets_up_to(V, 8):
            d = sparse_decompose(P, S)
            assert is_sparse(P, d.reduced)
            assert len(d.pieces) == len(d.reduced.expand())
            assert indexed_coproduct(P, d.reduced, list(d.pieces)) == S


def test_sparse_decompose_retraction_is_a_map(C8):
    S = (C8.orbit_vset("C_8", "C_4") + C8.orbit_vset("C_8", "C_2", 2)
         + C8.star_vset("C_8"))
    d = sparse_decompose(C8, S)
    star = C8.star_key("C_8")
    for k, _ in S.orbits:
        t = d.retraction[k]
        assert t in dict(d.reduced.orbits)
        if k != star:
            assert C8.slice_hom_exists("C_8", k, t)


@st.composite
def _s3_multiset(draw):
    keys = S3.slice_keys("S3")
    mults = [draw(st.integers(min_value=0, max_value=2)) for _ in keys]
    return S3.vset("S3", [(k, m) for k, m in zip(keys, mults) if m])


@given(_s3_multiset())
@settings(max_examples=200)
def test_sparse_decompose_roundtrip_s3(S):
    d = sparse_decompose(S3, S)
    assert is_sparse(S3, d.reduced)
    assert indexed_coproduct(S3, d.reduced, list(d.pieces)) == S


# -- closure vs naive fixpoint ------------------------------------------------


def _gen_cases(P):
    return [
        [P.vset("e", [(P.star_key("e"), 2)])],
        [P.star_vset(P.orbit_classes[-1]) + P.orbit_vset(P.orbit_classes[-1],
                                                         "e")],
        [P.empty_vset(V) for V in P.orbit_classes] + [P.star_vset("e")],
        [P.orbit_vset(P.orbit_classes[-1], P.orbit_classes[-2])],
    ]


@pytest.mark.parametrize("P_name,bound", [("C4", 8), ("C9", 10)])
def test_membership_matches_naive_closure(P_name, bound, request):
    P = request.getfixturevalue(P_name)
    for gens in _gen_cases(P):
        W = WeakIndexingSystem.from_generators(P, gens, bound=bound)
        expected = naive_closure(P, gens, bound)
        for V in P.orbit_classes:
            for S in P.vsets_up_to(V, bound):
                assert (W.member(S) == YES) == (S in expected[V]), (gens, S)


@pytest.mark.parametrize("P,which", [
    (chain_group(2, 1), "aE_unital"),
    (chain_group(2, 2), "unital"),
    (S3, "indexing"),
], ids=["C2-aE_unital", "C4-unital", "S3-indexing"])
def test_sparse_membership_matches_saturation(P, which):
    # the fast path (lookup plus isotropy decomposition) against saturating
    # the sparse members, one point past the largest sparse V-set
    bound = sparse_bound(P) + 1
    for W in enumerate_systems(P, which):
        sat = saturate(P, [S for mem in W.sparse().values() for S in mem],
                       bound)
        for V in P.orbit_classes:
            for S in P.vsets_up_to(V, bound):
                assert (W.member(S) == YES) == (S in sat[V]), (W, S)


def test_saturate_matches_naive_on_s3():
    gens = [S3.star_vset("S3") + S3.orbit_vset("S3", "H2")]
    got = saturate(S3, gens, 8)
    assert got == naive_closure(S3, gens, 8)


def test_member_beyond_bound_is_indeterminate(C2):
    W = WeakIndexingSystem.from_generators(
        C2, [C2.vset("e", [(C2.star_key("e"), 2)])], bound=4)
    assert W.member(C2.star_vset("e").scale(9)) == INDETERMINATE


def test_generator_above_bound_rejected(C2):
    with pytest.raises(BoundTooSmall):
        WeakIndexingSystem.from_generators(
            C2, [C2.star_vset("e").scale(5)], bound=3)


# -- named systems and classification -----------------------------------------


def test_named_system_families(C4):
    every = frozenset(C4.orbit_classes)
    assert f_trivial(C4).families() == {
        "color": every, "unit": frozenset(), "fold": frozenset(),
        "eps": frozenset()}
    assert f_zero(C4).families() == {
        "color": every, "unit": every, "fold": frozenset(), "eps": every}
    assert f_infinity(C4).families() == {
        "color": every, "unit": every, "fold": every, "eps": every}
    assert f_complete(C4).families() == {
        "color": every, "unit": every, "fold": every, "eps": every}


def test_classification_flags(C4):
    assert classify(f_trivial(C4)) == {
        "one_color": True, "unital": False, "aE_unital": True,
        "almost_unital": True, "indexing": False}
    assert classify(f_zero(C4))["unital"]
    assert not classify(f_zero(C4))["indexing"]
    assert classify(f_infinity(C4))["indexing"]
    assert classify(f_complete(C4))["indexing"]


def test_family_restricted_constructors(C4):
    fam = frozenset(["e", "C_2"])
    W = f_zero(C4, fam)
    assert W.families()["color"] == fam
    assert W.families()["unit"] == fam
    assert not classify(W)["one_color"]
    with pytest.raises(ValueError):
        f_zero(C4, ["C_2"])  # not downward closed
    with pytest.raises(MixedPresentation):
        f_zero(C4, ["nope"])


def test_f_complete_membership_total(C4):
    W = f_complete(C4)
    for V in C4.orbit_classes:
        for S in C4.vsets_up_to(V, 6):
            assert W.member(S) == YES


# -- axiom report --------------------------------------------------------------


def test_validate_wic_profiles(C2):
    report = validate_wic(f_complete(C2))
    assert all(ok for ok, _ in report.values())

    report = validate_wic(f_zero(C2))
    assert report["restriction-stable"][0]
    assert report["summand-closed"][0]
    assert not report["all-folds"][0]

    report = validate_wic(f_perp_nu(C2, ["e"]), bound=4)
    assert report["restriction-stable"][0]
    assert not report["summand-closed"][0]
    S, T = report["summand-closed"][1]
    assert S.over == "C_2"


def test_validate_wic_catches_unstable_predicate(C2):
    free = C2.orbit_vset("C_2", "e")

    def pred(S):
        if S == free or S == C2.star_vset(S.over):
            return YES
        return NO

    W = WeakIndexingSystem.from_predicate(C2, pred)
    report = validate_wic(W, bound=3)
    ok, witness = report["restriction-stable"]
    assert not ok
    assert witness[0] == free


# -- sparse forms ---------------------------------------------------------------


def test_sparse_generate_accepts_closed_data(C2):
    levels = {"e": [C2.empty_vset("e"), C2.star_vset("e")],
              "C_2": [C2.empty_vset("C_2"), C2.star_vset("C_2")]}
    W = sparse_generate(C2, levels)
    assert W == f_zero(C2)


def test_sparse_generate_rejects_unclosed_data(C2):
    # a free orbit without its restriction's fold
    levels = {"e": [C2.star_vset("e")],
              "C_2": [C2.star_vset("C_2"), C2.orbit_vset("C_2", "e")]}
    with pytest.raises(NotClosed):
        sparse_generate(C2, levels)


def test_sparse_generate_rejects_misfiled_level(C2):
    with pytest.raises(NotClosed):
        sparse_generate(C2, {"e": [C2.star_vset("C_2")]})


def test_sparse_extract_exact_for_ae_system(C2):
    W = WeakIndexingSystem.from_generators(
        C2, [C2.empty_vset("e"), C2.empty_vset("C_2"), C2.star_vset("C_2")])
    sp, exact = sparse_extract(W)
    assert exact
    assert sp == f_zero(C2)


def test_sparse_extract_flags_non_ae(C2):
    # folds at the bottom level only: essentially nontrivial at e but without
    # the unit there, so the sparse members underdetermine the system
    W = WeakIndexingSystem.from_generators(
        C2, [C2.vset("e", [(C2.star_key("e"), 2)])])
    fam = W.families()
    assert fam["eps"] == frozenset(["e"])
    assert fam["unit"] == frozenset()
    flags = classify(W)
    assert not flags["aE_unital"]
    _, exact = sparse_extract(W)
    assert not exact


def test_non_ae_sparse_data_rejected(C2):
    # the closure of * + [C_2/e] is essentially nontrivial everywhere yet has
    # no units, so its sparse members fail the faithfulness validation
    W = WeakIndexingSystem.from_generators(
        C2, [C2.star_vset("C_2") + C2.orbit_vset("C_2", "e")])
    flags = classify(W)
    assert not flags["aE_unital"]
    with pytest.raises(NotClosed):
        sparse_generate(C2, sparse_part(C2, saturate(
            C2, W.gens, max(sparse_bound(C2), 2))))


# -- lattice operations ----------------------------------------------------------


def test_join_meet_of_constructors(C4):
    bot, mid, top = f_trivial(C4), f_zero(C4), f_complete(C4)
    assert join(bot, mid) == mid
    assert meet(bot, mid) == bot
    assert join(mid, top) == top
    assert meet(mid, top) == mid
    assert leq(bot, mid) == YES and leq(mid, bot) == NO


def test_join_closes_up(C2):
    # the two halves of the fold-plus-unit system join to the full one
    W1 = sparse_generate(C2, {
        "e": [C2.empty_vset("e"), C2.star_vset("e")],
        "C_2": [C2.empty_vset("C_2"), C2.star_vset("C_2")]})
    W2 = f_trivial(C2)
    assert join(W1, W2) == W1
    assert meet(W1, W2) == W2


def test_mixed_presentation_rejected(C2, C4):
    with pytest.raises(MixedPresentation):
        join(f_zero(C2), f_zero(C4))
    with pytest.raises(MixedPresentation):
        f_zero(C2).member(C4.star_vset("C_4"))


def test_meet_off_the_sparse_path_is_the_and_of_memberships(C2):
    A, B = f_zero(C2), f_perp_nu(C2, ())
    M = meet(A, B)
    for V in C2.orbit_classes:
        for S in C2.vsets_up_to(V, 4):
            both = A.member(S) == YES and B.member(S) == YES
            assert M.member(S) == (YES if both else NO), S
    # "no" from either side wins over "indeterminate" from the other
    G = WeakIndexingSystem.from_generators(C2, [C2.empty_vset("e")], bound=3)
    big = C2.star_vset("e").scale(5)
    assert meet(G, f_complete(C2)).member(big) == INDETERMINATE
    assert meet(G, f_zero(C2)).member(big) == NO
    # odd multiples of the point: nontrivial at e with no sparse witness
    odd = WeakIndexingSystem.from_generators(C2, [C2.star_vset("e").scale(3)])
    assert not classify(meet(odd, odd))["aE_unital"]
    assert meet(odd, odd) != f_trivial(C2, ["e"])


def test_generated_systems_compare_by_content(C2):
    gens = [C2.vset("e", [(C2.star_key("e"), 2)]), C2.star_vset("C_2")]
    a = WeakIndexingSystem.from_generators(C2, gens)
    b = WeakIndexingSystem.from_generators(C2, list(reversed(gens)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != WeakIndexingSystem.from_generators(C2, gens, bound=4)


def test_generated_form_of_a_sparse_system_is_equal(C2):
    W = WeakIndexingSystem.from_generators(
        C2, [C2.empty_vset("e"), C2.empty_vset("C_2"), C2.star_vset("C_2")])
    assert W == f_zero(C2) and f_zero(C2) == W
    assert hash(W) == hash(f_zero(C2))
    assert len({W, f_zero(C2)}) == 1


def _odd_multiples(C2):
    # the odd multiples of the point over e: nontrivial with no sparse witness
    return WeakIndexingSystem.from_generators(C2, [C2.star_vset("e").scale(3)])


def test_meet_and_bor_of_generated_systems_stay_bounded(C2):
    star_e, star_c2 = C2.star_key("e"), C2.star_key("C_2")
    folds = WeakIndexingSystem.from_generators(C2, [
        C2.empty_vset("e"), C2.vset("e", [(star_e, 2)]),
        C2.empty_vset("C_2"), C2.vset("C_2", [(star_c2, 2)])], bound=3)
    odd = _odd_multiples(C2)
    for W in (meet(odd, odd), bor_system(C2, None, odd),
              meet(folds, folds), meet(folds, f_complete(C2)),
              bor_system(C2, None, folds)):
        assert W.bound in (odd.bound, folds.bound)
        assert system_from_obj(system_to_obj(W)) == W
        assert join(W, f_zero(C2)) == join(f_zero(C2), W)
        assert leq(W, W) == YES
        with pytest.raises(BoundTooSmall):
            W.members_up_to("e", W.bound + 1)
    for W in (meet(folds, folds), bor_system(C2, None, folds)):
        assert all(ok for ok, _ in validate_wic(W).values())


def test_meet_and_bor_keep_non_sparse_members(C2):
    M = meet(_odd_multiples(C2), _odd_multiples(C2))
    for W in (meet(M, M), bor_system(C2, None, M), bor_system(C2, ["e"], M)):
        assert not classify(W)["aE_unital"]
        assert W != f_trivial(C2, ["e"])
        assert W.member(C2.star_vset("e").scale(3)) == YES


# -- truncation and extension ----------------------------------------------------


def test_bor_truncates_and_e_extends(C4):
    fam = frozenset(["e", "C_2"])
    W = bor_system(C4, fam, f_complete(C4))
    assert W == f_complete(C4, fam)
    # extension is the identity on family-supported systems
    assert e_system(C4, fam, W) == W
    with pytest.raises(ValueError):
        e_system(C4, ["e"], W)


def test_bor_on_predicate_form(C4):
    fam = frozenset(["e"])
    W = bor_system(C4, fam, f_perp_nu(C4, ["e", "C_2"]))
    assert W.families()["color"] == fam
    assert W.member(C4.star_vset("C_4")) == NO
    assert W.member(C4.star_vset("e")) == YES


def test_f_perp_nu_membership(C4):
    W = f_perp_nu(C4, ["e"])
    # over the family: everything
    assert W.member(C4.star_vset("e").scale(3)) == YES
    # outside: exactly the sets with an orbit landing outside the family
    assert W.member(C4.star_vset("C_2")) == YES
    assert W.member(C4.orbit_vset("C_4", "C_2")) == YES
    assert W.member(C4.orbit_vset("C_2", "e")) == NO
    assert W.member(C4.empty_vset("C_4")) == NO
    assert W.families()["unit"] == frozenset(["e"])


# -- slice restriction and coinduction ---------------------------------------------


def test_slice_restrict_complete_is_complete(C4):
    W = slice_restrict_wis(f_complete(C4), "C_2")
    Q = W.P
    for V in Q.orbit_classes:
        assert W.sparse_levels[V] == frozenset(sparse_universe(Q, V))


def test_slice_restrict_needs_faithful_sparse(C2):
    W = WeakIndexingSystem.from_generators(
        C2, [C2.vset("e", [(C2.star_key("e"), 2)])])
    with pytest.raises(UnsupportedBackend):
        slice_restrict_wis(W, "C_2")


def test_coinduce_chain_formula(C9):
    # over a chain, a U-set lies in the coinduced system exactly when its
    # restriction to the level below both U and V lies in the given system
    V = "C_3"
    Q = C9.slice_presentation(V)
    order = {U: i for i, U in enumerate(C9.orbit_classes)}
    for I in (f_trivial(Q), f_zero(Q), f_infinity(Q), f_complete(Q)):
        W = coinduce_wis(C9, V, I)
        for U in C9.orbit_classes:
            lower = U if order[U] <= order[V] else V
            a = next(k for k in C9.slice_keys(U)
                     if C9.slice_cls(U, k) == lower)
            b = next(k for k in C9.slice_keys(V)
                     if C9.slice_cls(V, k) == lower)
            for S in C9.vsets_up_to(U, 5):
                R = C9.restrict(a, S)
                want = I.member(VSet(b, R.orbits))
                assert W.member(S) == want, (I.label, U, S)


def test_coinduce_is_right_adjoint(C2):
    # Hom(Res W, I) = Hom(W, CoInd I), checked as containments over the
    # four point-level systems and a spread of C_2 systems
    V = "e"
    Q = C2.slice_presentation(V)
    points = [f_trivial(Q), f_zero(Q), f_infinity(Q), f_complete(Q)]
    systems = [f_trivial(C2), f_zero(C2), f_infinity(C2), f_complete(C2),
               f_zero(C2, ["e"]), f_infinity(C2, ["e"])]
    for W, I in itertools.product(systems, points):
        lhs = leq(slice_restrict_wis(W, V), I)
        rhs = leq(W, coinduce_wis(C2, V, I))
        assert lhs == rhs == YES or lhs == rhs == NO, (W.label, I.label)


# -- multiplicative hull -------------------------------------------------------------


def test_hull_of_units_is_complete(C2):
    assert multiplicative_hull(f_zero(C2)) == f_complete(C2)


def test_hull_is_enlarging_and_idempotent(C2):
    W = f_infinity(C2)
    m = multiplicative_hull(W)
    assert leq(W, m) == YES
    assert multiplicative_hull(m) == m


# -- bounds --------------------------------------------------------------------------


def test_closure_bound_env_override(C2, monkeypatch):
    monkeypatch.setenv("WINDEX_BOUND", "12")
    assert closure_bound(C2) == 12
    monkeypatch.delenv("WINDEX_BOUND")
    assert closure_bound(C2, C2.star_vset("e").scale(6)) == 12


def test_members_up_to_respects_bound(C2):
    W = WeakIndexingSystem.from_generators(
        C2, [C2.empty_vset("e"), C2.empty_vset("C_2")], bound=4)
    with pytest.raises(BoundTooSmall):
        W.members_up_to("e", 9)
    got = W.members_up_to("e", 4)
    assert C2.star_vset("e") in got and C2.empty_vset("e") in got
