"""Acceptance gate: the ten headline checks, one printed line per criterion.

Run `pytest tests/test_acceptance.py -s -v` to see the lines; each reads
`criterion N (<label>): PASS [elapsed]` on success, or a FAIL line right
before the assertion error.  Frozen expectations live at module scope;
diagram edge lists are written bottom-up as (lower, upper) cover pairs.
"""
import itertools
import time
from contextlib import contextmanager

from windex import (
    YES, RepDescriptor, WeakIndexingSystem, arity_support, chain_group,
    classify, cocartesian_transport, coinduce_wis, color_left, color_right,
    concretize, enumerate_families, enumerate_systems,
    enumerate_systems_fiberwise, enumerate_transfer_systems, f_complete,
    f_perp_nu, f_trivial, f_zero, fold_left, fold_right, indexed_coproduct,
    indexed_product, join, leq, meet, minimal_unital, multiplicative_hull,
    named_rep, orbit_decompose, poset_from_covers, rep_sum, restrict_concrete,
    slice_restrict_wis, sparse_bound, sparse_extract, sparse_generate,
    sparse_universe, system_poset, transfer_closure, transfer_domain,
    transfer_of, transfer_to_indexing, unit_left, validate_wic,
)
from windex.gsets import disjoint_union, induce_concrete, require_group

from helpers import chain_restrict_oracle, generated_by_sparse_members

# Hasse diagram of the 13 aE-unital systems over a height-one chain, nodes
# numbered bottom-up (1 the empty system, 13 the complete one).
CP_FIGURE_EDGES = [
    (1, 2), (2, 3), (2, 5), (3, 4), (3, 6), (4, 7), (5, 6), (6, 7), (6, 8),
    (7, 9), (8, 9), (9, 10), (9, 11), (10, 13), (11, 12), (12, 13),
]

# Hasse diagram of the 21 unital systems over a height-two chain.  Nodes are
# named by grid position: columns are the five transfer systems (trivial,
# R_{C_p/e}, R_{C_p^2/C_p}, R_{C_p^2/e}, complete) and row bands are the fold
# families (row 1: everything; rows 2-4: {e, C_p}; rows 5-7: {e}; row 8: ∅),
# every (transfer, fold) fiber being a chain.
CP2_FIGURE_EDGES = [
    ("1-1", "1-2"), ("1-1", "1-3"), ("1-2", "1-4"), ("1-3", "1-5"),
    ("1-4", "1-5"), ("2-5", "1-5"), ("3-4", "1-4"), ("3-4", "3-5"),
    ("3-5", "2-5"), ("4-1", "1-1"), ("4-1", "4-2"), ("4-2", "1-2"),
    ("4-2", "4-4"), ("4-3", "2-3"), ("4-4", "3-4"), ("4-5", "3-5"),
    ("5-4", "3-4"), ("6-2", "4-2"), ("6-4", "5-4"), ("7-1", "4-1"),
    ("7-1", "7-2"), ("7-2", "6-2"), ("7-2", "7-4"), ("7-4", "6-4"),
    ("8-1", "7-1"), ("2-3", "1-3"), ("4-4", "4-5"), ("4-3", "4-5"),
    ("4-1", "4-3"), ("6-2", "6-4"), ("2-3", "2-5"), ("6-4", "4-4"),
]

# Fiber cardinalities of (transfer, fold) over the height-two chain: rows are
# the five transfer systems in enumeration order, columns the four fold
# families by size.
FIBER_TABLE = [
    [1, 1, 1, 1],
    [0, 2, 1, 1],
    [0, 0, 2, 1],
    [0, 3, 2, 1],
    [0, 0, 3, 1],
]


@contextmanager
def _criterion(number, label, budget=None):
    note = {}
    t0 = time.perf_counter()
    try:
        yield note
    except BaseException:
        took = time.perf_counter() - t0
        print(f"criterion {number} ({label}): FAIL [{took:.2f}s]")
        raise
    took = time.perf_counter() - t0
    ok = budget is None or took < budget
    extra = "".join(f", {k}={v}" for k, v in note.items())
    tag = f"{took:.2f}s" + (f", budget {budget:g}s" if budget else "") + extra
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{tag}]")
    assert ok, f"runtime {took:.2f}s exceeded the {budget:g}s budget"


def _transfer_key(R):
    return tuple(sorted((a, b) for a, b in R.pairs if a != b))


def _le(W1, W2):
    return leq(W1, W2) == YES


def test_criterion_01_transfer_system_counts():
    with _criterion(1, "transfer-system counts 2/5/14/42"):
        for n, want in [(1, 2), (2, 5), (3, 14), (4, 42)]:
            t0 = time.perf_counter()
            assert len(enumerate_transfer_systems(chain_group(2, n))) == want
            assert time.perf_counter() - t0 < 10.0


def test_criterion_02_family_chains():
    with _criterion(2, "family posets are (n+2)-chains", budget=1.0):
        for p, top in [(2, 5), (3, 3)]:
            for n in range(top):
                fams = enumerate_families(chain_group(p, n))
                assert len(fams) == n + 2
                assert all(a <= b or b <= a for a in fams for b in fams)


def test_criterion_03_height_one_classification():
    with _criterion(3, "height one: 13/2/6/9 and the 16-cover diagram",
                    budget=10.0):
        names = [str(i) for i in range(1, 14)]
        edges = [(str(a), str(b)) for a, b in CP_FIGURE_EDGES]
        expected = poset_from_covers(names, edges)
        for p in (2, 3):
            systems = enumerate_systems(chain_group(p, 1), "aE_unital")
            flags = [classify(W) for W in systems]
            assert len(systems) == 13
            assert sum(f["indexing"] for f in flags) == 2
            assert sum(f["unital"] for f in flags) == 6
            assert sum(f["almost_unital"] for f in flags) == 9
            actual = system_poset(systems)
            assert len(actual.covers()) == 16
            assert expected.isomorphic(actual) is not None


def test_criterion_04_height_two_classification(C4):
    with _criterion(4, "height two: 21 unital, 32-cover diagram, fibers",
                    budget=60.0):
        systems = enumerate_systems(C4, "unital")
        assert len(systems) == 21
        names = sorted({x for e in CP2_FIGURE_EDGES for x in e})
        expected = poset_from_covers(names, CP2_FIGURE_EDGES)
        actual = system_poset(systems)
        assert len(actual.covers()) == 32
        assert expected.isomorphic(actual) is not None
        transfers = enumerate_transfer_systems(C4)
        fams = enumerate_families(C4)
        tindex = {_transfer_key(R): i for i, R in enumerate(transfers)}
        findex = {F: j for j, F in enumerate(fams)}
        counts = [[0] * len(fams) for _ in transfers]
        for W in systems:
            i = tindex[_transfer_key(transfer_of(W))]
            j = findex[frozenset(W.families()["fold"])]
            counts[i][j] += 1
        assert counts == FIBER_TABLE


def test_criterion_05_point_and_groupoid_chain(PT, BG):
    with _criterion(5, "point/one-object-groupoid four-chain", budget=1.0):
        for P in (PT, BG):
            systems = enumerate_systems(P, "aE_unital")
            want = [f_trivial(P, []), f_trivial(P), f_zero(P), f_complete(P)]
            assert len(systems) == 4
            assert set(systems) == set(want)
            for lo, hi in zip(want, want[1:]):
                assert _le(lo, hi) and not _le(hi, lo)
            assert len(system_poset(systems).covers()) == 3
            assert sum(classify(W)["unital"] for W in systems) == 2


def test_criterion_06_sparse_round_trip(C2, C4):
    with _criterion(6, "sparse round-trip on all 13 + 21 systems") as note:
        pool = (enumerate_systems(C2, "aE_unital")
                + enumerate_systems(C4, "unital"))
        assert len(pool) == 34
        for W in pool:
            sp, exact = sparse_extract(W)
            assert exact
            assert sparse_generate(W.P, sp.sparse()) == W
            gens = [S for mem in W.sparse().values() for S in mem]
            regen = WeakIndexingSystem.from_generators(
                W.P, gens, bound=sparse_bound(W.P) + 2)
            sp2, exact2 = sparse_extract(regen)
            assert exact2
            assert sparse_generate(W.P, sp2.sparse()) == W
        note["systems"] = len(pool)


def test_criterion_07_oracle_equivalence():
    with _criterion(7, "brute = fiberwise; tables = concrete restriction"):
        for p, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            P = chain_group(p, n)
            brute = enumerate_systems(P, "unital")
            fiberwise = enumerate_systems_fiberwise(P, "unital")
            assert brute == fiberwise
            assert (system_poset(brute).isomorphic(system_poset(fiberwise))
                    is not None)
            level = {V: i for i, V in enumerate(P.orbit_classes)}
            for V in P.orbit_classes:
                for w in P.slice_keys(V):
                    target = P.slice_cls(V, w)
                    for u in P.slice_keys(V):
                        got = P.restrict_orbit(V, w, u)
                        X = concretize(P, P.vset(V, [(u, 1)]))
                        concrete = orbit_decompose(
                            P, restrict_concrete(P, V, w, X), target)
                        assert got == concrete
                        count, lvl = chain_restrict_oracle(
                            p, level[V], level[P.slice_cls(V, u)],
                            level[target])
                        closed_form = P.orbit_vset(
                            target, P.orbit_classes[lvl]).scale(count)
                        assert got == closed_form


def test_criterion_08_property_suites(C2, C3, C4):
    with _criterion(8, "algebraic-law suites") as note:
        cases = 0
        ae13 = enumerate_systems(C2, "aE_unital")
        unital21 = enumerate_systems(C4, "unital")
        fams2 = enumerate_families(C2)
        fams4 = enumerate_families(C4)
        transfers4 = enumerate_transfer_systems(C4)

        # lattice laws, exhaustive over the height-one aE lattice
        for W1, W2 in itertools.product(ae13, repeat=2):
            assert join(W1, W2) == join(W2, W1)
            assert meet(W1, W2) == meet(W2, W1)
            assert join(W1, meet(W1, W2)) == W1
            assert meet(W1, join(W1, W2)) == W1
            assert _le(W1, W2) == (join(W1, W2) == W2)
            assert _le(W1, W2) == (meet(W1, W2) == W1)
            cases += 1
        for W1, W2, W3 in itertools.product(ae13, repeat=3):
            assert join(join(W1, W2), W3) == join(W1, join(W2, W3))
            assert meet(meet(W1, W2), W3) == meet(W1, meet(W2, W3))
            cases += 1

        # Galois condition for every exposed adjoint pair
        for F in fams2:
            for W in ae13:
                fam = W.families()
                assert _le(color_left(C2, F), W) == (F <= fam["color"])
                assert _le(W, color_right(C2, F)) == (fam["color"] <= F)
                assert _le(unit_left(C2, F), W) == (F <= fam["unit"])
                cases += 1
        for F in fams4:
            for W in unital21:
                fam = W.families()
                assert _le(fold_left(C4, F), W) == (F <= fam["fold"])
                assert _le(W, fold_right(C4, F)) == (fam["fold"] <= F)
                cases += 1
        for R in transfers4:
            for W in unital21:
                fR = transfer_of(W)
                assert _le(minimal_unital(R), W) == (R.pairs <= fR.pairs)
                assert _le(W, transfer_to_indexing(R)) == (fR.pairs <= R.pairs)
                cases += 1
        slice_pt = C2.slice_presentation("e")
        point_systems = [f_trivial(slice_pt, []), f_trivial(slice_pt),
                         f_zero(slice_pt), f_complete(slice_pt)]
        for W in ae13:
            res = slice_restrict_wis(W, "e")
            for I in point_systems:
                assert _le(res, I) == _le(W, coinduce_wis(C2, "e", I))
                cases += 1

        # cocartesian transport: landing and universal property
        for W in unital21:
            fR = transfer_of(W)
            fold = frozenset(W.families()["fold"])
            for R in transfers4:
                if not fR.pairs <= R.pairs:
                    continue
                for F in fams4:
                    if not (fold <= F and frozenset(transfer_domain(R)) <= F):
                        continue
                    T = cocartesian_transport("transfer-fold", W, (R, F))
                    assert _le(W, T)
                    assert transfer_of(T).pairs == R.pairs
                    assert frozenset(T.families()["fold"]) == F
                    for W2 in unital21:
                        if (_le(W, W2)
                                and transfer_of(W2).pairs == R.pairs
                                and frozenset(W2.families()["fold"]) == F):
                            assert _le(T, W2)
                    cases += 1
        for W in unital21:
            fold = frozenset(W.families()["fold"])
            for F in fams4:
                if fold <= F:
                    T = cocartesian_transport("fold", W, F)
                    assert T == join(W, fold_left(C4, F))
                    assert F <= frozenset(T.families()["fold"])
                    cases += 1

        # join-compatibility of the family invariants
        pool = list(ae13)
        pool.append(WeakIndexingSystem.from_generators(
            C2, [C2.star_vset("C_2").scale(2)]))
        pool.append(WeakIndexingSystem.from_generators(
            C2, [C2.orbit_vset("C_2", "e") + C2.star_vset("C_2")]))
        pool.append(generated_by_sparse_members(f_perp_nu(C2, frozenset())))
        unit_grew = 0
        for W1, W2 in itertools.product(pool, repeat=2):
            f1, f2 = W1.families(), W2.families()
            fj = join(W1, W2).families()
            assert fj["color"] == f1["color"] | f2["color"]
            assert fj["eps"] == f1["eps"] | f2["eps"]
            if classify(W1)["aE_unital"] and classify(W2)["aE_unital"]:
                assert fj["unit"] == f1["unit"] | f2["unit"]
            else:
                assert f1["unit"] | f2["unit"] <= fj["unit"]
                unit_grew += (f1["unit"] | f2["unit"]) != fj["unit"]
            cases += 1
        assert unit_grew > 0
        for W1, W2 in itertools.product(unital21, repeat=2):
            J = join(W1, W2)
            union = transfer_of(W1).pairs | transfer_of(W2).pairs
            assert (transfer_of(J).pairs
                    == transfer_closure(C4, union).pairs)
            assert (J.families()["fold"]
                    == W1.families()["fold"] | W2.families()["fold"])
            cases += 1

        # double-coset identity: the multiset pipeline against fully
        # concrete induction, restriction, and orbit decomposition
        for p, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            P = chain_group(p, n)
            for V in P.orbit_classes:
                shapes = [S for S in P.vsets_up_to(V, 4)
                          if len(S.expand()) <= 2]
                for S in shapes:
                    slots = S.expand()
                    pools = [P.vsets_up_to(P.slice_cls(V, u), 3)
                             for u in slots]
                    for combo in itertools.product(*pools):
                        U = indexed_coproduct(P, S, list(combo))
                        X = concretize(P, P.empty_vset(V))
                        for u, T in zip(slots, combo):
                            X = disjoint_union(
                                X, induce_concrete(P, V, u, concretize(P, T)))
                        for w in P.slice_keys(V):
                            lhs = P.restrict(w, U)
                            rhs = orbit_decompose(
                                P, restrict_concrete(P, V, w, X),
                                P.slice_cls(V, w))
                            assert lhs == rhs
                            cases += 1

        # closure axioms of every enumerated system
        for W in ae13 + enumerate_systems(C3, "aE_unital") + unital21:
            report = validate_wic(W)
            flags = classify(W)
            assert report["restriction-stable"][0]
            assert report["segal"][0]
            assert report["one-color"][0] == flags["one_color"]
            if flags["indexing"]:
                assert report["all-folds"][0]
                assert report["summand-closed"][0]
            cases += 1

        assert cases >= 1000
        note["cases"] = cases


def test_criterion_09_representation_checks(C2, C3, C4):
    with _criterion(9, "named arity supports and the join law") as note:
        pairs = 0
        for P, top, name in [(C2, "C_2", "sigma"), (C3, "C_3", "lambda")]:
            W = arity_support(named_rep(P, name))
            free = P.orbit_vset(top, "e")
            expected = WeakIndexingSystem.from_sparse(P, {
                "e": {P.empty_vset("e"), P.star_vset("e"),
                      P.star_vset("e").scale(2)},
                top: {P.empty_vset(top), P.star_vset(top), free,
                      free + P.star_vset(top)},
            })
            assert W == expected
            assert _transfer_key(transfer_of(W)) == (("e", top),)
            assert W.families()["fold"] == frozenset({"e"})

        lam_p = arity_support(named_rep(C4, "lambda_cp"))
        half = C4.orbit_vset("C_4", "C_2")
        expected_p = WeakIndexingSystem.from_sparse(C4, {
            "e": {C4.empty_vset("e"), C4.star_vset("e"),
                  C4.star_vset("e").scale(2)},
            "C_2": {C4.empty_vset("C_2"), C4.star_vset("C_2"),
                    C4.star_vset("C_2").scale(2)},
            "C_4": {C4.empty_vset("C_4"), C4.star_vset("C_4"), half,
                    half + C4.star_vset("C_4")},
        })
        assert lam_p == expected_p
        assert _transfer_key(transfer_of(lam_p)) == (("C_2", "C_4"),)
        assert lam_p.families()["fold"] == frozenset({"e", "C_2"})

        lam_p2 = arity_support(named_rep(C4, "lambda_cp2"))
        free2 = C4.orbit_vset("C_2", "e")
        free4 = C4.orbit_vset("C_4", "e")
        expected_p2 = WeakIndexingSystem.from_sparse(C4, {
            "e": {C4.empty_vset("e"), C4.star_vset("e"),
                  C4.star_vset("e").scale(2)},
            "C_2": {C4.empty_vset("C_2"), C4.star_vset("C_2"), free2,
                    free2 + C4.star_vset("C_2")},
            "C_4": {C4.empty_vset("C_4"), C4.star_vset("C_4"), free4,
                    free4 + C4.star_vset("C_4")},
        })
        assert lam_p2 == expected_p2
        assert _transfer_key(transfer_of(lam_p2)) == (("e", "C_2"),
                                                      ("e", "C_4"))
        assert lam_p2.families()["fold"] == frozenset({"e"})

        zero4 = RepDescriptor(C4, {V: 0 for V in C4.orbit_classes},
                              name="zero")
        pool4 = [zero4, named_rep(C4, "lambda_cp"), named_rep(C4, "lambda_cp2"),
                 rep_sum(named_rep(C4, "lambda_cp"), named_rep(C4, "lambda_cp")),
                 rep_sum(named_rep(C4, "lambda_cp"), named_rep(C4, "lambda_cp2"))]
        for r1, r2 in itertools.product(pool4, repeat=2):
            assert (arity_support(rep_sum(r1, r2))
                    == join(arity_support(r1), arity_support(r2)))
            pairs += 1
        for P, name in [(C2, "sigma"), (C3, "lambda")]:
            r = named_rep(P, name)
            z = RepDescriptor(P, {V: 0 for V in P.orbit_classes}, name="zero")
            for r1, r2 in itertools.product([z, r, rep_sum(r, r)], repeat=2):
                assert (arity_support(rep_sum(r1, r2))
                        == join(arity_support(r1), arity_support(r2)))
                pairs += 1
        note["join-pairs"] = pairs


def test_criterion_10_multiplicative_hull(C2, C3):
    with _criterion(10, "multiplicative hulls are indexing systems",
                    budget=60.0) as note:
        for P in (C2, C3):
            for W in enumerate_systems(P, "unital"):
                assert classify(multiplicative_hull(W))["indexing"]

        # cross-check hull(F^0) against a fixed-point-count product oracle
        P = C2
        G = require_group(P)
        zero = f_zero(P)
        assert multiplicative_hull(zero) == f_complete(P)

        def coinduced_fixed(T, V, u, K):
            """Fixed points of the coinduction of T along u, counted by the
            double-coset product formula (the acting group is abelian)."""
            H = P.slice_rep[(V, u)]
            X = concretize(P, T)
            assert X.subgroup == H
            KH = {G.mul(k, h) for k in K for h in H}
            exponent = len(P.class_rep[V]) // len(KH)
            return len(X.fixed_points(frozenset(K & H))) ** exponent

        products = 0
        for V in P.orbit_classes:
            subs = {c: P.class_rep[c] for c in P.orbit_classes
                    if P.class_rep[c] <= P.class_rep[V]}
            for S in sparse_universe(P, V):
                slots = S.expand()
                choices = [[P.empty_vset(P.slice_cls(V, u)),
                            P.star_vset(P.slice_cls(V, u))] for u in slots]
                for combo in itertools.product(*choices):
                    got = indexed_product(P, S, list(combo))
                    fixed = {}
                    for c, K in subs.items():
                        count = 1
                        for u, T in zip(slots, combo):
                            count *= coinduced_fixed(T, V, u, K)
                        fixed[c] = count
                    if V == "e":
                        expected = P.star_vset("e").scale(fixed["e"])
                    else:
                        n_star = fixed["C_2"]
                        n_free, rem = divmod(fixed["e"] - n_star, 2)
                        assert rem == 0
                        expected = (P.star_vset(V).scale(n_star)
                                    + P.orbit_vset(V, "e").scale(n_free))
                    assert got == expected
                    assert zero.member(got) == YES
                    products += 1
        note["oracle-products"] = products
