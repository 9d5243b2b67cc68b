"""Independent oracles used across the test suite.

Everything here recomputes expected values from first principles, with none
of the incremental machinery of the package: closures run as plain fixpoint
loops, group data comes from explicit permutation tables, and chain
restrictions follow the double-coset counting formula directly.  The one
exception is `full_saturation`, the worklist `saturate` ran before it became
a rule of `poset.closure`, which shares the package's coproduct enumeration
(without `must`).  Some oracles are the package's own earlier algorithms,
kept here once a faster one replaced them: `saturated_minimal_unital`, `scanned_label`,
`pairwise_system_poset`, `per_sieve_fiber_systems`, `antichain_is_sparse`,
`combination_sparse_universe`, `merged_sparse_decomposition`,
`walked_closed_sets` and `member_named_order`.
"""
import functools
import itertools
from collections import deque

from windex.fibrations import (
    TransferSystem, enumerate_families, enumerate_transfer_systems, fold_left,
    is_family, transfer_codomain, transfer_to_indexing,
)
from windex.sieves import NotAdmissible, enumerate_sieves
from windex.enumeration import (
    _exact_levels, _in_output_order, content_hash, enumerate_systems,
)
from windex.poset import Poset, closure
from windex.presentation import indexed_coproduct, meet_semilattice
from windex.systems import (
    NotClosed, SparseDecomposition, WeakIndexingSystem,
    _check_same_presentation, _coproducts, downward_closure, f_complete,
    f_infinity, f_trivial, f_zero, is_sparse, join, sparse_closure,
    sparse_member, sparse_universe,
)


def naive_closure(P, gens, bound):
    """Fixpoint closure under units, restriction, and self-indexed
    coproducts, keeping members of at most `bound` points."""
    levels = {V: set() for V in P.orbit_classes}
    for S in gens:
        if P.points(S) <= bound:
            levels[S.over].add(S)
    changed = True
    while changed:
        changed = False
        for V in P.orbit_classes:
            if levels[V] and P.star_vset(V) not in levels[V]:
                levels[V].add(P.star_vset(V))
                changed = True
        for V in P.orbit_classes:
            for S in list(levels[V]):
                for w in P.slice_keys(V):
                    T = P.restrict(w, S)
                    if P.points(T) <= bound and T not in levels[T.over]:
                        levels[T.over].add(T)
                        changed = True
        for V in P.orbit_classes:
            for S in list(levels[V]):
                for combo in _component_choices(P, V, S, levels, bound):
                    U = indexed_coproduct(P, S, combo)
                    if P.points(U) <= bound and U not in levels[V]:
                        levels[V].add(U)
                        changed = True
    return {V: frozenset(mem) for V, mem in levels.items()}


def full_saturation(P, gens, bound):
    """Close the generators under units, restriction, and self-indexed
    coproducts with every member indexing them, keeping members of at most
    `bound` points: the worklist `saturate` ran before it became a rule of
    `poset.closure`, kept as its oracle, here with every member indexing
    whatever the generators, so that the sparse-indexed path has an oracle
    fast enough for C_8, S_3 and the diamond.  It shares `_coproducts` with
    `saturate` only without `must`: each round re-enumerates every coproduct
    over the indexing sets a new member touches."""
    levels = {V: set() for V in P.orbit_classes}
    pending = deque()
    dirty = set()
    by_component_class = {V: set() for V in P.orbit_classes}

    def add(S):
        if P.points(S) > bound or S in levels[S.over]:
            return
        levels[S.over].add(S)
        pending.append(S)
        dirty.update(by_component_class[S.over])
        dirty.add(S)
        for k, _ in S.orbits:
            by_component_class[P.slice_cls(S.over, k)].add(S)

    for g in gens:
        add(g)
    while pending or dirty:
        while pending:
            S = pending.popleft()
            add(P.star_vset(S.over))
            for w in P.slice_keys(S.over):
                add(P.restrict(w, S))
        batch, dirty = dirty, set()
        pools = coproduct_pools(P, levels)
        for S in sorted(batch):
            for result in _coproducts(P, S, pools, bound):
                add(result)
    return {V: frozenset(mem) for V, mem in levels.items()}


def coproduct_pools(P, levels):
    """`levels` as the component pools `_coproducts` takes: per class, the
    members as (points, member), fewest points first."""
    return {V: sorted((P.points(S), S) for S in mem) for V, mem in levels.items()}


def _component_choices(P, V, S, levels, bound):
    """All component tuples for a coproduct over S whose total size fits in
    `bound` (anything larger would be discarded by the size check anyway)."""
    slots = S.expand()
    pools = [sorted(levels[P.slice_cls(V, k)], key=str) for k in slots]
    if any(not pool for pool in pools):
        return
    weights = [P.slice_points(V, k) for k in slots]

    def walk(i, acc, budget):
        if i == len(slots):
            yield list(acc)
            return
        for T in pools[i]:
            cost = weights[i] * P.points(T)
            if cost <= budget:
                yield from walk(i + 1, acc + [T], budget - cost)

    yield from walk(0, [], bound)


def naive_member(P, gens, S, slack=0):
    """Membership of S in the system generated by `gens`, by brute closure
    up to the size of S (plus optional slack)."""
    bound = max([P.points(S)] + [P.points(g) for g in gens]) + slack
    return S in naive_closure(P, gens, bound)[S.over]


def extensional_fold_right(P, family, unital):
    """The largest unital system whose fold family lies inside `family`,
    as the join of every system in `unital` (all unital systems over P)
    whose fold family does."""
    fam = frozenset(family)
    acc = f_zero(P)
    for Y in unital:
        if Y.families()["fold"] <= fam:
            acc = join(acc, Y)
    return acc


def searched_indexing_systems(P):
    """The indexing systems of P, by filtering the brute-force unital list
    (`enumerate_systems(P, "unital")`) to the fold family of every class."""
    everything = frozenset(P.orbit_classes)
    return [W for W in enumerate_systems(P, "unital")
            if W.families()["fold"] == everything]


def _searched_level_ok(P, V, members, levels):
    """Necessary conditions on a candidate level of any of the three
    searched classes, given the levels already fixed below it."""
    star = P.star_vset(V)
    if members and star not in members:
        return False
    double = P.vset(V, [(P.star_key(V), 2)])
    for U in P.orbit_classes:
        if U != V and P.hom_exists(U, V) and members and not levels[U]:
            return False
    probe = dict(levels)
    probe[V] = members
    for S in members:
        for w in P.slice_keys(V):
            if P.slice_cls(V, w) == V:
                continue
            if not sparse_member(P, probe, P.restrict(w, S)):
                return False
    for S in members:
        # dropping one orbit is a coproduct with an empty component
        for key, m in S.orbits:
            if P.empty_vset(P.slice_cls(V, key)) not in probe[P.slice_cls(V, key)]:
                continue
            trimmed = [(k, mm) for k, mm in S.orbits if k != key]
            if m > 1:
                trimmed.append((key, m - 1))
            T = P.vset(V, trimmed)
            if is_sparse(P, T) and T not in members:
                return False
    if double in members:
        for S in members:
            for T in members:
                if S.orbits and T.orbits:
                    U = S + T
                    if is_sparse(P, U) and U not in members:
                        return False
    return True


def searched_systems(P, which):
    """The aE-unital, unital or almost-unital systems of P, by walking every
    choice of sparse members per level (the point at every class for
    almost-unital, the empty set too for unital) with no size cap, and
    keeping the candidates whose closure adds no sparse member; sorted like
    the enumerations."""
    units = {"aE_unital": (), "unital": (P.empty_vset, P.star_vset),
             "almost_unital": (P.star_vset,)}[which]
    forced = {V: frozenset(unit(V) for unit in units) for V in P.orbit_classes}
    classes = list(P.orbit_classes)
    out = []

    def certify(levels):
        gens = [S for mem in levels.values() for S in mem]
        try:
            closed = sparse_closure(
                P, gens,
                escape=lambda S: is_sparse(P, S) and S not in levels[S.over])
        except NotClosed:       # not almost essentially unital
            return
        if closed is not None:
            out.append(WeakIndexingSystem.from_sparse(
                P, dict(levels), validate=False))

    def walk(i, levels):
        if i == len(classes):
            certify(levels)
            return
        V = classes[i]
        free = [S for S in sparse_universe(P, V) if S not in forced[V]]
        for mask in range(2 ** len(free)):
            members = forced[V] | {
                S for j, S in enumerate(free) if mask >> j & 1}
            if _searched_level_ok(P, V, members, levels):
                levels[V] = members
                walk(i + 1, levels)
        levels[V] = frozenset()

    walk(0, {V: frozenset() for V in classes})
    return _in_output_order(out)


def subsets(items):
    """Every subset of `items`, by size, then lexicographically by position."""
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def scanned_families(P):
    """The families of P, by testing every set of orbit classes."""
    return [frozenset(c) for c in subsets(P.orbit_classes) if is_family(P, c)]


def transfer_conditions(P, pairs):
    """The definition of a transfer system, checked pair by pair: the pairs
    hold every identity, and with (u, V) they hold its composite with every
    pair over the class of V/u, and each of its base changes."""
    if any((P.star_key(V), V) not in pairs for V in P.orbit_classes):
        return False
    for u, V in pairs:
        U = P.slice_cls(V, u)
        for x, U2 in pairs:
            if U2 == U and (P.induct_key(V, u, x), V) not in pairs:
                return False
        for w in P.slice_keys(V):
            W = P.slice_cls(V, w)
            if any((k, W) not in pairs for k in P.restriction_keys(V, w, u)):
                return False
    return True


def scanned_transfer_systems(P):
    """The transfer systems of P, by testing every set of non-identity
    orbits for closure under composition and base change."""
    strict = [(u, V) for V in P.orbit_classes
              for u in P.slice_keys(V) if u != P.star_key(V)]
    identities = {(P.star_key(V), V) for V in P.orbit_classes}
    return [TransferSystem(P, identities | set(c), check=False)
            for c in subsets(strict)
            if transfer_conditions(P, identities | set(c))]


def sieve_conditions(P, R, scope, pairs):
    """The definition of a sieve of R on the scope, checked pair by pair:
    each (K, H) is admissible with H in the scope, brings (K, L) for every L
    of the scope strictly between K and H, and (J, H) for every admissible
    (J, K)."""
    idx = P.orbit_index
    strict = R.strict()
    for K, H in pairs:
        if (K, H) not in strict or H not in scope:
            return False
        for L in scope:
            if idx(K) < idx(L) < idx(H) and (K, L) not in pairs:
                return False
        for J, K2 in strict:
            if K2 == K and (J, H) not in pairs:
                return False
    return True


def scanned_sieves(R, family):
    """The pair sets of the sieves of R on the scope the family leaves, by
    testing every set of admissible orbits into the scope."""
    scope = transfer_codomain(R) - frozenset(family)
    available = sorted((K, H) for K, H in R.strict() if H in scope)
    return [frozenset(c) for c in subsets(available)
            if sieve_conditions(R.P, R, scope, frozenset(c))]


def permutation_table(gens):
    """Multiplication table of the group of permutations of 0..n-1 generated
    by `gens` (row acts first); elements in the order they are found from
    the identity."""
    n = len(gens[0])

    def compose(a, b):
        return tuple(b[a[i]] for i in range(n))

    perms = [tuple(range(n))]
    for a in perms:             # grows while it is read
        for g in gens:
            if compose(a, g) not in perms:
                perms.append(compose(a, g))
    return [[perms.index(compose(a, b)) for b in perms] for a in perms]


def s3_table():
    """The symmetric group on three letters, generated by all of them."""
    return permutation_table(list(itertools.permutations(range(3))))


def klein_table():
    """C_2 x C_2: two commuting double transpositions of four letters."""
    return permutation_table([(1, 0, 3, 2), (2, 3, 0, 1)])


def c6_table():
    """C_6: a 6-cycle."""
    return permutation_table([(1, 2, 3, 4, 5, 0)])


def q8_table():
    """The quaternion group Q_8, acting on itself: left multiplication by i
    and by j on the points 1, i, j, k, -1, -i, -j, -k (numbered 0 to 7)."""
    return permutation_table([(1, 4, 3, 6, 5, 0, 7, 2),
                              (2, 7, 4, 1, 6, 3, 0, 5)])


def a4_table():
    """The alternating group A_4: a 3-cycle and a double transposition."""
    return permutation_table([(1, 2, 0, 3), (1, 0, 3, 2)])


def a5_table():
    """The alternating group A_5: a 5-cycle and a 3-cycle."""
    return permutation_table([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


def scanned_subgroups(G):
    """The subgroups of a `GroupTable`, by testing every set of elements
    that holds the identity for closure under products (a finite set closed
    under products is closed under inverses); ordered like
    `GroupTable.subgroups`."""
    return [frozenset(c) for c in subsets(range(G.n))
            if G.e in c and all(G.mul(a, b) in c for a in c for b in c)]


class MatrixPoset:
    """The order kept as a list-of-lists matrix of bools, with the order
    checks, covers and extremes as plain O(n^3) loops over it: the oracle of
    the bitmask `Poset`."""

    def __init__(self, elements, leq):
        self.elements = list(elements)
        n = len(self.elements)
        self._leq = [[bool(leq(a, b)) for b in self.elements] for a in self.elements]
        for i in range(n):
            if not self._leq[i][i]:
                raise ValueError("order is not reflexive")
            for j in range(n):
                if i != j and self._leq[i][j] and self._leq[j][i]:
                    raise ValueError("order is not antisymmetric")
                for k in range(n):
                    if self._leq[i][j] and self._leq[j][k] and not self._leq[i][k]:
                        raise ValueError("order is not transitive")

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return self._leq[i][j]

    def covers(self):
        """Pairs (i, j) with i < j and nothing strictly in between."""
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self._leq[i][j]:
                    continue
                if any(k != i and k != j and self._leq[i][k] and self._leq[k][j]
                       for k in range(n)):
                    continue
                out.append((i, j))
        return sorted(out)

    def bottom(self):
        for i in range(len(self.elements)):
            if all(self._leq[i][j] for j in range(len(self.elements))):
                return i
        return None

    def top(self):
        for j in range(len(self.elements)):
            if all(self._leq[i][j] for i in range(len(self.elements))):
                return j
        return None


def permuted_isomorphism(a, b):
    """An order isomorphism from poset `a` onto poset `b` (element i to
    mapping[i]), found by trying every permutation, or None: the oracle of
    `Poset.isomorphic`, for a handful of elements."""
    n = len(a)
    if n != len(b):
        return None
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for perm in itertools.permutations(range(n)):
        if all(a.leq(i, j) == b.leq(perm[i], perm[j]) for i, j in pairs):
            return list(perm)
    return None


def diamond_semilattice():
    """The four-element lattice 0 < a, b < 1 with a and b incomparable, as
    subsets of a two-element set meeting by intersection."""
    bits = {"0": 0, "a": 1, "b": 2, "1": 3}
    name = {v: k for k, v in bits.items()}
    return meet_semilattice(list(bits), lambda x, y: name[bits[x] & bits[y]])


def chain_restrict_oracle(p, v, l, k):
    """Restriction of the orbit C_p^v / C_p^k along C_p^v / C_p^l, counted
    through double cosets of the cyclic chain: p^(v - max(l, k)) copies of
    the orbit at level min(l, k)."""
    return p ** (v - max(l, k)), min(l, k)


def level_sets(W):
    """Sparse levels of a system as a dict of plain sorted lists (printable,
    order-stable)."""
    return {V: sorted(str(S) for S in W.sparse_levels[V])
            for V in W.P.orbit_classes}


def saturated_minimal_unital(R):
    """The smallest unital system with the admissible orbits of R, by closing
    the empty set, the point and the admissible orbits."""
    P = R.P
    gens = []
    for V in P.orbit_classes:
        gens.append(P.empty_vset(V))
        gens.append(P.star_vset(V))
    for u, V in sorted(R.strict()):
        gens.append(P.orbit_vset(V, u))
    return WeakIndexingSystem.from_sparse(P, sparse_closure(P, gens),
                                          validate=False)


def listed_label_library(P):
    """The named constructions over P as a list of (system, label) pairs, in
    the order whose first match names a system; the minimal unital systems
    come from `saturated_minimal_unital`."""
    lib = []
    families = enumerate_families(P)
    for fam in families:
        for make in (f_trivial, f_zero, f_infinity, f_complete):
            W = make(P, fam)
            lib.append((W, W.label))
    for fam in families:
        if fam and fam != frozenset(P.orbit_classes):
            lib.append((fold_left(P, fam), f"F^0+fold[{','.join(sorted(fam))}]"))
    for R in enumerate_transfer_systems(P):
        if R.strict():
            tag = ",".join(f"{u}<{V}" for u, V in sorted(R.strict()))
            lib.append((saturated_minimal_unital(R), f"F_min[{tag}]"))
            lib.append((transfer_to_indexing(R), f"F_max[{tag}]"))
    return lib


def scanned_label(W, listed):
    """The label of the first entry of `listed_label_library` equal to W,
    else W's content hash."""
    for X, label in listed:
        if X == W:
            return label
    return f"W#{content_hash(W)}"


def pairwise_system_poset(systems):
    """The containment poset of exact sparse systems, labelled by index:
    each system coded as one bitmask over the sparse members of the list,
    and every ordered pair of codes compared."""
    bits, codes = {}, []
    for W in systems:
        _check_same_presentation(systems[0], W)
        code = 0
        for V, mem in _exact_levels(W).items():
            for S in mem:
                code |= 1 << bits.setdefault((V, S), len(bits))
        codes.append(code)
    return Poset(range(len(systems)), lambda a, b: codes[a] & ~codes[b] == 0)


def recomputed_transfer_domain(R):
    """The classes over which some admissible orbit of R folds, worked out
    from R's pairs on every call."""
    P = R.P
    out = set()
    for v, W in R.pairs:
        if v == P.star_key(W):
            continue
        for a in P.slice_keys(W):
            if P.fixed_points(W, a, ((v, 1),)) >= 2:
                out.add(P.slice_cls(W, a))
    return frozenset(out)


def recomputed_transfer_codomain(R):
    """The family generated by the targets of R's non-identity pairs."""
    P = R.P
    return downward_closure(
        P, {V for u, V in R.pairs if u != P.star_key(V)})


def per_sieve_fiber(R, family, sieve):
    """The unital chain system of (R, family, sieve), the domain of R
    recomputed and each level built from V-sets made afresh."""
    P = R.P
    fam = frozenset(family)
    if not recomputed_transfer_domain(R) <= fam:
        raise NotAdmissible("the domain of R must fold")
    levels = {}
    for H in P.orbit_classes:
        star = P.star_key(H)
        level = {P.empty_vset(H), P.star_vset(H)}
        admissible = [K for K, H2 in R.pairs if H2 == H and K != star]
        for K in admissible:
            level.add(P.orbit_vset(H, K))
        if H in fam:
            level.add(P.vset(H, [(star, 2)]))
            for K in admissible:
                level.add(P.vset(H, [(star, 1), (K, 1)]))
        else:
            for K, H2 in sieve.pairs:
                if H2 == H:
                    level.add(P.vset(H, [(star, 1), (K, 1)]))
        levels[H] = frozenset(level)
    return WeakIndexingSystem.from_sparse(P, levels, validate=False)


def per_sieve_fiber_systems(R, family):
    """The fiber over (R, family) one sieve at a time, each system built by
    `per_sieve_fiber`; empty when the domain of R does not fold."""
    fam = frozenset(family)
    if not recomputed_transfer_domain(R) <= fam:
        return []
    return [per_sieve_fiber(R, fam, s) for s in enumerate_sieves(R, fam)]


def antichain_is_sparse(P, S):
    """Sparseness tested on S alone: the double point, or multiplicities at
    most one and no slice map either way between two non-terminal orbits."""
    V = S.over
    star = P.star_key(V)
    if S.orbits == ((star, 2),):
        return True
    if any(m > 1 for _, m in S.orbits):
        return False
    nonterminal = [k for k, _ in S.orbits if k != star]
    for a, b in itertools.combinations(nonterminal, 2):
        if P.slice_hom_exists(V, a, b) or P.slice_hom_exists(V, b, a):
            return False
    return True


def combination_sparse_universe(P, V):
    """The sparse V-sets listed by filtering every combination of
    non-terminal orbits: the empty set, the point, the double point, then
    each antichain without and with a disjoint point."""
    star = P.star_key(V)
    out = [P.empty_vset(V), P.star_vset(V), P.vset(V, [(star, 2)])]
    nonterminal = [k for k in P.slice_keys(V) if k != star]
    for r in range(1, len(nonterminal) + 1):
        for combo in itertools.combinations(nonterminal, r):
            if any(P.slice_hom_exists(V, a, b) or P.slice_hom_exists(V, b, a)
                   for a, b in itertools.combinations(combo, 2)):
                continue
            body = P.vset(V, [(k, 1) for k in combo])
            out.append(body)
            out.append(body + P.star_vset(V))
    return tuple(out)


def merged_sparse_decomposition(P, S):
    """`sparse_decompose` by repeated merging: the least-keyed surviving
    orbit that maps to another survivor folds into the least-keyed survivor
    above it (every orbit that folded into it follows), and the scan starts
    over until the survivors form an antichain."""
    V = S.over
    star = P.star_key(V)
    key_order = {k: i for i, k in enumerate(P.slice_keys(V))}
    star_count = S.mult(star)
    nonterminal = [k for k, _ in S.orbits if k != star]

    if not nonterminal:
        if star_count == 0:
            return SparseDecomposition(P.empty_vset(V), {}, ())
        if star_count == 1:
            return SparseDecomposition(P.star_vset(V), {star: star},
                                       (P.star_vset(V),))
        return SparseDecomposition(
            P.vset(V, [(star, 2)]), {star: star},
            (P.star_vset(V), P.star_vset(V).scale(star_count - 1)))

    survivors = list(nonterminal)
    target = {k: k for k in nonterminal}
    while True:
        merged = False
        for a in sorted(survivors, key=key_order.get):
            candidates = [b for b in survivors
                          if b != a and P.slice_hom_exists(V, a, b)]
            if candidates:
                w = min(candidates, key=key_order.get)
                survivors.remove(a)
                for k, t in target.items():
                    if t == a:
                        target[k] = w
                merged = True
                break
        if not merged:
            break

    reduced_pairs = [(k, 1) for k in survivors]
    retraction = dict(target)
    if star_count:
        reduced_pairs.append((star, 1))
        retraction[star] = star
    reduced = P.vset(V, reduced_pairs)

    pieces = []
    for w in reduced.expand():
        if w == star:
            pieces.append(P.star_vset(V).scale(star_count))
            continue
        W = P.slice_cls(V, w)
        acc = P.empty_vset(W)
        for k, m in S.orbits:
            if k == star or target[k] != w:
                continue
            x = next(x for x in P.slice_keys(W) if P.induct_key(V, w, x) == k)
            acc = acc + P.orbit_vset(W, x, m)
        pieces.append(acc)
    return SparseDecomposition(reduced, retraction, tuple(pieces))


def walked_closed_sets(items, rule):
    """`poset.closed_sets` by a walk that steps from each closed set C to
    the closure of C and x for every x outside C, keeping a set of those
    seen: the closure lies inside any closed set holding C and x, so the
    walk reaches every closed set, most of them many times."""
    pos = {x: i for i, x in enumerate(items)}
    start = closure(rule)
    seen, todo = {start}, [start]
    while todo:
        C = todo.pop()
        for x in items:
            if x not in C:
                D = closure(rule, C, [x])
                if D not in seen:
                    seen.add(D)
                    todo.append(D)
    return sorted(seen, key=lambda C: (len(C), sorted(pos[x] for x in C)))


def member_named_order(systems):
    """The output order of the enumerations, each member occurrence named
    through a cache keyed by the member: by number of sparse members, then
    by the sorted member names."""
    name = functools.lru_cache(maxsize=None)(str)

    def size_then_members(W):
        members = [S for level in W.sparse_levels.values() for S in level]
        return len(members), tuple(sorted(map(name, members)))

    return sorted(systems, key=size_then_members)
