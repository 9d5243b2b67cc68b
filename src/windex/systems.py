"""Weak indexing systems: membership, families, the lattice, and closures.

A weak indexing system over an orbital presentation is a collection of
V-sets, one level per orbit class, that is closed under restriction, contains
the terminal V-set whenever its level is nonempty, and is closed under
self-indexed coproducts.  A system has one of two backings:

* sparse levels — the system's sparse members, level by level.  A V-set is
  sparse when its terminal multiplicity is at most one (the double point
  2*star being the one exception), no other orbit repeats, and distinct
  non-terminal orbits admit no maps either way.  Almost essentially unital
  systems are generated by their sparse members, and membership of an
  arbitrary V-set reduces along its isotropy decomposition (`sparse_member`);
  everything with this backing is exact.
* a trivalent membership oracle — either the saturation of arbitrary
  generators up to a point bound (`from_generators`: exact up to the bound,
  "indeterminate" beyond it), or a callable (`from_predicate`) for systems
  defined by a formula (coinduction, fixed-point conditions, meets).

Equality and hashing go by content, whatever the backing (see
`WeakIndexingSystem`).
"""
from __future__ import annotations

import bisect
import itertools

from . import gsets
from .poset import closure
from .presentation import VSet, UnsupportedBackend, sub_multisets

YES = "yes"
NO = "no"
INDETERMINATE = "indeterminate"


class MixedPresentation(ValueError):
    """Two systems over different orbital presentations were combined."""


class NotClosed(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundTooSmall(ValueError):
    pass


class _Escaped(Exception):
    pass


def closure_bound(P, *vsets):
    """Default saturation bound: twice the largest V-set, at least 8."""
    biggest = max((P.points(S) for S in vsets), default=0)
    return max(8, 2 * biggest)


# -- sparse V-sets ----------------------------------------------------------


def _unknown_class(P, V):
    return MixedPresentation(f"{V!r} is not an orbit class of {P.key}")


def is_sparse(P, S):
    """Is S one of the sparse V-sets of `sparse_universe`?"""
    try:
        return S in P.sparse_sets[S.over]
    except KeyError:
        raise _unknown_class(P, S.over) from None


def sparse_universe(P, V):
    """All sparse V-sets: the empty set, the point, the double point, and
    antichains of non-terminal orbits with or without a disjoint point."""
    try:
        return P.sparse_universes[V]
    except KeyError:
        raise _unknown_class(P, V) from None


def sparse_bound(P):
    """Points of the largest sparse V-set anywhere in the presentation."""
    return P.sparse_bound


def downward_closure(P, classes):
    """The classes with a map to one of the given classes."""
    return frozenset().union(*(P.down_sets[V] for V in classes))


# -- saturation -------------------------------------------------------------


def _coproducts(P, S, pools, bound, must=None):
    """Self-indexed coproducts over S, total size at most `bound`, with
    components from `pools` (class -> list of (points, member), ascending).
    With `must`, only those with `must` as a component, each choice of
    component multisets once: the first slot of must's class holding it takes
    one copy first, and the earlier slots of that class choose without it."""
    V = S.over
    slots = [(k, m, P.slice_points(V, k), P.slice_cls(V, k))
             for k, m in S.orbits]
    if any(not pools[cls] for *_, cls in slots):
        return

    def walk(copies, i, start, acc, budget):
        # one component per orbit copy; the copies of a key choose a multiset
        if i == len(copies):
            yield acc
            return
        k, weight, pool = copies[i]
        again = i + 1 < len(copies) and copies[i + 1][0] == k
        for j in range(start, len(pool)):
            cost = weight * pool[j][0]
            if cost > budget:
                break
            yield from walk(copies, i + 1, j if again else 0,
                            acc + P.induct_vset(V, k, pool[j][1]), budget - cost)

    if must is None:
        yield from walk([(k, w, pools[c]) for k, m, w, c in slots for _ in range(m)],
                        0, 0, P.empty_vset(V), bound)
        return
    without = [entry for entry in pools[must.over] if entry[1] != must]
    for i, (k, _, weight, cls) in enumerate(slots):
        cost = weight * P.points(must)
        if cls == must.over and cost <= bound:
            yield from walk([(k2, w2, without if c2 == cls and j < i else pools[c2])
                             for j, (k2, m2, w2, c2) in enumerate(slots)
                             for _ in range(m2 - (j == i))],
                            0, 0, P.induct_vset(V, k, must), bound - cost)


def _saturation_rule(P, bound, sparse_indexed, escape):
    """The rule `saturate` closes under.  A member S brings in the point at
    its class, its restrictions, its sparse reduced set and pieces when it
    does not index coproducts, and the coproducts within `bound` over S or,
    with S as a component, over an indexing set expanded earlier; `escape`
    runs on each new one.  The rule keeps the members and indexing sets it
    has expanded: `poset.closure` expands each item once, so each coproduct
    is built once, when the last of its parts is expanded (semi-naive)."""
    pools = {V: [] for V in P.orbit_classes}
    indexing = {V: [] for V in P.orbit_classes}

    def brought_in(S):
        V = S.over
        yield P.star_vset(V)
        for w in P.slice_keys(V):
            yield P.restrict(w, S)
        bisect.insort(pools[V], (P.points(S), S))
        for T in indexing[V]:
            yield from _coproducts(P, T, pools, bound, must=S)
        if sparse_indexed and not is_sparse(P, S):
            d = sparse_decompose(P, S)
            yield from (d.reduced, *d.pieces)
            return
        for W in {P.slice_cls(V, k) for k, _ in S.orbits}:
            indexing[W].append(S)
        yield from _coproducts(P, S, pools, bound)

    def rule(S, present):
        for T in brought_in(S):
            if T not in present and P.points(T) <= bound:
                if escape is not None and escape(T):
                    raise _Escaped
                yield T
    return rule


def saturate(P, gens, bound, escape=None):
    """Close the generators under restriction, units, and self-indexed
    coproducts, keeping every member of at most `bound` points: the
    `poset.closure` of the generators under `_saturation_rule`.

    Returns a dict orbit class -> frozenset of members.  The result is the
    full set of members of that size whenever `bound` also covers the
    generators (derivations flatten, so nothing larger is ever needed).

    `escape`, if given, is called on each newly found member; a true return
    aborts the whole saturation with result None (used to reject enumeration
    candidates as soon as a stray sparse member shows up).

    When the generators are almost essentially unital (their eps family, the
    classes under one with a generator other than the point, equals the
    classes with the empty set as a generator), only sparse members index
    coproducts; every member is still a component, and a member that is not
    sparse brings in its sparse reduced set and pieces (`sparse_decompose`).
    That is exact, and nothing in the argument uses sparse generators:

    1. The generated system has the same eps and unit families.  A new member
       is the point, a restriction (which stays under its source's class), or
       a coproduct, which is its component when indexed by the point and else
       lies at a class where the index is a member other than the point.  So
       eps does not grow; and unit lies inside eps, and contains the
       generators' unit, so it equals eps throughout.
    2. In such a system the sparse reduced set and the pieces of a member S
       are members: the reduced set is a coproduct over S with points and
       empty sets as components (the empty sets are there because unit =
       eps), and each piece is a summand of a restriction of S.  A coproduct
       over S is one over the reduced set whose components are coproducts
       over the pieces, so by induction along the decomposition (the
       recursion `sparse_member` runs) every coproduct is reached by
       coproducts indexed by sparse members.
    """
    gens = list(dict.fromkeys(gens))
    fam = _generator_families(P, gens)
    rule = _saturation_rule(P, bound, fam["eps"] == fam["unit"], escape)
    try:
        for g in gens:
            if P.points(g) > bound:
                raise BoundTooSmall(
                    f"generator with {P.points(g)} points exceeds bound {bound}")
            if escape is not None and escape(g):
                raise _Escaped
        members = closure(rule, (), gens)
    except _Escaped:
        return None
    return {V: frozenset(S for S in members if S.over == V)
            for V in P.orbit_classes}


def sparse_part(P, levels):
    try:
        return {V: P.sparse_sets[V].intersection(mem)
                for V, mem in levels.items()}
    except KeyError as err:
        raise _unknown_class(P, err.args[0]) from None


# -- isotropy decomposition --------------------------------------------------


class SparseDecomposition:
    """S as a coproduct: `reduced`, the sparse reduced-isotropy set;
    `retraction`, each orbit key of S -> the key of `reduced` it maps to;
    `pieces`, the components aligned with `reduced.expand()`."""

    __slots__ = ("reduced", "retraction", "pieces")

    def __init__(self, reduced, retraction, pieces):
        self.reduced = reduced
        self.retraction = retraction
        self.pieces = pieces

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.reduced, self.retraction, self.pieces)
                == (other.reduced, other.retraction, other.pieces))

    def __repr__(self):
        return (f"SparseDecomposition(reduced={self.reduced!r}, "
                f"retraction={self.retraction!r}, pieces={self.pieces!r})")


def sparse_decompose(P, S):
    """Write S as a coproduct over a sparse V-set.

    The non-terminal orbits that map to no other orbit of S survive and form
    an antichain; every other orbit folds onto a survivor above it, and the
    component at a survivor collects everything that folded into it,
    rewritten over its class.  Always:
    ``indexed_coproduct(P, d.reduced, d.pieces) == S``.
    """
    V = S.over
    try:
        star = P.star_key(V)
    except KeyError:
        raise _unknown_class(P, V) from None
    key_order = {k: i for i, k in enumerate(P.slice_keys(V))}
    star_count = S.mult(star)
    nonterminal = [k for k, _ in S.orbits if k != star]

    if not nonterminal and star_count > 1:
        # n copies of the point fold over the double point
        return SparseDecomposition(
            P.double_vset(V), {star: star},
            (P.star_vset(V), P.orbit_vset(V, star, star_count - 1)))

    # The merge order in one pass (folding the least-keyed orbit that maps to
    # another survivor into the least-keyed survivor above it until none does
    # is `merged_sparse_decomposition` in the tests): maximal orbits survive,
    # and, in decreasing key order, every other orbit shares the target of the
    # least-keyed orbit above it that is maximal or later in key order.
    by_key = sorted(nonterminal, key=key_order.get)
    target = {a: a for a in by_key if not any(
        b != a and P.slice_hom_exists(V, a, b) for b in by_key)}
    reduced_pairs = [(k, 1) for k in nonterminal if k in target]
    for a in reversed(by_key):
        if a not in target:
            target[a] = target[next(b for b in by_key if b in target
                                    and P.slice_hom_exists(V, a, b))]
    retraction = {k: target[k] for k in nonterminal}
    if star_count:
        reduced_pairs.append((star, 1))
        retraction[star] = star
    reduced = P.vset(V, reduced_pairs)

    pieces = []
    for w in reduced.expand():
        if w == star:
            pieces.append(P.orbit_vset(V, star, star_count))
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


# -- sparse membership and closure ---------------------------------------------


def sparse_member(P, levels, S):
    """Is S a member of the system whose sparse members are `levels`?

    A sparse S is looked up.  Any other S is a coproduct over its sparse
    reduced set (`sparse_decompose`), and belongs exactly when that set and
    every piece do; this holds whenever the system is almost essentially
    unital, which is what makes the sparse levels a faithful description.

    n copies of the point (n >= 3; fewer are sparse) decompose over the double
    point into the point and n - 1 copies, so they belong exactly when the
    double point and the point do; that is decided at once, not n levels deep.
    """
    if is_sparse(P, S):
        return S in levels[S.over]
    V = S.over
    star = P.star_key(V)
    if S.orbits[0][0] == star and len(S.orbits) == 1:
        return (P.double_vset(V) in levels[V]
                and P.star_vset(V) in levels[V])
    d = sparse_decompose(P, S)
    return (d.reduced in levels[V]
            and all(sparse_member(P, levels, piece) for piece in d.pieces))


def sparse_closure(P, gens, escape=None):
    """The sparse members of the system generated by `gens`, or None if
    `escape` (as in `saturate`) fires on a member.

    The generators must be almost essentially unital (their eps family must
    equal their unit family); NotClosed is raised otherwise.  Their closure
    then indexes coproducts by sparse members only (`saturate` says why), and
    saturating up to `sparse_bound` points (at least 2: the double point is
    sparse) decides every sparse V-set, since derivations flatten."""
    gens = list(gens)
    fam = _generator_families(P, gens)
    if fam["eps"] != fam["unit"]:
        raise NotClosed(
            "the generators are not almost essentially unital (eps "
            f"{sorted(fam['eps'])} vs unit {sorted(fam['unit'])})")
    closed = saturate(P, gens, sparse_bound(P), escape)
    return None if closed is None else sparse_part(P, closed)


def _check_closed(P, levels):
    """Raise NotClosed unless the sparse V-sets `levels` (one frozenset per
    class of P) are exactly the sparse members of the system they generate;
    data that is not almost essentially unital is refused first."""
    got = sparse_closure(P, [S for mem in levels.values() for S in mem])
    for V in P.orbit_classes:
        extra = got[V] - levels[V]
        if extra:
            raise NotClosed(
                f"sparse data is not closed: level {V!r} also "
                f"generates {sorted(extra)[0]}", witness=sorted(extra)[0])


def _generator_families(P, gens):
    return families_of_levels(
        P, {V: {S for S in gens if S.over == V} for V in P.orbit_classes})


def families_of_levels(P, levels):
    """The color, unit, fold, and one-extra-orbit (eps) families, read off
    levels that hold at least every sparse member of the system.  Off bare
    generators (`_generator_families`) only eps = unit is read, and then
    those two are the generated system's (see `saturate`)."""
    def having(vset_at):
        return frozenset(V for V, mem in levels.items() if vset_at(V) in mem)

    return {
        "color": having(P.star_vset),
        "unit": having(P.empty_vset),
        "fold": having(P.double_vset),
        "eps": downward_closure(P, [V for V, mem in levels.items()
                                    if len(mem) > (P.star_vset(V) in mem)]),
    }


def _conjunction(verdicts):
    """Trivalent AND: any "no" gives "no" (asking no further), else any
    "indeterminate" gives "indeterminate", else "yes"."""
    out = YES
    for r in verdicts:
        if r == NO:
            return NO
        if r == INDETERMINATE:
            out = INDETERMINATE
    return out


# -- the system class --------------------------------------------------------


class WeakIndexingSystem:
    """One weak indexing system, backed by its exact sparse levels or by a
    trivalent membership oracle.

    `from_sparse` gives the sparse backing.  `from_generators` and
    `from_predicate` give an oracle: the saturation of the generators up to a
    point bound (beyond it every answer is "indeterminate"), or the callable.
    An oracle-backed system may also carry a bound and the member levels it
    already knows (a generated system its saturation, a meet every common
    member its inputs know of).  Systems are equal when their content is:
    the sparse levels whenever those describe the system faithfully, else
    the bound and known levels of a bounded system.  A predicate without a
    faithful sparse form has no finite content and is equal only to itself:
    no bound fixed in advance tells two predicates apart, since over the
    point {n*pt : n = 1 or n >= k} is a system for every k >= 2.
    """

    def __init__(self, P, sparse_levels=None, oracle=None, gens=None,
                 bound=None, known=None, families=None, label=None):
        self.P = P
        self.sparse_levels = sparse_levels
        self.oracle = oracle
        self.gens = gens
        self.bound = bound
        self.label = label
        self._known = known
        self._families = families
        self._member_cache = {}
        self._level_info = None
        self._content_key = None
        self._hash = None

    @property
    def form(self):
        """How the system is stored: "sparse", "generated" (generators and a
        bound) or "predicate"."""
        if self.sparse_levels is not None:
            return "sparse"
        return "predicate" if self.gens is None else "generated"

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_sparse(cls, P, levels, validate=True, label=None):
        """A system given by its sparse members.

        Validation checks that every input is sparse, that the inputs are
        exactly the sparse members of the system they generate, and that the
        result is almost essentially unital (which is what makes the sparse
        data a faithful description).  A level at a class P does not have
        raises MixedPresentation, validated or not.
        """
        for V in levels:
            if V not in P._slices:
                raise _unknown_class(P, V)
        full = {V: frozenset(levels.get(V, ())) for V in P.orbit_classes}
        if validate:
            for V, mem in full.items():
                if not mem <= P.sparse_sets[V]:
                    S = next(S for S in mem if S not in P.sparse_sets[V])
                    raise NotClosed(f"level {V}: {S} is not a sparse {V}-set",
                                    witness=S)
            _check_closed(P, full)
        return cls(P, sparse_levels=full, label=label)

    @classmethod
    def from_generators(cls, P, gens, bound=None, label=None):
        gens = tuple(gens)
        for g in gens:
            if g.over not in P._slices:
                raise MixedPresentation(f"generator over unknown class {g.over!r}")
        biggest = max((P.points(g) for g in gens), default=0)
        if bound is None:
            bound = max(closure_bound(P, *gens), sparse_bound(P))
        if bound < biggest:
            raise BoundTooSmall(
                f"bound {bound} is below the largest generator ({biggest} points)")
        W = cls(P, gens=gens, bound=max(bound, 2), label=label)
        W.oracle = W._bounded_member
        return W

    @classmethod
    def from_predicate(cls, P, predicate, families=None, label=None):
        return cls(P, oracle=predicate, families=families, label=label)

    # -- membership ---------------------------------------------------------

    def member(self, S):
        """Trivalent membership: "yes", "no", or "indeterminate"."""
        if S.over not in self.P._slices:
            raise MixedPresentation(f"query over unknown class {S.over!r}")
        hit = self._member_cache.get(S)
        if hit is None:
            if self.sparse_levels is not None:
                hit = YES if sparse_member(self.P, self.sparse_levels, S) else NO
            else:
                hit = self.oracle(S)
            self._member_cache[S] = hit
        return hit

    def _bounded_member(self, S):
        """The oracle of a generated system: its saturation, which it keeps
        as its known levels, decides everything up to the bound."""
        if self._known is None:
            self._known = saturate(self.P, self.gens, self.bound)
        if self.P.points(S) > self.bound:
            return INDETERMINATE
        return YES if S in self._known[S.over] else NO

    # -- derived data ---------------------------------------------------------

    def _levels(self):
        """(levels, sparse, faithful): member levels holding at least every
        sparse member, the sparse members, and whether those describe the
        system exactly (no sparse V-set undecided, and almost essentially
        unital).  The levels are the known ones when the system has them."""
        if self._level_info is None:
            P = self.P
            if self.sparse_levels is not None:
                self._level_info = (self.sparse_levels, self.sparse_levels, True)
                return self._level_info
            sparse, decided = {}, True
            for V in P.orbit_classes:
                verdicts = [(S, self.member(S)) for S in sparse_universe(P, V)]
                sparse[V] = frozenset(S for S, r in verdicts if r == YES)
                decided = decided and all(r != INDETERMINATE for _, r in verdicts)
            # the scan has saturated a generated system
            levels = sparse if self._known is None else self._known
            if self._families is None:
                self._families = families_of_levels(P, levels)
            faithful = decided and self._families["eps"] == self._families["unit"]
            self._level_info = (levels, sparse, faithful)
        return self._level_info

    def sparse(self):
        """The sparse members, by level (exactly the data of a sparse form)."""
        return dict(self._levels()[1])

    def families(self):
        """The color, unit, fold, and one-extra-orbit families of the system."""
        if self._families is None:
            levels = self._levels()[0]
            if self._families is None:     # an oracle's scan sets them
                self._families = families_of_levels(self.P, levels)
        return dict(self._families)

    def members_up_to(self, V, bound):
        """Every member over V with at most `bound` points."""
        if self.bound is not None and bound > self.bound:
            raise BoundTooSmall(
                f"cannot enumerate members up to {bound} with bound {self.bound}")
        return [S for S in self.P.vsets_up_to(V, bound) if self.member(S) == YES]

    # -- equality by content ------------------------------------------------

    def _content(self):
        """What equality and hashing compare: the faithful sparse levels,
        else the bound and known levels of a bounded system, else identity."""
        if self._content_key is None:
            levels, sparse, faithful = self._levels()
            if faithful:
                self._content_key = frozenset(sparse.items())
            elif self.bound is not None:
                self._content_key = (self.bound, frozenset(levels.items()))
            else:
                self._content_key = id(self)
        return self._content_key

    def __eq__(self, other):
        if not isinstance(other, WeakIndexingSystem):
            return NotImplemented
        if self.P.key != other.P.key:
            return False
        if self.sparse_levels is not None and other.sparse_levels is not None:
            return self.sparse_levels == other.sparse_levels
        return self._content() == other._content()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.P.key, self._content()))
        return self._hash

    def __repr__(self):
        tag = self.label or ("sparse" if self.sparse_levels is not None
                             else "oracle")
        return f"<WeakIndexingSystem {tag} over {self.P.key}>"


# -- module-level operations ---------------------------------------------


def classify(W):
    fam = W.families()
    everything = frozenset(W.P.orbit_classes)
    one_color = fam["color"] == everything
    unital = fam["unit"] == everything
    ae_unital = fam["eps"] == fam["unit"]
    return {
        "one_color": one_color,
        "unital": unital,
        "aE_unital": ae_unital,
        "almost_unital": ae_unital and one_color,
        "indexing": unital and fam["fold"] == everything,
    }


def _check_same_presentation(W1, W2):
    if W1.P.key != W2.P.key:
        raise MixedPresentation(
            f"systems over {W1.P.key} and {W2.P.key} cannot be combined")


def _generators_of(W):
    if W.gens is not None:
        return list(W.gens)
    _, sparse, faithful = W._levels()
    if not faithful:
        raise UnsupportedBackend(
            "a predicate-backed system that its sparse members do not "
            "describe has no generators")
    return [S for mem in sparse.values() for S in mem]


def _sparse_leq(W1, W2):
    return all(W1.sparse_levels[V] <= W2.sparse_levels[V]
               for V in W1.P.orbit_classes)


def leq(W1, W2):
    """Trivalent containment test."""
    _check_same_presentation(W1, W2)
    if W1.sparse_levels is not None and W2.sparse_levels is not None:
        return YES if _sparse_leq(W1, W2) else NO
    return _conjunction(W2.member(g) for g in _generators_of(W1))


def join(W1, W2):
    """The least system containing both; of two sparse systems, a fresh
    copy of the larger when one contains the other, else the closure of
    the union of their sparse members."""
    _check_same_presentation(W1, W2)
    P = W1.P
    if W1.sparse_levels is not None and W2.sparse_levels is not None:
        if _sparse_leq(W2, W1):
            levels = W1.sparse_levels
        elif _sparse_leq(W1, W2):
            levels = W2.sparse_levels
        else:
            levels = sparse_closure(P, [
                S for V in P.orbit_classes
                for S in (W1.sparse_levels[V] | W2.sparse_levels[V])])
        return WeakIndexingSystem.from_sparse(P, levels, validate=False)
    bounds = [W.bound for W in (W1, W2) if W.bound is not None]
    return WeakIndexingSystem.from_generators(
        P, _generators_of(W1) + _generators_of(W2),
        bound=max(bounds, default=None))


def meet(W1, W2):
    _check_same_presentation(W1, W2)
    P = W1.P
    if W1.sparse_levels is not None and W2.sparse_levels is not None:
        levels = {V: W1.sparse_levels[V] & W2.sparse_levels[V]
                  for V in P.orbit_classes}
        return WeakIndexingSystem.from_sparse(P, levels, validate=False)

    def both(S):
        return _conjunction(W.member(S) for W in (W1, W2))

    # The result knows every common member that either side knows of (the
    # common sparse members alone can miss a nontrivial level).  Under the
    # smaller bound of the inputs that is every member up to that bound, so
    # those members serve as its generators.
    known1, known2 = W1._levels()[0], W2._levels()[0]
    levels = {V: frozenset(S for S in known1[V] | known2[V] if both(S) == YES)
              for V in P.orbit_classes}
    bound = min((W.bound for W in (W1, W2) if W.bound is not None),
                default=None)
    gens = None if bound is None else tuple(
        S for V in P.orbit_classes for S in sorted(levels[V]))
    return WeakIndexingSystem(P, oracle=both, gens=gens, bound=bound,
                              known=levels)


def sparse_extract(W):
    """W's exact sparse form and True when its sparse members describe it
    (it is almost essentially unital and no membership query came back
    indeterminate), else W itself and False: never another system."""
    if W.sparse_levels is not None:
        return W, True
    _, sparse, faithful = W._levels()
    if not faithful:
        return W, False
    return WeakIndexingSystem.from_sparse(W.P, sparse, validate=False), True


def sparse_generate(P, levels):
    """Build the system generated by the given sparse members, validating
    that they are closed (raises NotClosed with a witness otherwise)."""
    return WeakIndexingSystem.from_sparse(P, levels, validate=True)


# -- axiom report -----------------------------------------------------------


def validate_wic(W, bound=None):
    """Check the closure/coefficient axioms on all members up to `bound`.

    Returns a dict of named checks to (ok, witness-or-note).  The Segal
    condition holds by construction for collections of V-sets and is
    reported as such.
    """
    P = W.P
    if bound is None:
        bound = max(sparse_bound(P), 4)
        if W.bound is not None:
            bound = min(bound, W.bound)
    members = [S for V in P.orbit_classes for S in W.members_up_to(V, bound)]

    def first(pairs):
        """(ok, witness): the first pair (x, gap) with a gap, if any."""
        for x, gap in pairs:
            if gap is not None:
                return False, (x, gap)
        return True, None

    def restriction_gap(S):
        return next((w for w in P.slice_keys(S.over)
                     if W.member(P.restrict(w, S)) != YES), None)

    def summand_gap(S):
        return next((T for T in sub_multisets(S)
                     if T != S and W.member(T) != YES), None)

    def fold_gap(V):
        return next((n for n in range(bound + 1)
                     if W.member(P.star_vset(V).scale(n)) != YES), None)

    missing = sorted(frozenset(P.orbit_classes) - W.families()["color"])
    return {
        "restriction-stable": first((S, restriction_gap(S)) for S in members),
        "segal": (True, "holds by representation: levels are plain sets of V-sets"),
        "one-color": (not missing, missing or None),
        "summand-closed-nontrivial": first(
            (S, summand_gap(S)) for S in members if S != P.star_vset(S.over)),
        "summand-closed": first((S, summand_gap(S)) for S in members),
        "all-folds": first((V, fold_gap(V)) for V in P.orbit_classes),
    }


# -- named systems -----------------------------------------------------------


def _family_or_all(P, family):
    if family is None:
        return frozenset(P.orbit_classes)
    fam = frozenset(family)
    for V in fam:
        if V not in P._slices:
            raise MixedPresentation(f"unknown orbit class {V!r}")
    if downward_closure(P, fam) != fam:
        raise ValueError(f"{sorted(fam)} is not downward closed")
    return fam


def _on_family(P, family, tag, level):
    """The sparse system with the members `level(V)` at each class V of the
    family and nothing elsewhere, labelled `tag[family]`."""
    fam = _family_or_all(P, family)
    levels = {V: frozenset(level(V)) if V in fam else frozenset()
              for V in P.orbit_classes}
    return WeakIndexingSystem.from_sparse(
        P, levels, validate=False, label=f"{tag}[{','.join(sorted(fam))}]")


def f_trivial(P, family=None):
    """Only the terminal V-set, on the given family of levels."""
    return _on_family(P, family, "F^triv", lambda V: [P.star_vset(V)])


def f_zero(P, family=None):
    """The terminal and empty V-sets, on the given family of levels."""
    return _on_family(P, family, "F^0",
                      lambda V: [P.star_vset(V), P.empty_vset(V)])


def f_infinity(P, family=None):
    """All fold maps (every multiple of the point), on the given family."""
    return _on_family(P, family, "F^inf", lambda V: [
        P.empty_vset(V), P.star_vset(V), P.double_vset(V)])


def f_complete(P, family=None):
    """Everything, on the given family of levels."""
    return _on_family(P, family, "F", lambda V: sparse_universe(P, V))


def e_system(P, family, W):
    """Regard a system supported on the family as a system over all of P.

    The levels outside the family must already be empty; the operation is
    then the identity on representations."""
    fam = _family_or_all(P, family)
    outside = W.families()["color"] - fam
    if outside:
        raise ValueError(
            f"system has nonempty levels outside the family: {sorted(outside)}")
    return W


def bor_system(P, family, W):
    """Truncate a system to the family: levels outside it are emptied."""
    fam = _family_or_all(P, family)
    levels = W._levels()[0]
    trimmed = {V: (levels[V] if V in fam else frozenset())
               for V in P.orbit_classes}
    if W.sparse_levels is not None:
        return WeakIndexingSystem.from_sparse(P, trimmed, validate=False)
    if W.gens is not None:
        # every member up to the bound, trimmed: still closed, and exact
        return WeakIndexingSystem.from_generators(
            P, [S for V in P.orbit_classes for S in sorted(trimmed[V])],
            bound=W.bound)
    # The families are trimmed rather than read off the trimmed levels, which
    # may miss a nontrivial member that is not sparse.  Trimming can only
    # overstate eps, and then the result just compares by identity.
    return WeakIndexingSystem(
        P, oracle=lambda S: W.member(S) if S.over in fam else NO,
        known=trimmed, families={k: F & fam for k, F in W.families().items()})


def f_perp_nu(P, family):
    """V-sets that either live over the family or contain an orbit whose
    class lies outside it."""
    fam = _family_or_all(P, family)
    everything = frozenset(P.orbit_classes)

    def pred(S):
        if S.over in fam:
            return YES
        if any(P.slice_cls(S.over, k) not in fam for k, _ in S.orbits):
            return YES
        return NO

    fams = {"color": everything, "unit": fam, "fold": everything,
            "eps": everything}
    return WeakIndexingSystem.from_predicate(
        P, pred, families=fams, label=f"F_perp_nu[{','.join(sorted(fam))}]")


# -- slice restriction and coinduction ---------------------------------------


def slice_restrict_wis(W, V):
    """Restrict a system to the slice over V (levels reindexed by the
    orbits of the slice)."""
    P = W.P
    Q = P.slice_presentation(V)
    _, sparse, faithful = W._levels()
    if not faithful:
        raise UnsupportedBackend(
            "slice restriction needs a faithfully sparse system")
    return WeakIndexingSystem.from_sparse(
        Q, {u: frozenset(VSet(u, S.orbits) for S in sparse[P.slice_cls(V, u)])
            for u in P.slice_keys(V)}, validate=False)


def coinduce_wis(P, V, I):
    """Right adjoint to slice restriction at V.

    A U-set S belongs when, for every map-class a over U and every orbit b
    over V with the same underlying class, the restriction of S along a lies
    in the level of b."""
    Q = P.slice_presentation(V)
    if I.P.key != Q.key:
        raise MixedPresentation(
            f"expected a system over the slice at {V!r} of {P.key}")

    matches = {}
    for U in P.orbit_classes:
        pairs = []
        for a in P.slice_keys(U):
            cls_a = P.slice_cls(U, a)
            bs = [b for b in P.slice_keys(V) if P.slice_cls(V, b) == cls_a]
            if bs:
                pairs.append((a, bs))
        matches[U] = pairs

    def pred(S):
        return _conjunction(I.member(VSet(b, P.restrict(a, S).orbits))
                            for a, bs in matches[S.over] for b in bs)

    return WeakIndexingSystem.from_predicate(P, pred, label=f"CoInd_{V}")


# -- multiplicative hull -------------------------------------------------------


def multiplicative_hull(W, component_bound=4):
    """Arities along which the system is closed under indexed products.

    A sparse S is admissible when every indexed product over S of members
    (components tested up to `component_bound` points) stays in the system.
    The admissible sparse sets form the hull, validated as a closed sparse
    family.  Needs a group-backed presentation for honest products.
    """
    if component_bound < 0:
        raise ValueError(f"component bound {component_bound} is negative")
    P = W.P
    gsets.require_group(P)
    pools = {V: W.members_up_to(V, component_bound) for V in P.orbit_classes}
    levels = {}
    for V in P.orbit_classes:
        keep = []
        for S in sparse_universe(P, V):
            classes = [P.slice_cls(V, k) for k in S.expand()]
            ok = True
            for combo in itertools.product(*(pools[c] for c in classes)):
                prod = gsets.indexed_product(P, S, list(combo))
                if W.member(prod) != YES:
                    ok = False
                    break
            if ok:
                keep.append(S)
        levels[V] = frozenset(keep)
    return sparse_generate(P, levels)
