"""Families, transfer systems, and the fibration of unital systems.

A family is a downward-closed set of orbit classes.  A transfer system
records which orbits [V/u] are "admissible" as indexing arities, closed under
composition and base change; unital weak indexing systems project onto
(transfer system, fold family) pairs, and this module implements that
projection, its one-sided inverses, and cocartesian transport along the
resulting maps.
"""
from __future__ import annotations

import functools

from .poset import closed_sets, closure
from .presentation import is_chain
from .systems import (
    NO, YES, MixedPresentation, WeakIndexingSystem, classify, downward_closure,
    f_complete, f_trivial, f_zero, join, sparse_closure, sparse_universe,
)


class NotUnital(ValueError):
    pass


class TargetNotAbove(ValueError):
    """Cocartesian transport needs a target at or above the current image."""


# -- families -----------------------------------------------------------------


def is_family(P, classes):
    fam = frozenset(classes)
    return all(V in P._slices for V in fam) and downward_closure(P, fam) == fam


def enumerate_families(P):
    """All families, ordered by size then lexicographically."""
    return closed_sets(P.orbit_classes, lambda V, present: P.down_sets[V])


# -- transfer systems ----------------------------------------------------------


class TransferSystem:
    """A set of admissible orbits (u, V), containing all identities and
    closed under composition and base change.  P holds one per pair set:
    the constructor hands out P's, checks only a set P does not hold yet,
    and keeps no set that fails."""

    def __new__(cls, P, pairs):
        full = frozenset(pairs).union((P.star_key(V), V) for V in P.orbit_classes)
        R = P._transfer_systems.get(full) or transfer_closure(P, full)
        if R.pairs != full:
            raise ValueError(f"transfer system is not closed: missing {min(R.pairs - full)}")
        return R

    def __copy__(self):
        return self

    def __reduce__(self):    # by state: R unpickles inside P's state, before P can look it up
        return object.__new__, (TransferSystem,), vars(self)

    def strict(self):
        """The admissible orbits other than the identities."""
        return self._strict

    # Worked out on first use and kept with R, which is immutable.

    @functools.cached_property
    def _domain(self):
        P = self.P
        out = set()
        for v, W in self._strict:
            for a in P.slice_keys(W):
                if P.fixed_points(W, a, ((v, 1),)) >= 2:
                    out.add(P.slice_cls(W, a))
        return frozenset(out)

    @functools.cached_property
    def _codomain(self):
        return downward_closure(self.P, {V for _, V in self._strict})

    @functools.cached_property
    def _chain_parts(self):
        """The V-sets `_chain_fiber` builds the unital systems over R from:
        per class H, the level they all hold (the empty set, the point and
        the admissible orbits [K]) and that level with the extras of folding
        at H (2*star and star+[K]); and per admissible (K, H), star+[K], the
        extra fixed point a sieve holding the pair adds at H."""
        P = self.P
        bare, folded, plus = {}, {}, {}
        for H in P.orbit_classes:
            star = P.star_key(H)
            admissible = [K for K, H2 in self._strict if H2 == H]
            for K in admissible:
                plus[(K, H)] = P.vset(H, [(star, 1), (K, 1)])
            bare[H] = frozenset([P.empty_vset(H), P.star_vset(H)]
                                + [P.orbit_vset(H, K) for K in admissible])
            folded[H] = bare[H].union([P.double_vset(H)],
                                      [plus[(K, H)] for K in admissible])
        return bare, folded, plus

    def __contains__(self, pair):
        return pair in self.pairs

    def __le__(self, other):
        if not isinstance(other, TransferSystem):
            return NotImplemented
        if self.P.key != other.P.key:
            raise MixedPresentation(
                f"transfer systems over {self.P.key} and {other.P.key} cannot be compared")
        return self.pairs <= other.pairs

    def __eq__(self, other):
        if not isinstance(other, TransferSystem):
            return NotImplemented
        return self.P.key == other.P.key and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.P.key, self.pairs))

    def __repr__(self):
        strict = sorted(self.strict())
        return f"<TransferSystem {self.P.key} {strict}>"


def _held(P, closed):
    """P's one transfer system on the closed orbits `closed` and the identities."""
    ids = frozenset((P.star_key(V), V) for V in P.orbit_classes)
    pairs = ids.union(closed)
    R = P._transfer_systems.get(pairs)
    if R is None:
        R = P._transfer_systems[pairs] = object.__new__(TransferSystem)
        R.P, R.pairs, R._strict = P, pairs, pairs - ids
    return R


def _transfer_rule(P):
    """What a non-identity orbit (u, V) brings into a transfer system, given
    the pairs present: its base changes other than identities, and its
    composites with the present pairs, as either step."""
    def rule(pair, present):
        u, V = pair
        U = P.slice_cls(V, u)
        out = [(P.induct_key(V, u, x), V) for x, U2 in present if U2 == U]
        out += [(P.induct_key(V2, w, u), V2) for w, V2 in present
                if P.slice_cls(V2, w) == V]
        for w in P.slice_keys(V):
            W = P.slice_cls(V, w)
            out += [(k, W) for k in P.restriction_keys(V, w, u)
                    if k != P.star_key(W)]
        return out
    return rule


def transfer_closure(P, pairs):
    """The smallest transfer system containing the given pairs."""
    pairs = list(pairs)
    for u, V in pairs:
        if V not in P._slices or u not in P.slice_keys(V):
            raise ValueError(f"({u!r}, {V!r}) is not an orbit of {P.key}")
    strict = [(u, V) for u, V in pairs if u != P.star_key(V)]
    return _held(P, closure(_transfer_rule(P), (), strict))


def enumerate_transfer_systems(P):
    """All transfer systems, smallest first: the closed sets of composition
    and base change on the non-identity orbits.  They are listed once per
    presentation, as its one transfer system per pair set; each call returns
    a new list of those."""
    if P._transfer_list is None:
        strict = [(u, V) for V in P.orbit_classes
                  for u in P.slice_keys(V) if u != P.star_key(V)]
        P._transfer_list = [_held(P, C)
                            for C in closed_sets(strict, _transfer_rule(P))]
    return list(P._transfer_list)


# -- between systems and transfer data -------------------------------------


def transfer_of(W):
    """The transfer system of admissible orbits of a unital system: the one
    P holds for that pair set."""
    P = W.P
    if not classify(W)["unital"]:
        raise NotUnital("only unital systems induce transfer systems")
    pairs = set()
    for V in P.orbit_classes:
        for u in P.slice_keys(V):
            if u == P.star_key(V):
                continue
            r = W.member(P.orbit_vset(V, u))
            if r == YES:
                pairs.add((u, V))
            elif r != NO:
                raise ValueError(f"membership of [{u}] over {V} is undecided")
    return TransferSystem(P, pairs)


def transfer_to_indexing(R):
    """The indexing system of R: the sparse sets whose non-terminal orbits
    are admissible, the largest system with admissible orbits in R (right
    adjoint to `transfer_of`).  It is unital with every fold (the empty set,
    the point and 2*star have no non-terminal orbit) and its admissible
    orbits are exactly R, so `transfer_of` inverts it.  Each indexing system
    holds every sum of the point and its admissible orbits, so it is the
    image of its own transfer system."""
    P = R.P
    levels = {}
    for V in P.orbit_classes:    # R holds the identity (star, V)
        levels[V] = frozenset(S for S in sparse_universe(P, V)
                              if all((k, V) in R for k, _ in S.orbits))
    return WeakIndexingSystem.from_sparse(P, levels, validate=False)


def minimal_unital(R):
    """The smallest unital system with the given admissible orbits (left
    adjoint to `transfer_of`).

    Over a chain it is read off the fibration coordinates: its fold family
    is the one generated by the domain of R, which any unital system with
    transfer system R folds on, and its sieve is the empty one, the least.
    Elsewhere it is the closure of the units and the admissible orbits."""
    P = R.P
    if is_chain(P):
        return _chain_fiber(R, downward_closure(P, transfer_domain(R)), ())
    gens = []
    for V in P.orbit_classes:
        gens.append(P.empty_vset(V))
        gens.append(P.star_vset(V))
    for u, V in sorted(R.strict()):
        gens.append(P.orbit_vset(V, u))
    return WeakIndexingSystem.from_sparse(P, sparse_closure(P, gens),
                                          validate=False)


def _chain_fiber(R, family, pairs):
    """The unital system over a chain with transfer system R, fold family
    `family` (which holds the domain of R), and the extra fixed points of
    the admissible orbits `pairs` (a sieve) over the classes outside it.
    Its levels are R's shared V-sets: a class keeps its bare or folded
    level, joined by the extras of the pairs into it."""
    bare, folded, plus = R._chain_parts
    levels = {H: folded[H] if H in family else bare[H] for H in bare}
    for pair in pairs:
        H = pair[1]
        levels[H] = levels[H] | {plus[pair]}
    return WeakIndexingSystem.from_sparse(R.P, levels, validate=False)


def transfer_domain(R):
    """Classes over which some admissible orbit folds: U such that pulling
    an admissible (v, W) back along a map-class of underlying class U leaves
    at least a double fixed point (worked out once per R)."""
    return R._domain


def transfer_codomain(R):
    """The family generated by the targets of R's admissible orbits (worked
    out once per R)."""
    return R._codomain


# -- adjoints of the family maps ------------------------------------------


def color_left(P, family):
    return f_trivial(P, family)


def color_right(P, family):
    return f_complete(P, family)


def unit_left(P, family):
    return f_zero(P, family)


def fold_left(P, family):
    """The smallest unital system whose fold family contains the given one:
    empty and terminal sets everywhere, double points on the family."""
    fam = frozenset(family)
    levels = {}
    for V in P.orbit_classes:
        base = [P.empty_vset(V), P.star_vset(V)]
        if V in fam:
            base.append(P.double_vset(V))
        levels[V] = frozenset(base)
    return WeakIndexingSystem.from_sparse(P, levels, validate=False)


def fold_right(P, family):
    """The largest unital system whose fold family lies inside the set F of
    classes (right adjoint to the fold family): at each class V, the sparse
    V-sets with at most one fixed point along every map-class whose class
    lies outside F.

    1. It is unital: the empty set and the point have at most one fixed point.
    2. Its fold family lies inside F: 2*star at V has two fixed points along
       the identity.
    3. It is closed: restrictions compose, and the fixed points of a
       restricted coproduct sit over those of the restricted indexing set,
       each in the restricted component there.
    4. It is the largest such system: a unital system is summand-closed, so
       a member with two or more fixed points over U puts 2*star at U.
    """
    fam = frozenset(family)
    levels = {}
    for V in P.orbit_classes:
        outside = [w for w in P.slice_keys(V) if P.slice_cls(V, w) not in fam]
        levels[V] = frozenset(
            S for S in sparse_universe(P, V)
            if all(P.fixed_points(V, w, S.orbits) <= 1 for w in outside))
    return WeakIndexingSystem.from_sparse(P, levels, validate=False)


# -- cocartesian transport ---------------------------------------------------


_FAMILY_LEFT_ADJOINTS = {"color": f_trivial, "unit": f_zero, "fold": fold_left}


def cocartesian_transport(map_name, W, target):
    """Push a system forward so that the named invariant becomes `target`.

    The result is the join of W with the left adjoint of the target, which is
    the smallest system above W whose invariant reaches the target.  Raises
    TargetNotAbove when the target does not dominate the current value.
    """
    P = W.P
    fam = W.families()
    if map_name in _FAMILY_LEFT_ADJOINTS:
        goal = frozenset(target)
        if not fam[map_name] <= goal:
            raise TargetNotAbove(
                f"{map_name} family {sorted(fam[map_name])} exceeds target")
        return join(W, _FAMILY_LEFT_ADJOINTS[map_name](P, goal))
    if map_name == "transfer":
        if not transfer_of(W) <= target:
            raise TargetNotAbove("transfer system of W exceeds target")
        return join(W, minimal_unital(target))
    if map_name == "transfer-fold":
        R, fold_fam = target
        if not transfer_of(W) <= R:
            raise TargetNotAbove("transfer system of W exceeds target")
        if not fam["fold"] <= frozenset(fold_fam):
            raise TargetNotAbove(f"fold family {sorted(fam['fold'])} exceeds target")
        return join(join(W, minimal_unital(R)), fold_left(P, fold_fam))
    raise ValueError(f"unknown transport map {map_name!r}")
