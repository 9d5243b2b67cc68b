"""Families, transfer systems, and the fibration of unital systems.

A family is a downward-closed set of orbit classes.  A transfer system
records which orbits [V/u] are "admissible" as indexing arities, closed under
composition and base change; unital weak indexing systems project onto
(transfer system, fold family) pairs, and this module implements that
projection, its one-sided inverses, and cocartesian transport along the
resulting maps.
"""
from __future__ import annotations

from .systems import (
    NO, YES, WeakIndexingSystem, classify, downward_closure, f_complete,
    f_trivial, f_zero, join, sparse_closure, sparse_universe,
)


class NotUnital(ValueError):
    pass


class TargetNotAbove(ValueError):
    """Cocartesian transport needs a target at or above the current image."""


# -- families -----------------------------------------------------------------


def is_family(P, classes):
    fam = frozenset(classes)
    return all(V in P._slices for V in fam) and downward_closure(P, fam) == fam


def closed_sets(items, close):
    """The sets of `items` fixed by the closure operator `close`, ordered by
    size, then by the positions of their items in `items`.

    The walk starts from close({}) and steps from each closed set C to
    close(C + {x}) for every x outside C.  That reaches every closed set D
    above C, because close(C + {x}) lies inside D for any x in D outside C.
    """
    pos = {x: i for i, x in enumerate(items)}
    start = frozenset(close(frozenset()))
    seen, todo = {start}, [start]
    while todo:
        C = todo.pop()
        for x in items:
            if x not in C:
                D = frozenset(close(C | {x}))
                if D not in seen:
                    seen.add(D)
                    todo.append(D)
    return sorted(seen, key=lambda C: (len(C), sorted(pos[x] for x in C)))


def enumerate_families(P):
    """All families, ordered by size then lexicographically."""
    return closed_sets(P.orbit_classes, lambda C: downward_closure(P, C))


# -- transfer systems ----------------------------------------------------------


class TransferSystem:
    """A set of admissible orbits (u, V), containing all identities and
    closed under composition and base change."""

    def __init__(self, P, pairs, check=True):
        self.P = P
        full = set(pairs)
        for V in P.orbit_classes:
            full.add((P.star_key(V), V))
        self.pairs = frozenset(full)
        if check:
            for u, V in self.pairs:
                if V not in P._slices or u not in P.slice_keys(V):
                    raise ValueError(f"({u!r}, {V!r}) is not an orbit of {P.key}")
            bad = _closure_violation(P, self.pairs)
            if bad is not None:
                raise ValueError(f"transfer system is not closed: missing {bad}")

    def strict(self):
        return frozenset((u, V) for u, V in self.pairs
                         if u != self.P.star_key(V))

    def __contains__(self, pair):
        return pair in self.pairs

    def __le__(self, other):
        return self.pairs <= other.pairs

    def __eq__(self, other):
        if not isinstance(other, TransferSystem):
            return NotImplemented
        return self.P.key == other.P.key and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.P.key, self.pairs))

    def __repr__(self):
        strict = sorted(self.strict())
        return f"<TransferSystem {strict}>"


def _closure_violation(P, pairs):
    """A pair required by composition or base change but absent, or None."""
    for u, V in pairs:
        U = P.slice_cls(V, u)
        for x, U2 in pairs:
            if U2 == U:
                comp = (P.induct_key(V, u, x), V)
                if comp not in pairs:
                    return comp
        for w in P.slice_keys(V):
            W = P.slice_cls(V, w)
            for piece in P.restriction_keys(V, w, u):
                if (piece, W) not in pairs:
                    return (piece, W)
    return None


def transfer_closure(P, pairs):
    """The smallest transfer system containing the given pairs."""
    full = set(pairs)
    for V in P.orbit_classes:
        full.add((P.star_key(V), V))
    while True:
        bad = _closure_violation(P, full)
        if bad is None:
            return TransferSystem(P, full, check=False)
        full.add(bad)


def enumerate_transfer_systems(P):
    """All transfer systems, smallest first: the closed sets of
    `transfer_closure` on the non-identity orbits."""
    strict = [(u, V) for V in P.orbit_classes
              for u in P.slice_keys(V) if u != P.star_key(V)]
    return [TransferSystem(P, C, check=False) for C in
            closed_sets(strict, lambda C: transfer_closure(P, C).strict())]


# -- between systems and transfer data -------------------------------------


def transfer_of(W):
    """The transfer system of admissible orbits of a unital system."""
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
    adjoint to `transfer_of`)."""
    P = R.P
    gens = []
    for V in P.orbit_classes:
        gens.append(P.empty_vset(V))
        gens.append(P.star_vset(V))
    for u, V in sorted(R.strict()):
        gens.append(P.orbit_vset(V, u))
    return WeakIndexingSystem.from_sparse(P, sparse_closure(P, gens),
                                          validate=False)


def transfer_domain(R):
    """Classes over which some admissible orbit folds: U such that pulling
    an admissible (v, W) back along a map-class of underlying class U leaves
    at least a double fixed point."""
    P = R.P
    out = set()
    for v, W in R.strict():
        for a in P.slice_keys(W):
            if P.fixed_points(W, a, ((v, 1),)) >= 2:
                out.add(P.slice_cls(W, a))
    return frozenset(out)


def transfer_codomain(R):
    P = R.P
    return downward_closure(P, {V for _, V in R.strict()})


def domain_codomain(R):
    return transfer_domain(R), transfer_codomain(R)


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
            base.append(P.vset(V, [(P.star_key(V), 2)]))
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
