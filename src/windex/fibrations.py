"""Families, transfer systems, and the fibration of unital systems.

A family is a downward-closed set of orbit classes.  A transfer system
records which orbits [V/u] are "admissible" as indexing arities, closed under
composition and base change; unital weak indexing systems project onto
(transfer system, fold family) pairs, and this module implements that
projection, its one-sided inverses, and cocartesian transport along the
resulting maps.
"""
from __future__ import annotations

import itertools

from .presentation import TooLarge
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


def enumerate_families(P):
    """All families, ordered by size then lexicographically."""
    out = []
    classes = P.orbit_classes
    for r in range(len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            if is_family(P, combo):
                out.append(frozenset(combo))
    return out


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
            for piece, _ in P.restrict_orbit(V, w, u).orbits:
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
    """All transfer systems, by brute force over sets of non-identity orbits."""
    strict = [(u, V) for V in P.orbit_classes
              for u in P.slice_keys(V) if u != P.star_key(V)]
    if len(strict) > 20:
        raise TooLarge(f"{len(strict)} candidate orbits is too many to enumerate")
    identities = {(P.star_key(V), V) for V in P.orbit_classes}
    out = []
    for r in range(len(strict) + 1):
        for combo in itertools.combinations(strict, r):
            pairs = identities | set(combo)
            if _closure_violation(P, pairs) is None:
                out.append(TransferSystem(P, pairs, check=False))
    return out


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
    """The largest system with the given admissible orbits: sparse sets whose
    non-terminal orbits are all admissible (right adjoint to `transfer_of`)."""
    P = R.P
    levels = {}
    for V in P.orbit_classes:
        star = P.star_key(V)
        levels[V] = frozenset(
            S for S in sparse_universe(P, V)
            if all(k == star or (k, V) in R for k, _ in S.orbits))
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
            U = P.slice_cls(W, a)
            if P.restrict_orbit(W, a, v).mult(P.star_key(U)) >= 2:
                out.add(U)
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
    """The largest unital system whose fold family lies inside the given one,
    computed extensionally over the enumerated unital poset."""
    from .enumeration import enumerate_systems

    fam = frozenset(family)
    acc = f_zero(P)
    for Y in enumerate_systems(P, "unital"):
        if Y.families()["fold"] <= fam:
            acc = join(acc, Y)
    return acc


# -- cocartesian transport ---------------------------------------------------


def cocartesian_transport(map_name, W, target):
    """Push a system forward so that the named invariant becomes `target`.

    The result is the join of W with the left adjoint of the target, which is
    the smallest system above W whose invariant reaches the target.  Raises
    TargetNotAbove when the target does not dominate the current value.
    """
    P = W.P
    fam = W.families()
    if map_name == "color":
        goal = frozenset(target)
        if not fam["color"] <= goal:
            raise TargetNotAbove(f"color family {sorted(fam['color'])} exceeds target")
        return join(W, f_trivial(P, goal))
    if map_name == "unit":
        goal = frozenset(target)
        if not fam["unit"] <= goal:
            raise TargetNotAbove(f"unit family {sorted(fam['unit'])} exceeds target")
        return join(W, f_zero(P, goal))
    if map_name == "fold":
        goal = frozenset(target)
        if not fam["fold"] <= goal:
            raise TargetNotAbove(f"fold family {sorted(fam['fold'])} exceeds target")
        return join(W, fold_left(P, goal))
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
