"""Sieve data classifying fibers of the (transfer, fold family) projection.

Over a cyclic p-group chain, the unital systems with a fixed transfer system R
and fold family F form a poset isomorphic to a poset of sieves: sets of
admissible orbits (K, H) whose codomain folds somewhere above F, closed
downward in the codomain direction and upward in the domain direction.
Only chain-shaped presentations are supported.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .presentation import require_chain
from .fibrations import (
    TransferSystem, transfer_codomain, transfer_domain, transfer_of,
)
from .systems import YES, WeakIndexingSystem, classify


class NotAdmissible(ValueError):
    """The (transfer, family) pair has no systems over it."""


_CHAINS_ONLY = "sieves are only defined"


def is_sieve(P, R, scope, pairs):
    """Check the two closure conditions for a sieve of R on the given scope."""
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


@dataclass(frozen=True)
class Sieve:
    R: TransferSystem
    scope: frozenset
    pairs: frozenset

    def __post_init__(self):
        P = self.R.P
        require_chain(P, _CHAINS_ONLY)
        if not is_sieve(P, self.R, self.scope, self.pairs):
            raise ValueError("pairs do not form a sieve on the given scope")


def enumerate_sieves(R, family):
    """All sieves of R on the scope left uncovered by the family."""
    P = R.P
    require_chain(P, _CHAINS_ONLY)
    scope = transfer_codomain(R) - frozenset(family)
    available = sorted((K, H) for K, H in R.strict() if H in scope)
    out = []
    for r in range(len(available) + 1):
        for combo in itertools.combinations(available, r):
            if is_sieve(P, R, scope, frozenset(combo)):
                out.append(Sieve(R, scope, frozenset(combo)))
    return out


def sieve_of(W):
    """The sieve recording which admissible orbits of a unital system W keep
    a disjoint fixed point above the fold family."""
    P = W.P
    require_chain(P, _CHAINS_ONLY)
    if not classify(W)["unital"]:
        raise ValueError("only unital systems carry a sieve")
    R = transfer_of(W)
    scope = transfer_codomain(R) - W.families()["fold"]
    pairs = set()
    for K, H in R.strict():
        if H not in scope:
            continue
        probe = P.vset(H, [(P.star_key(H), 1), (K, 1)])
        if W.member(probe) == YES:
            pairs.add((K, H))
    return Sieve(R, frozenset(scope), frozenset(pairs))


def fiber_from_sieve(R, family, sieve):
    """The unital system with transfer system R, fold family `family`, and
    the given sieve of extra fixed points."""
    P = R.P
    require_chain(P, _CHAINS_ONLY)
    fam = frozenset(family)
    if not transfer_domain(R) <= fam:
        raise NotAdmissible(
            f"domain {sorted(transfer_domain(R))} must fold, so the fold family "
            f"{sorted(fam)} is too small")
    strict = R.strict()
    levels = {}
    for H in P.orbit_classes:
        star = P.star_key(H)
        level = {P.empty_vset(H), P.star_vset(H)}
        admissible = [K for K, H2 in strict if H2 == H]
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


def fiber_systems(R, family):
    """All unital systems with the given transfer system and fold family.

    Empty when the domain does not fold; a single system when every codomain
    folds; otherwise one system per sieve.
    """
    P = R.P
    require_chain(P, _CHAINS_ONLY)
    fam = frozenset(family)
    if not transfer_domain(R) <= fam:
        return []
    if transfer_codomain(R) <= fam:
        empty = Sieve(R, frozenset(), frozenset())
        return [fiber_from_sieve(R, fam, empty)]
    return [fiber_from_sieve(R, fam, s) for s in enumerate_sieves(R, fam)]


def transport_sieve(sieve, R2, family2):
    """Push a sieve forward along an inclusion of transfer systems and an
    enlargement of the fold family."""
    P = sieve.R.P
    require_chain(P, _CHAINS_ONLY)
    if not sieve.R <= R2:
        raise NotAdmissible("target transfer system must contain the source")
    fam2 = frozenset(family2)
    scope2 = transfer_codomain(R2) - fam2
    pairs2 = set()
    for J, K2 in R2.pairs:
        for K, H in sieve.pairs:
            if K2 == K and H in scope2:
                pairs2.add((J, H))
    return Sieve(R2, scope2, frozenset(pairs2))
