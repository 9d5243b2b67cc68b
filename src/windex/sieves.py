"""Sieve data classifying fibers of the (transfer, fold family) projection.

Over a cyclic p-group chain, the unital systems with a fixed transfer system R
and fold family F form a poset isomorphic to a poset of sieves: sets of
admissible orbits (K, H) whose codomain folds somewhere above F, closed
downward in the codomain direction and upward in the domain direction.
Only chain-shaped presentations are supported.
"""
from __future__ import annotations

from .poset import closed_sets, closure
from .presentation import require_chain
from .fibrations import (
    _chain_fiber, transfer_codomain, transfer_domain, transfer_of,
)
from .systems import YES

_setattr = object.__setattr__


class NotAdmissible(ValueError):
    """The (transfer, family) pair has no systems over it."""


_CHAINS_ONLY = "sieves are only defined"


def _sieve_rule(P, R, scope):
    """What a pair (K, H) brings into a sieve: (K, L) for every L of the
    scope strictly between K and H, and (J, H) for every admissible (J, K)."""
    idx = P.orbit_index
    strict = R.strict()
    def rule(pair, present):
        K, H = pair
        return ([(K, L) for L in scope if idx(K) < idx(L) < idx(H)]
                + [(J, H) for J, K2 in strict if K2 == K])
    return rule


def is_sieve(P, R, scope, pairs):
    """Whether the pairs are admissible orbits into the scope that meet both
    sieve conditions."""
    pairs = frozenset(pairs)
    return (pairs <= {(K, H) for K, H in R.strict() if H in scope}
            and closure(_sieve_rule(P, R, scope), (), pairs) == pairs)


class Sieve:
    """A sieve of the transfer system R on `scope`: immutable, and equal
    and hashed by (R, scope, pairs)."""

    __slots__ = ("R", "scope", "pairs")

    def __init__(self, R, scope, pairs):
        require_chain(R.P, _CHAINS_ONLY)
        if not is_sieve(R.P, R, scope, pairs):
            raise ValueError("pairs do not form a sieve on the given scope")
        _setattr(self, "R", R)
        _setattr(self, "scope", scope)
        _setattr(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Sieve, (self.R, self.scope, self.pairs)

    def _content(self):
        return self.R, self.scope, self.pairs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    def __repr__(self):
        return f"Sieve(R={self.R!r}, scope={self.scope!r}, pairs={self.pairs!r})"


def _sieve_sets(R, family):
    """The scope the family leaves, and the closed sets of the sieve
    conditions on it, smallest first."""
    scope = transfer_codomain(R) - frozenset(family)
    available = sorted((K, H) for K, H in R.strict() if H in scope)
    return scope, closed_sets(available, _sieve_rule(R.P, R, scope))


def enumerate_sieves(R, family):
    """All sieves of R on the scope left uncovered by the family, smallest
    first: the closed sets of the sieve conditions."""
    require_chain(R.P, _CHAINS_ONLY)
    scope, sets = _sieve_sets(R, family)
    return [Sieve(R, scope, C) for C in sets]


def sieve_of(W):
    """The sieve recording which admissible orbits of a unital system W keep
    a disjoint fixed point above the fold family."""
    require_chain(W.P, _CHAINS_ONLY)
    R = transfer_of(W)    # raises NotUnital unless W is unital
    scope = transfer_codomain(R) - W.families()["fold"]
    plus = R._chain_parts[2]    # star+[K] over H, per admissible (K, H)
    pairs = frozenset(pair for pair, probe in plus.items()
                      if pair[1] in scope and W.member(probe) == YES)
    return Sieve(R, frozenset(scope), pairs)


def fiber_from_sieve(R, family, sieve):
    """The unital system with transfer system R, fold family `family`, and
    the given sieve of extra fixed points, which must be a sieve of R on the
    scope the family leaves."""
    P = R.P
    require_chain(P, _CHAINS_ONLY)
    fam = frozenset(family)
    if not transfer_domain(R) <= fam:
        raise NotAdmissible(
            f"domain {sorted(transfer_domain(R))} must fold, so the fold family "
            f"{sorted(fam)} is too small")
    if sieve.R != R:
        raise NotAdmissible(f"the sieve belongs to {sieve.R!r}, not {R!r}")
    scope = transfer_codomain(R) - fam
    if sieve.scope != scope:
        raise NotAdmissible(
            f"the sieve lies on {sorted(sieve.scope)}, but the fold family "
            f"{sorted(fam)} leaves {sorted(scope)}")
    return _chain_fiber(R, fam, sieve.pairs)


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
    # the sieves of R on the scope `fam` leaves: fiber_from_sieve's checks hold
    return [_chain_fiber(R, fam, C) for C in _sieve_sets(R, fam)[1]]


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
