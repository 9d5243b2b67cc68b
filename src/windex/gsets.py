"""Concrete G-sets with explicit actions: the point-level oracle layer.

Everything else in the package works with V-sets up to isomorphism.  This
module computes with actual points and permutations so that restriction,
induction, coinduction, and indexed products can be checked against honest
orbit decompositions.  Only group-backed presentations support it.
"""
from __future__ import annotations

import itertools

from .poset import closure
from .presentation import (
    MismatchedIndex, TooLarge, UnsupportedBackend, VSet, align_components)

COINDUCTION_CAP = 200_000


def require_group(P):
    if P.group is None or P.class_rep is None:
        raise UnsupportedBackend(
            f"{P.key}: concrete G-set operations need a group-backed presentation")
    return P.group


class ConcreteGSet:
    """A finite set with an action of a subgroup of a fixed ambient group.

    `action[h]` is the permutation of range(n) given by h, for each h in the
    acting subgroup.  Action laws are checked on construction.
    """

    def __init__(self, group, subgroup, n, action, check=True):
        self.group = group
        self.subgroup = frozenset(subgroup)
        self.n = n
        self.action = {h: tuple(p) for h, p in action.items()}
        if check:
            self._validate()

    def _validate(self):
        G = self.group
        if set(self.action) != set(self.subgroup):
            raise ValueError("action must be defined exactly on the subgroup")
        ident = tuple(range(self.n))
        if self.action[G.e] != ident:
            raise ValueError("identity must act trivially")
        for h, perm in self.action.items():
            if sorted(perm) != list(ident):
                raise ValueError(f"element {h} does not act by a permutation")
        for h1 in self.subgroup:
            p1 = self.action[h1]
            for h2 in self.subgroup:
                p2 = self.action[h2]
                p12 = self.action[G.mul(h1, h2)]
                if any(p12[x] != p1[p2[x]] for x in range(self.n)):
                    raise ValueError(f"action is not compatible with {h1}*{h2}")

    def orbits(self):
        """The orbits, by least point, each one sorted."""
        perms, out, seen = self.action.values(), [], set()
        for x in range(self.n):
            if x not in seen:
                orbit = closure(lambda y, present: [perm[y] for perm in perms], (), [x])
                seen |= orbit
                out.append(sorted(orbit))
        return out

    def stabilizer(self, x):
        return frozenset(h for h, perm in self.action.items() if perm[x] == x)

    def fixed_points(self, sub=None):
        hs = self.subgroup if sub is None else frozenset(sub)
        return [x for x in range(self.n)
                if all(self.action[h][x] == x for h in hs)]

    def __repr__(self):
        return f"<ConcreteGSet |X|={self.n} over subgroup of order {len(self.subgroup)}>"


def point_gset(G, H):
    return ConcreteGSet(G, H, 1, {h: (0,) for h in H}, check=False)


def empty_gset(G, H):
    return ConcreteGSet(G, H, 0, {h: () for h in H}, check=False)


def disjoint_union(X, Y):
    if X.subgroup != Y.subgroup:
        raise MismatchedIndex("disjoint union needs a common acting subgroup")
    action = {h: X.action[h] + tuple(y + X.n for y in Y.action[h])
              for h in X.subgroup}
    return ConcreteGSet(X.group, X.subgroup, X.n + Y.n, action, check=False)


def cartesian(X, Y):
    if X.subgroup != Y.subgroup:
        raise MismatchedIndex("product needs a common acting subgroup")
    n = X.n * Y.n
    action = {}
    for h in X.subgroup:
        px, py = X.action[h], Y.action[h]
        action[h] = tuple(px[i] * Y.n + py[j]
                          for i in range(X.n) for j in range(Y.n))
    return ConcreteGSet(X.group, X.subgroup, n, action, check=False)


def transport(X, phi, new_subgroup):
    """Reindex the action along a group isomorphism phi: new -> old."""
    action = {h: X.action[phi(h)] for h in new_subgroup}
    return ConcreteGSet(X.group, new_subgroup, X.n, action, check=False)


def coset_gset(G, H, K):
    """The left coset space H/K with its H-action."""
    reps = G.left_coset_reps(H, K)
    rep_index = {}
    for i, r in enumerate(reps):
        for k in K:
            rep_index[G.mul(r, k)] = i
    action = {h: tuple(rep_index[G.mul(h, r)] for r in reps) for h in H}
    return ConcreteGSet(G, H, len(reps), action, check=False)


def concretize(P, S):
    """Realize a V-set as a concrete H-set, H the canonical subgroup for V."""
    G = require_group(P)
    H = P.class_rep[S.over]
    acc = empty_gset(G, H)
    for key, mult in S.orbits:
        orbit = coset_gset(G, H, P.slice_rep[(S.over, key)])
        for _ in range(mult):
            acc = disjoint_union(acc, orbit)
    return acc


def orbit_decompose(P, X, over):
    """Decompose a concrete H-set into a V-set, H the canonical subgroup: an
    orbit is the slice orbit whose key its points' stabilizers (H-conjugate
    to one another) have."""
    require_group(P)
    if X.subgroup != P.class_rep[over]:
        raise MismatchedIndex(
            f"expected an action of the canonical subgroup for {over!r}")
    keys = P.subgroup_key[over]
    acc = {}
    for orbit in X.orbits():
        key = keys[X.stabilizer(orbit[0])]
        acc[key] = acc.get(key, 0) + 1
    return VSet(over, tuple(sorted(acc.items())))


def restrict_concrete(P, V, w, X):
    """Restrict along the map-class w, reindexed over the canonical subgroup."""
    G = require_group(P)
    L = P.slice_rep[(V, w)]
    g = P.conjugator[(V, w)]
    sub = ConcreteGSet(X.group, L, X.n, {h: X.action[h] for h in L}, check=False)
    # g L g^-1 is the canonical subgroup for cls(w)
    return transport(sub, lambda k: G.conj(G.inv(g), k), P.class_rep[P.slice_cls(V, w)])


def _to_slice_rep(P, V, u, X):
    """View an action of the canonical subgroup for cls(u) as one of slice_rep[(V,u)]."""
    G = require_group(P)
    K = P.slice_rep[(V, u)]
    g = P.conjugator[(V, u)]
    return transport(X, lambda k: G.conj(g, k), K)


def induce_subgroup(G, K, H, X):
    """Ind_K^H X: pairs (coset gK, x), with h.(g_i, x) = (g_j, k.x) for hg_i = g_j k."""
    reps = G.left_coset_reps(H, K)
    rep_index = {}
    for j, r in enumerate(reps):
        for k in K:
            rep_index[G.mul(r, k)] = j
    n = len(reps) * X.n
    action = {}
    for h in H:
        perm = []
        for i, r in enumerate(reps):
            hr = G.mul(h, r)
            j = rep_index[hr]
            k = G.mul(G.inv(reps[j]), hr)
            row = X.action[k]
            perm.extend(j * X.n + row[x] for x in range(X.n))
        action[h] = tuple(perm)
    return ConcreteGSet(G, H, n, action, check=False)


def coinduce_subgroup(G, K, H, X):
    """CoInd_K^H X: K-equivariant maps H -> X, with (h.f)(g) = f(gh).

    A map is determined by its values on right-coset representatives of K in
    H; if g_i h = k g_j then the new i-th value is k applied to the old j-th.
    """
    reps = G.right_coset_reps(K, H)
    m = len(reps)
    if X.n ** m > COINDUCTION_CAP:
        raise TooLarge(f"coinduction would have {X.n}^{m} points")
    rep_index = {}
    for j, r in enumerate(reps):
        for k in K:
            rep_index[G.mul(k, r)] = j
    points = list(itertools.product(range(X.n), repeat=m))
    index = {t: i for i, t in enumerate(points)}
    moves = {}  # h -> list of (j, k) per slot i
    for h in H:
        slots = []
        for r in reps:
            rh = G.mul(r, h)
            j = rep_index[rh]
            k = G.mul(rh, G.inv(reps[j]))
            slots.append((j, X.action[k]))
        moves[h] = slots
    action = {h: tuple(index[tuple(row[t[j]] for j, row in moves[h])]
                       for t in points)
              for h in H}
    return ConcreteGSet(G, H, len(points), action, check=False)


def induce_concrete(P, V, u, X):
    """Induct a concrete set for cls(u) along the slice orbit u, over V."""
    G = require_group(P)
    return induce_subgroup(G, P.slice_rep[(V, u)], P.class_rep[V],
                           _to_slice_rep(P, V, u, X))


def coinduce_concrete(P, V, u, X):
    G = require_group(P)
    return coinduce_subgroup(G, P.slice_rep[(V, u)], P.class_rep[V],
                             _to_slice_rep(P, V, u, X))


def indexed_product(P, S, T):
    """The S-indexed product of T, as a V-set over S.over.

    Computed honestly: each component is realized concretely, coinduced up
    along its orbit's structure map, the results multiplied out, and the
    product decomposed into orbits.  The empty product is the terminal V-set.
    """
    G = require_group(P)
    V = S.over
    keys, comps = align_components(S, T)
    prod = point_gset(G, P.class_rep[V])
    for k, t in zip(keys, comps):
        if t.over != P.slice_cls(V, k):
            raise MismatchedIndex(
                f"component over {t.over!r}, expected {P.slice_cls(V, k)!r}")
        prod = cartesian(prod, coinduce_concrete(P, V, k, concretize(P, t)))
    return orbit_decompose(P, prod, V)
