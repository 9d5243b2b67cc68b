"""Exhaustive enumeration of weak indexing systems over a presentation.

Systems whose unit and one-extra-orbit families agree (and only those) are
faithfully described by their sparse members, so enumeration walks per-level
subsets of the sparse universes, prunes with cheap necessary closure
conditions, and certifies each survivor by saturating its members and checking
that no new sparse set appears.  A fiberwise variant over chains assembles the
same unital systems from (transfer system, fold family, sieve) data.
"""
from __future__ import annotations

import hashlib

from .poset import Poset
from .presentation import TooLarge
from .systems import (
    YES, WeakIndexingSystem, f_complete, f_infinity, f_trivial, f_zero,
    families_of_levels, is_sparse, leq, saturate, sparse_bound, sparse_member,
    sparse_universe,
)
from .fibrations import (
    enumerate_families, enumerate_transfer_systems, fold_left, minimal_unital,
    transfer_to_indexing,
)

ENUMERATION_CAP = 2 ** 16

_CLASS_ALIASES = {
    "ae_unital": "aE_unital", "ae": "aE_unital", "aeunital": "aE_unital",
    "unital": "unital",
    "almost_unital": "almost_unital", "a_unital": "almost_unital",
    "one_color_ae": "almost_unital",
    "indexing": "indexing", "indexing_system": "indexing",
}


def normalize_class(name):
    key = name.strip().lower().replace("-", "_")
    if key not in _CLASS_ALIASES:
        raise ValueError(
            f"unknown system class {name!r}; choose from "
            "aE-unital, unital, almost-unital, indexing")
    return _CLASS_ALIASES[key]


def _level_ok(P, V, members, levels):
    """Cheap necessary conditions on a candidate level, given the levels
    already fixed below it."""
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


def _size_then_members(W):
    """Output order of the enumerations: number of sparse members, then the
    sorted member names."""
    levels = W.sparse_levels.values()
    return (sum(len(mem) for mem in levels),
            tuple(sorted(str(S) for mem in levels for S in mem)))


def enumerate_systems(P, which="aE_unital", cap=ENUMERATION_CAP):
    """All systems of the requested class, via per-level search over sparse
    universes with a saturation certificate for each candidate.

    Only classes with matching unit and one-extra-orbit families can be
    enumerated through sparse data; `which` is one of aE-unital, unital,
    almost-unital, indexing.
    """
    which = normalize_class(which)
    universes = {V: sparse_universe(P, V) for V in P.orbit_classes}
    forced = {V: set() for V in P.orbit_classes}
    if which in ("unital", "indexing"):
        for V in P.orbit_classes:
            forced[V] = {P.empty_vset(V), P.star_vset(V)}
    elif which == "almost_unital":
        for V in P.orbit_classes:
            forced[V] = {P.star_vset(V)}
    if which == "indexing":
        for V in P.orbit_classes:
            forced[V].add(P.vset(V, [(P.star_key(V), 2)]))

    size = 1
    for V in P.orbit_classes:
        size *= 2 ** (len(universes[V]) - len(forced[V]))
        if size > cap:
            raise TooLarge(
                f"search space exceeds {cap} candidates; "
                "raise the cap to enumerate anyway")

    classes = list(P.orbit_classes)
    bound = sparse_bound(P)
    out = []

    def certify(levels):
        gens = [S for mem in levels.values() for S in mem]
        if which in ("aE_unital", "almost_unital"):
            fam = families_of_levels(P, levels)
            if fam["unit"] != fam["eps"]:
                return None
        sat = saturate(P, gens, bound,
                       escape=lambda S: is_sparse(P, S) and S not in levels[S.over])
        if sat is None:
            return None
        return WeakIndexingSystem.from_sparse(P, dict(levels), validate=False)

    def walk(i, levels):
        if i == len(classes):
            W = certify(levels)
            if W is not None:
                out.append(W)
            return
        V = classes[i]
        free = [S for S in universes[V] if S not in forced[V]]
        base = frozenset(forced[V])
        for mask in range(2 ** len(free)):
            members = frozenset(
                list(base) + [S for j, S in enumerate(free) if mask >> j & 1])
            if _level_ok(P, V, members, levels):
                levels[V] = members
                walk(i + 1, levels)
        levels[V] = frozenset()

    walk(0, {V: frozenset() for V in classes})
    out.sort(key=_size_then_members)
    return out


def enumerate_systems_fiberwise(P, which="unital"):
    """The unital systems assembled fiber by fiber over (transfer system,
    fold family) pairs; chain presentations only."""
    from .sieves import fiber_systems

    which = normalize_class(which)
    out = []
    for R in enumerate_transfer_systems(P):
        for F in enumerate_families(P):
            out.extend(fiber_systems(R, F))
    if which == "indexing":
        everything = frozenset(P.orbit_classes)
        out = [W for W in out if W.families()["fold"] == everything]
    elif which != "unital":
        raise ValueError("the fibration only covers unital systems")
    out.sort(key=_size_then_members)
    return out


# -- naming and poset assembly -------------------------------------------------


def _label_library(P):
    lib = []
    families = enumerate_families(P)
    for fam in families:
        for make in (f_trivial, f_zero, f_infinity, f_complete):
            lib.append(make(P, fam))
    for fam in families:
        if fam and fam != frozenset(P.orbit_classes):
            W = fold_left(P, fam)
            W.label = f"F^0+fold[{','.join(sorted(fam))}]"
            lib.append(W)
    try:
        for R in enumerate_transfer_systems(P):
            if R.strict():
                tag = ",".join(f"{u}<{V}" for u, V in sorted(R.strict()))
                W = minimal_unital(R)
                W.label = f"F_min[{tag}]"
                lib.append(W)
                W = transfer_to_indexing(R)
                W.label = f"F_max[{tag}]"
                lib.append(W)
    except TooLarge:
        pass
    return lib


def content_hash(W):
    text = ";".join(
        f"{V}:" + ",".join(sorted(str(S) for S in W.sparse_levels[V]))
        for V in W.P.orbit_classes)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def system_label(W, library=None):
    """A stable display name: a named construction when the system equals
    one, otherwise a content hash."""
    if library is None:
        library = _label_library(W.P)
    for X in library:
        if X == W:
            return X.label
    return f"W#{content_hash(W)}"


def system_poset(systems, labels=None):
    """The containment poset of a list of sparse systems."""
    if labels is None:
        library = _label_library(systems[0].P) if systems else []
        labels = [system_label(W, library) for W in systems]
    return Poset(list(systems), lambda a, b: leq(a, b) == YES, labels=labels)
