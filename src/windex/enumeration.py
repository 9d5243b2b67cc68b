"""Exhaustive enumeration of weak indexing systems over a presentation.

Systems whose unit and one-extra-orbit families agree (and only those) are
faithfully described by their sparse members.  The unital ones are found by
a search: it walks per-level subsets of the sparse universes holding the
empty set and the point, prunes with cheap necessary closure conditions, and
certifies each survivor by closing its members (`sparse_closure`) and
checking that no new sparse set appears.  A fiberwise variant over chains
assembles the same unital systems from (transfer system, fold family, sieve)
data.  The aE-unital and almost-unital systems are built from the unital
ones, and indexing systems from transfer systems.
"""
from __future__ import annotations

import functools
import hashlib
import operator

from .poset import Poset
from .presentation import TooLarge, UnsupportedBackend
from .systems import (
    WeakIndexingSystem, _check_same_presentation, f_complete, f_infinity,
    f_trivial, f_zero, is_sparse, sparse_closure, sparse_extract,
    sparse_member, sparse_universe,
)
# Held here by name although the walk reaches it through `sparse_closure`:
# perfbench's tracer test looks up `windex.enumeration.saturate`.
from .systems import saturate  # noqa: F401
from .fibrations import (
    enumerate_families, enumerate_transfer_systems, fold_left, minimal_unital,
    transfer_to_indexing,
)
from .sieves import fiber_systems

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
    double = P.double_vset(V)
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


def _member_names(P, levels):
    """The sorted names of the members of each of the sparse `levels`, in the
    order of P's orbit classes.  Each distinct level over P is named once,
    in P's table of level names: systems share their levels and members,
    and a frozenset keeps its hash, so a shared level costs one lookup
    however many members it holds."""
    names = P._level_names
    out = []
    for V in P.orbit_classes:
        level = levels[V]
        named = names.get(level)
        if named is None:
            named = names[level] = tuple(sorted(map(str, level)))
        out.append(named)
    return out


def _in_output_order(systems):
    """The systems in the output order of the enumerations: by number of
    sparse members, then by the sorted member names."""
    def size_then_members(W):
        members = sum(_member_names(W.P, W.sparse_levels), ())
        return len(members), tuple(sorted(members))

    return sorted(systems, key=size_then_members)


def _indexing_systems(P):
    return _in_output_order(
        map(transfer_to_indexing, enumerate_transfer_systems(P)))


def _from_unital(P, unital, which):
    """The systems of the class `which`, built from the list of every unital
    system and sorted.  For each unital W and each pair of families F <= C
    (C = every class for almost-unital) such that F holds every class where
    W's level is more than the empty set and the point, X is W's levels on
    F, the point alone on C - F, and nothing elsewhere.

    Such an X is closed (members on F restrict and combine inside F as in W,
    and the point restricts to the point), and its unit and eps families are
    F and its color family C: it is aE-unital.  Conversely an aE-unital X
    holds the empty set and the point on its unit family F, which is its eps
    family, at most the point elsewhere, and the point on its color family
    C.  Its levels on F with the empty set and the point elsewhere form a
    unital W, since any other restriction or coproduct is the empty set, the
    point, or one inside F; and X is built from W, F and C.  So X and
    (W, F, C) determine each other: each aE-unital system is built once.

    The unital list is only sorted: it holds no duplicates, since the brute
    walk visits each level assignment once and the fiberwise one each
    (transfer system, fold family, sieve) triple once, which `transfer_of`,
    the fold family and `sieve_of` read back off the system."""
    if which == "unital":
        return _in_output_order(unital)
    families = enumerate_families(P)
    tops = families if which == "aE_unital" else [frozenset(P.orbit_classes)]
    pairs = [(F, C) for C in tops for F in families if F <= C]
    point = {V: frozenset([P.star_vset(V)]) for V in P.orbit_classes}
    out = []
    for W in unital:
        extra = {V for V, level in W.sparse_levels.items() if len(level) > 2}
        for F, C in pairs:
            if extra <= F:
                out.append(WeakIndexingSystem.from_sparse(P, {
                    V: W.sparse_levels[V] if V in F else
                    point[V] if V in C else frozenset()
                    for V in P.orbit_classes}, validate=False))
    return _in_output_order(out)


def enumerate_systems(P, which="aE_unital"):
    """All systems of the class `which` (aE-unital, unital, almost-unital or
    indexing).  Indexing systems are built from transfer systems, the others
    from the unital systems, which a search of at most ENUMERATION_CAP
    candidates finds (else TooLarge).
    """
    which = normalize_class(which)
    if which == "indexing":
        return _indexing_systems(P)
    classes = list(P.orbit_classes)
    forced = {V: frozenset([P.empty_vset(V), P.star_vset(V)]) for V in classes}
    free = {V: [S for S in sparse_universe(P, V) if S not in forced[V]]
            for V in classes}
    if 2 ** sum(map(len, free.values())) > ENUMERATION_CAP:
        raise TooLarge(f"search space exceeds {ENUMERATION_CAP} candidates")
    unital = []

    def walk(i, levels):
        if i == len(classes):
            gens = [S for mem in levels.values() for S in mem]
            if sparse_closure(P, gens, escape=lambda S: is_sparse(P, S)
                              and S not in levels[S.over]) is not None:
                unital.append(WeakIndexingSystem.from_sparse(
                    P, dict(levels), validate=False))
            return
        V = classes[i]
        for mask in range(2 ** len(free[V])):
            members = forced[V] | {
                S for j, S in enumerate(free[V]) if mask >> j & 1}
            if _level_ok(P, V, members, levels):
                levels[V] = members
                walk(i + 1, levels)
        levels[V] = frozenset()

    walk(0, {V: frozenset() for V in classes})
    return _from_unital(P, unital, which)


def enumerate_systems_fiberwise(P, which="unital"):
    """The unital systems assembled fiber by fiber over (transfer system,
    fold family) pairs, chains only, and the other classes built from them;
    or the indexing systems."""
    which = normalize_class(which)
    if which == "indexing":
        return _indexing_systems(P)
    families = enumerate_families(P)
    unital = [W for R in enumerate_transfer_systems(P)
              for F in families for W in fiber_systems(R, F)]
    return _from_unital(P, unital, which)


# -- naming and poset assembly -------------------------------------------------


def _label_library(P):
    """{system: display name} for the named constructions over P; where two
    constructions give the same system, the first one listed names it.
    Built once per presentation and kept as P's table of labels."""
    if P._labels is not None:
        return P._labels
    lib = {}
    families = enumerate_families(P)
    for fam in families:
        for make in (f_trivial, f_zero, f_infinity, f_complete):
            W = make(P, fam)
            lib.setdefault(W, W.label)
    for fam in families:
        if fam and fam != frozenset(P.orbit_classes):
            lib.setdefault(fold_left(P, fam),
                           f"F^0+fold[{','.join(sorted(fam))}]")
    for R in enumerate_transfer_systems(P):
        if R.strict():
            tag = ",".join(f"{u}<{V}" for u, V in sorted(R.strict()))
            lib.setdefault(minimal_unital(R), f"F_min[{tag}]")
            lib.setdefault(transfer_to_indexing(R), f"F_max[{tag}]")
    P._labels = lib
    return lib


def _exact_levels(W):
    """W's sparse levels, provided they describe W exactly."""
    sp, exact = sparse_extract(W)
    if not exact:
        raise UnsupportedBackend("only exact sparse systems are labelled "
                                 "or ordered")
    return sp.sparse_levels


def content_hash(W):
    levels = _exact_levels(W)
    text = ";".join(f"{V}:" + ",".join(named) for V, named in
                    zip(W.P.orbit_classes, _member_names(W.P, levels)))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def system_label(W):
    """A stable display name: a named construction when the system equals
    one, otherwise a content hash (UnsupportedBackend unless the system's
    sparse members describe it exactly)."""
    _exact_levels(W)
    return _label_library(W.P).get(W) or f"W#{content_hash(W)}"


def system_poset(systems, labels=None):
    """The containment poset of a list of exact sparse systems
    (UnsupportedBackend otherwise).  Each sparse member S of the list has a
    column mask, the bits of the systems holding it; a system lies below
    exactly the systems holding all its members, so its up-set is the AND of
    its members' columns (every system when it has no member)."""
    columns, members = {}, []
    for i, W in enumerate(systems):
        _check_same_presentation(systems[0], W)
        mem = [S for level in _exact_levels(W).values() for S in level]
        for S in mem:
            columns[S] = columns.get(S, 0) | 1 << i
        members.append(mem)
    full = (1 << len(systems)) - 1
    up = [functools.reduce(operator.and_, map(columns.__getitem__, mem), full)
          for mem in members]
    if labels is None:
        labels = [system_label(W) for W in systems]
    return Poset.from_up_sets(systems, up, labels=labels)
