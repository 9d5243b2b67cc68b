"""Finite presentations of atomic orbital categories, and V-set arithmetic.

A presentation records, for a category with finitely many orbit classes:

* the orbit classes themselves, in a fixed total order;
* for each orbit class V, the orbit classes of the slice over V ("slice
  orbits"), each with an underlying orbit class and a point count — the key
  designated by ``star_key(V)`` is terminal;
* a restriction table: the pullback of a slice orbit along a map-class,
  as a multiset of slice orbits over the source;
* an induction relabeling: composing structure maps turns a slice orbit of a
  slice orbit into a slice orbit.

Finite V-sets are multisets of slice orbits (``VSet``), represented up to
isomorphism.  All the combinatorics downstream — restriction, indexed
coproducts, summand inclusion — is arithmetic on these multisets.
"""
from __future__ import annotations

import functools
import itertools

from .groups import GroupTable


class InvalidSpec(ValueError):
    pass


class TooLarge(ValueError):
    pass


class NoSuchMap(KeyError):
    pass


class MismatchedIndex(ValueError):
    pass


class UnsupportedBackend(TypeError):
    """The operation needs structure this backend does not carry."""


def is_chain(P):
    """Whether P presents a cyclic p-group, whose orbits form a chain."""
    return P.spec.get("backend") in ("chain", "cyclic")


def require_chain(P, subject):
    """Raise UnsupportedBackend, its message opened by `subject`, unless P
    is a cyclic chain."""
    if not is_chain(P):
        raise UnsupportedBackend(
            f"{subject} over cyclic chains, not {P.spec.get('backend')!r}")


GROUP_ORDER_CAP = 60

_setattr = object.__setattr__


@functools.total_ordering
class VSet:
    """A finite V-set: a multiset of slice orbits over the orbit class `over`.

    `orbits` is canonically sorted by key, multiplicities positive.  The empty
    multiset is the empty V-set; `{star: 1}` is the terminal one.

    A V-set is immutable, equal and ordered by `(over, orbits)`, and keeps
    `hash((over, orbits))`, worked out once.  Equal V-sets need not be the
    same object, but a presentation hands out one shared object per value
    (`OrbitalPresentation.vset`), so most lookups among those end at the
    identity test.
    """

    __slots__ = ("over", "orbits", "_hash")

    # The check is written out: closures build hundreds of thousands of
    # V-sets, and this way it adds about 0.04 us to each construction.
    def __init__(self, over, orbits=()):
        prev = None
        for k, m in orbits:
            if m <= 0 or (prev is not None and k <= prev):
                raise InvalidSpec("V-set orbits need increasing keys and "
                                  f"positive multiplicities: {orbits!r}")
            prev = k
        _setattr(self, "over", over)
        _setattr(self, "orbits", orbits)
        _setattr(self, "_hash", hash((over, orbits)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return VSet, (self.over, self.orbits)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.over == other.over
                and self.orbits == other.orbits)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.over, self.orbits) < (other.over, other.orbits)

    def __repr__(self):
        return f"VSet(over={self.over!r}, orbits={self.orbits!r})"

    def mult(self, key):
        for k, m in self.orbits:
            if k == key:
                return m
        return 0

    @property
    def support(self):
        return tuple(k for k, _ in self.orbits)

    def expand(self):
        """Orbit keys listed with multiplicity, in canonical order."""
        return tuple(k for k, m in self.orbits for _ in range(m))

    def __add__(self, other):
        if other.over != self.over:
            raise MismatchedIndex(f"disjoint union over {self.over} vs {other.over}")
        acc = dict(self.orbits)
        for k, m in other.orbits:
            acc[k] = acc.get(k, 0) + m
        return VSet(self.over, tuple(sorted(acc.items())))

    def scale(self, n):
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidSpec(f"factor {n!r} is not an integer")
        if n < 0:
            raise InvalidSpec("negative multiplicity")
        if n == 0:
            return VSet(self.over)
        return VSet(self.over, tuple((k, n * m) for k, m in self.orbits))

    def __str__(self):
        if not self.orbits:
            return f"0@{self.over}"
        return " + ".join(f"{m}*[{k}]" if m > 1 else f"[{k}]" for k, m in self.orbits) + f"@{self.over}"


def sub_multisets(S):
    """All summands of S (including the empty one and S itself)."""
    keys = [k for k, _ in S.orbits]
    ranges = [range(m + 1) for _, m in S.orbits]
    for choice in itertools.product(*ranges):
        yield VSet(S.over, tuple((k, c) for k, c in zip(keys, choice) if c))


class OrbitalPresentation:
    """A presentation (see the module docstring).  What is derived from it
    lives on it, as long as it does: the intern table (`vset`), each class's
    down-set (`down_sets`) and sparse V-sets (`sparse_universes`,
    `sparse_sets`, `sparse_vset`, `sparse_bound`), the slice maps and slices
    asked for, one transfer system per pair set and their list
    (`fibrations.TransferSystem`), the levels named and the labels
    (`enumeration._member_names`, `_label_library`)."""

    def __init__(self, key, spec, orbit_classes, slices, star, cls_of, points,
                 restriction, induction, group=None, class_rep=None, slice_rep=None,
                 subgroup_key=None, conjugator=None):
        self.key = key
        self.spec = spec
        self.orbit_classes = tuple(orbit_classes)
        self._order = {c: i for i, c in enumerate(self.orbit_classes)}
        self._slices = {V: tuple(ks) for V, ks in slices.items()}
        self._star = dict(star)
        self._cls = dict(cls_of)
        self._points = dict(points)
        self._res = {k: tuple(v) for k, v in restriction.items()}
        self._ind = dict(induction)
        # optional concrete group data, for the point-level oracles:
        # class_rep[V] is a canonical subgroup in the conjugacy class V,
        # slice_rep[(V, k)] a subgroup of class_rep[V] in the class k,
        # subgroup_key[V][K] the slice key of each subgroup K of class_rep[V],
        # and conjugator[(V, k)] an element g with g K g^-1 = class_rep[cls k].
        self.group = group
        self.class_rep = dict(class_rep) if class_rep else None
        self.slice_rep = dict(slice_rep) if slice_rep else None
        self.subgroup_key = dict(subgroup_key) if subgroup_key else None
        self.conjugator = dict(conjugator) if conjugator else None
        self._slice_hom_cache = {}
        self._slice_pres_cache = {}
        # one checked transfer system per pair set, and the list of all of
        # them once asked for (see fibrations.TransferSystem)
        self._transfer_systems = {}
        self._transfer_list = None
        self._level_names = {}                  # see enumeration._member_names
        self._labels = None                     # see enumeration._label_library
        # The intern table: per class, each canonical orbits tuple handed out
        # and its one V-set.  The empty set, the point, the double point and
        # the single orbits are made here; restrictions when first asked for.
        self._vsets = {V: {} for V in self.orbit_classes}
        self._empty = {V: self._shared(V, ()) for V in self.orbit_classes}
        self._point = {V: self._shared(V, ((self._star[V], 1),))
                       for V in self.orbit_classes}
        self._double = {V: self._shared(V, ((self._star[V], 2),))
                        for V in self.orbit_classes}
        self._single = {(V, k): self._shared(V, ((k, 1),))
                        for V in self.orbit_classes for k in self._slices[V]}
        self._res_vsets = {}

    # -- basic lookups ----------------------------------------------------

    def orbit_index(self, cls):
        return self._order[cls]

    def slice_keys(self, V):
        return self._slices[V]

    def star_key(self, V):
        return self._star[V]

    def slice_cls(self, V, key):
        return self._cls[(V, key)]

    def slice_points(self, V, key):
        return self._points[(V, key)]

    def hom_exists(self, U, V):
        """Does some map U -> V exist?  (U occurs as a slice orbit over V.)"""
        return U in self.down_sets[V]

    @functools.cached_property
    def down_sets(self):
        """Each class V's down-set: the classes with a map to V."""
        return {V: frozenset(self._cls[(V, k)] for k in self._slices[V])
                for V in self.orbit_classes}

    # -- V-set constructors -----------------------------------------------

    def _shared(self, over, orbits):
        """The one V-set of this presentation with these canonical orbits."""
        table = self._vsets[over]
        S = table.get(orbits)
        if S is None:
            S = table[orbits] = VSet(over, orbits)
        return S

    def vset(self, over, pairs=()):
        """The V-set with these (key, multiplicity) pairs, a dict or pairs in
        any order, repeated keys adding up; the same object for equal input.
        The table is looked up by the canonical orbits, never by the input,
        in which 1, 1.0 and True are equal."""
        if over not in self._slices:
            raise InvalidSpec(f"unknown orbit class {over!r}")
        acc = {}
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for k, m in items:
            if (over, k) not in self._cls:
                raise InvalidSpec(f"unknown slice orbit {k!r} over {over!r}")
            if isinstance(m, bool) or not isinstance(m, int):
                raise InvalidSpec(f"multiplicity {m!r} is not an integer")
            if m < 0:
                raise InvalidSpec("negative multiplicity")
            if m:
                acc[k] = acc.get(k, 0) + m
        return self._shared(over, tuple(sorted(acc.items())))

    def _prebuilt(self, table, key):
        try:
            return table[key]
        except KeyError:
            raise InvalidSpec(f"unknown orbit class {key!r}") from None

    def empty_vset(self, V):
        return self._prebuilt(self._empty, V)

    def star_vset(self, V):
        return self._prebuilt(self._point, V)

    def double_vset(self, V):
        """The double point 2*star over V."""
        return self._prebuilt(self._double, V)

    def orbit_vset(self, V, key, mult=1):
        if mult == 1 and mult.__class__ is int:   # not True, not 1.0
            S = self._single.get((V, key))
            if S is not None:
                return S
        return self.vset(V, [(key, mult)])

    def points(self, S):
        return sum(m * self._points[(S.over, k)] for k, m in S.orbits)

    def vsets_up_to(self, V, bound):
        """All V-sets with at most `bound` points (the empty one included)."""
        keys = self._slices[V]
        weights = [self._points[(V, k)] for k in keys]

        def rec(i, budget):
            if i == len(keys):
                yield ()
                return
            w = weights[i]
            for m in range(budget // w + 1):
                for rest in rec(i + 1, budget - m * w):
                    yield ((keys[i], m),) + rest if m else rest

        for pairs in rec(0, bound):
            yield VSet(V, tuple(sorted(pairs)))

    # -- restriction / induction -------------------------------------------

    def restrict_orbit(self, V, w, u):
        """The pullback of slice orbit u along map-class w, over cls(w)."""
        key = (V, w, u)
        S = self._res_vsets.get(key)
        if S is None:
            try:
                pairs = self._res[key]
            except KeyError:
                raise NoSuchMap(f"no restriction entry ({V!r}, {w!r}, {u!r})") from None
            S = self._res_vsets[key] = self._shared(self._cls[(V, w)], pairs)
        return S

    def restriction_keys(self, V, w, u):
        """The orbit keys of `restrict_orbit(V, w, u)`, without building it."""
        try:
            return tuple(k for k, _ in self._res[(V, w, u)])
        except KeyError:
            raise NoSuchMap(f"no restriction entry ({V!r}, {w!r}, {u!r})") from None

    def restrict(self, w, S):
        """Restrict the V-set S along the map-class w over V = S.over."""
        V = S.over
        if (V, w) not in self._cls:
            raise NoSuchMap(f"no map-class {w!r} over {V!r}")
        acc = self.empty_vset(self._cls[(V, w)])
        for u, m in S.orbits:
            acc = acc + self.restrict_orbit(V, w, u).scale(m)
        return acc

    def induct_key(self, V, u, x):
        try:
            return self._ind[(V, u, x)]
        except KeyError:
            raise NoSuchMap(f"no induction entry ({V!r}, {u!r}, {x!r})") from None

    def induct_vset(self, V, u, T):
        """View the cls(u)-set T as a V-set along the structure map of u."""
        if T.over != self._cls[(V, u)]:
            raise MismatchedIndex(
                f"component over {T.over!r}, expected {self._cls[(V, u)]!r}")
        acc = {}
        for x, m in T.orbits:
            k = self.induct_key(V, u, x)
            acc[k] = acc.get(k, 0) + m
        return VSet(V, tuple(sorted(acc.items())))

    def fixed_points(self, V, w, orbits):
        """Fixed points along the map-class w of the V-set with these (key,
        multiplicity) pairs: its restriction's terminal multiplicity."""
        try:
            star = self._star[self._cls[(V, w)]]
            return sum(m * c for u, m in orbits
                       for k, c in self._res[(V, w, u)] if k == star)
        except KeyError as err:
            raise NoSuchMap(f"no restriction entry {err.args[0]!r}") from None

    def slice_hom_exists(self, V, a, b):
        """Is there a map a -> b in the slice over V?

        Equivalently: the pullback of b along a has a fixed point.
        """
        key = (V, a, b)
        hit = self._slice_hom_cache.get(key)
        if hit is None:
            hit = self.fixed_points(V, a, ((b, 1),)) > 0
            self._slice_hom_cache[key] = hit
        return hit

    # -- the slice category as a presentation ------------------------------

    def slice_presentation(self, V):
        """The slice over V, presented with its own orbit classes.

        Orbit classes of the slice are the slice orbits over V; the slice of
        the slice at (U, f) is the slice at U, so all tables delegate to the
        underlying orbit classes (with composite structure maps relabeled
        through `induct_key`).
        """
        if V in self._slice_pres_cache:
            return self._slice_pres_cache[V]
        classes = self._slices[V]
        slices, star, cls_of, points, res, ind = {}, {}, {}, {}, {}, {}
        for u in classes:
            cu = self._cls[(V, u)]
            slices[u] = self._slices[cu]
            star[u] = self._star[cu]
            for x in self._slices[cu]:
                cls_of[(u, x)] = self.induct_key(V, u, x)
                points[(u, x)] = self._points[(cu, x)]
                for y in self._slices[cu]:
                    res[(u, x, y)] = self._res[(cu, x, y)]
                for y in self._slices[self._cls[(cu, x)]]:
                    ind[(u, x, y)] = self._ind[(cu, x, y)]
        P = OrbitalPresentation(
            key=f"{self.key}/{V}",
            spec={"backend": "slice", "parent": self.spec, "at": V},
            orbit_classes=classes, slices=slices, star=star, cls_of=cls_of,
            points=points, restriction=res, induction=ind)
        self._slice_pres_cache[V] = P
        return P

    # -- sparse V-sets ------------------------------------------------------

    @functools.cached_property
    def sparse_universes(self):
        """Each class's sparse V-sets, in `systems.sparse_universe` order."""
        table = {}
        for V in self.orbit_classes:
            star = self._star[V]
            out = [self._empty[V], self._point[V], self._double[V]]
            nonterminal = [k for k in self._slices[V] if k != star]
            for r in range(1, len(nonterminal) + 1):
                for combo in itertools.combinations(nonterminal, r):
                    if any(self.slice_hom_exists(V, a, b)
                           or self.slice_hom_exists(V, b, a)
                           for a, b in itertools.combinations(combo, 2)):
                        continue
                    body = [(k, 1) for k in combo]
                    out += [self.vset(V, body), self.vset(V, body + [(star, 1)])]
            table[V] = tuple(out)
        return table

    @functools.cached_property
    def sparse_sets(self):
        """Each class's sparse V-sets as a frozenset (`systems.is_sparse`)."""
        return {V: frozenset(u) for V, u in self.sparse_universes.items()}

    @functools.cached_property
    def sparse_bound(self):
        """Points of the largest sparse V-set at any class."""
        return max(self.points(S) for u in self.sparse_universes.values()
                   for S in u)

    def sparse_vset(self, over, orbits):
        """The sparse V-set over `over` with exactly these orbits, or None."""
        S = self._vsets.get(over, {}).get(orbits)
        return S if S is not None and S in self.sparse_sets[over] else None

    def __repr__(self):
        return f"<OrbitalPresentation {self.key}>"


# -- spec'd operation names ----------------------------------------------


def align_components(S, T):
    """The orbits of S listed with multiplicity, and their components: T is
    a list or tuple aligned with ``S.expand()`` (else MismatchedIndex)."""
    keys = S.expand()
    if not isinstance(T, (list, tuple)):
        raise MismatchedIndex(f"components must be a list or tuple, not "
                              f"{type(T).__name__}")
    if len(T) != len(keys):
        raise MismatchedIndex(f"{len(T)} components for {len(keys)} orbits")
    return keys, T


def indexed_coproduct(P, S, T):
    """The S-indexed coproduct of T, a list or tuple holding one V-set over
    each orbit's underlying class, aligned with ``S.expand()``."""
    keys, comps = align_components(S, T)
    acc = P.empty_vset(S.over)
    for k, t in zip(keys, comps):
        acc = acc + P.induct_vset(S.over, k, t)
    return acc


# -- validation -----------------------------------------------------------


class ValidationReport:
    """The verdict of each presentation axiom: name -> (ok, witness)."""

    def __init__(self, checks):
        self.checks = checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    def __repr__(self):
        return f"ValidationReport(checks={self.checks!r})"

    @property
    def ok(self):
        return all(ok for ok, _ in self.checks.values())

    @property
    def failures(self):
        return {name: w for name, (ok, w) in self.checks.items() if not ok}

    def __str__(self):
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f": {w}" if w and not ok else "")
                 for name, (ok, w) in self.checks.items()]
        return "\n".join(lines)


def validate_presentation(P):
    """Check the presentation axioms, returning a pass/fail report per axiom."""
    checks = {}

    def run(name, gen):
        # a check that looks up an entry the tables lack fails, the missing
        # entry its witness
        try:
            witness = next(gen, None)
        except (NoSuchMap, InvalidSpec) as err:
            witness = err.args[0]
        except KeyError as err:
            witness = f"no table entry {err.args[0]!r}"
        checks[name] = (witness is None, witness)

    def identity_restriction():
        for V in P.orbit_classes:
            for u in P.slice_keys(V):
                got = P.restrict_orbit(V, P.star_key(V), u)
                if got != P.orbit_vset(V, u):
                    yield f"Res along id_{V} sends {u} to {got}"

    def terminal_restricts_to_terminal():
        for V in P.orbit_classes:
            for w in P.slice_keys(V):
                got = P.restrict_orbit(V, w, P.star_key(V))
                if got != P.star_vset(P.slice_cls(V, w)):
                    yield f"Res_{w} of the terminal {V}-set is {got}"

    def point_count_preserved():
        for (V, w, u), _ in P._res.items():
            got = P.points(P.restrict_orbit(V, w, u))
            if got != P.slice_points(V, u):
                yield f"Res_{w}[{u}] over {V} has {got} points, expected {P.slice_points(V, u)}"

    def restriction_pasting():
        for V in P.orbit_classes:
            for w in P.slice_keys(V):
                W = P.slice_cls(V, w)
                for x in P.slice_keys(W):
                    composite = P.induct_key(V, w, x)
                    for u in P.slice_keys(V):
                        one_step = P.restrict_orbit(V, composite, u)
                        two_step = P.restrict(x, P.restrict_orbit(V, w, u))
                        if one_step != two_step:
                            yield (f"Res along {x} o {w} over {V}: "
                                   f"{one_step} != {two_step} on [{u}]")

    def atomicity():
        # Inducing along a non-identity map-class never yields the terminal
        # V-set: a composite is an isomorphism only if both factors are.
        for (V, u, x), k in P._ind.items():
            if k == P.star_key(V) and not (u == P.star_key(V) and x == P.star_key(P.slice_cls(V, u))):
                yield f"Ind along {u} sends {x} to the terminal {V}-set"

    def fixed_point_property():
        for V in P.orbit_classes:
            for u in P.slice_keys(V):
                U = P.slice_cls(V, u)
                if P.restrict_orbit(V, u, u).mult(P.star_key(U)) < 1:
                    yield f"Res_{u} Ind_{u} of the terminal set has no fixed point over {V}"

    def induction_unit():
        for V in P.orbit_classes:
            for u in P.slice_keys(V):
                if P.induct_key(V, u, P.star_key(P.slice_cls(V, u))) != u:
                    yield f"Ind_{u} of the terminal set is not [{u}] over {V}"
                if P.induct_key(V, P.star_key(V), u) != u:
                    yield f"Ind along id_{V} moves {u}"

    def induction_points():
        for (V, u, x), k in P._ind.items():
            want = P.slice_points(V, u) * P.slice_points(P.slice_cls(V, u), x)
            if P.slice_points(V, k) != want:
                yield f"Ind entry ({V},{u},{x}) -> {k} has wrong point count"

    def induction_class():
        for (V, u, x), k in P._ind.items():
            if P.slice_cls(V, k) != P.slice_cls(P.slice_cls(V, u), x):
                yield f"Ind entry ({V},{u},{x}) -> {k} changes the underlying orbit class"

    def induction_associativity():
        for V in P.orbit_classes:
            for u in P.slice_keys(V):
                U = P.slice_cls(V, u)
                for x in P.slice_keys(U):
                    X = P.slice_cls(U, x)
                    ux = P.induct_key(V, u, x)
                    for y in P.slice_keys(X):
                        lhs = P.induct_key(V, u, P.induct_key(U, x, y))
                        rhs = P.induct_key(V, ux, y)
                        if lhs != rhs:
                            yield f"({V},{u},{x},{y}): {lhs} != {rhs}"

    run("identity-restriction", identity_restriction())
    run("terminal-to-terminal", terminal_restricts_to_terminal())
    run("point-count-preservation", point_count_preserved())
    run("restriction-pasting", restriction_pasting())
    run("atomicity", atomicity())
    run("fixed-point-property", fixed_point_property())
    run("induction-unit", induction_unit())
    run("induction-point-count", induction_points())
    run("induction-class-preservation", induction_class())
    run("induction-associativity", induction_associativity())
    return ValidationReport(checks)


# -- backends --------------------------------------------------------------


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def chain_level_label(p, k):
    return "e" if k == 0 else f"C_{p ** k}"


def chain_group(p, n):
    """The orbit category of the cyclic group of order p^n.

    Orbit classes are the subgroup labels e, C_p, ..., C_{p^n}; the slice over
    level v is levels 0..v, and restriction is the double coset formula
    Res_{p^l}[p^v / p^k] = p^(v - max(l,k)) copies of [p^l / p^min(l,k)].
    """
    if not _is_prime(p):
        raise InvalidSpec(f"{p} is not prime")
    if n < 0:
        raise InvalidSpec("chain length must be nonnegative")
    labels = [chain_level_label(p, k) for k in range(n + 1)]
    level = {lab: k for k, lab in enumerate(labels)}
    slices = {V: tuple(labels[: level[V] + 1]) for V in labels}
    star = {V: V for V in labels}
    cls_of = {(V, k): k for V in labels for k in slices[V]}
    points = {(V, k): p ** (level[V] - level[k]) for V in labels for k in slices[V]}
    res = {}
    for V in labels:
        v = level[V]
        for w in slices[V]:
            l = level[w]
            for u in slices[V]:
                k = level[u]
                res[(V, w, u)] = ((labels[min(l, k)], p ** (v - max(l, k))),)
    ind = {}
    for V in labels:
        for u in slices[V]:
            for x in slices[u]:
                ind[(V, u, x)] = x

    order = p ** n
    group = GroupTable.cyclic(order)
    class_rep = {labels[k]: frozenset(range(0, order, p ** (n - k))) for k in range(n + 1)}
    slice_rep = {(V, k): class_rep[k] for V in labels for k in slices[V]}
    subgroup_key = {V: {class_rep[k]: k for k in slices[V]} for V in labels}
    conjugator = {pair: 0 for pair in slice_rep}
    return OrbitalPresentation(
        key=f"chain:p={p},n={n}", spec={"backend": "chain", "p": p, "n": n},
        orbit_classes=labels, slices=slices, star=star, cls_of=cls_of,
        points=points, restriction=res, induction=ind,
        group=group, class_rep=class_rep, slice_rep=slice_rep,
        subgroup_key=subgroup_key, conjugator=conjugator)


def finite_group(table, name="G", labeler=None):
    """Orbit category of a finite group given by a multiplication table.

    Slice orbits over [G/H] are H-conjugacy classes of subgroups of H, with
    restriction computed by double cosets.  Subgroup enumeration is brute
    force, capped at order 60.
    """
    if len(table) > GROUP_ORDER_CAP:
        raise TooLarge(f"group order {len(table)} exceeds cap {GROUP_ORDER_CAP}")
    try:
        G = GroupTable(table)
    except ValueError as err:
        raise InvalidSpec(str(err)) from None
    everything = frozenset(range(G.n))
    subs = G.subgroups()

    def classes_under(acting, pool):
        """Conjugacy classes of the subgroups in `pool` under conjugation by
        the elements `acting`: each subgroup's representative (its least
        conjugate), and the representatives by size, then elements."""
        rep = {}
        for K in pool:
            if K not in rep:
                orbit = {G.conj_subgroup(g, K) for g in acting}
                least = min(orbit, key=sorted)
                rep.update((J, least) for J in orbit)
        return rep, sorted(set(rep.values()), key=lambda A: (len(A), sorted(A)))

    g_rep, classes = classes_under(range(G.n), subs)

    if labeler is None:
        def labeler(H, i=[0]):
            if len(H) == 1:
                return "e"
            if H == everything:
                return name
            i[0] += 1
            return f"H{i[0]}"
    label_of_rep = {}
    for H in classes:
        lab = labeler(H)
        if lab in label_of_rep.values():
            raise InvalidSpec(f"duplicate orbit label {lab!r}")
        label_of_rep[H] = lab

    orbit_classes = [label_of_rep[H] for H in classes]
    rep_of_label = {lab: H for H, lab in label_of_rep.items()}

    # subgroup_key[V] sends each subgroup of H = class_rep[V] to its slice
    # key: the H-conjugacy class it lies in
    slices, star, cls_of, points, slice_rep, conjugator = {}, {}, {}, {}, {}, {}
    subgroup_key = {}
    for H in classes:
        V = label_of_rep[H]
        h_rep, h_classes = classes_under(H, [K for K in subs if K <= H])
        by_global = {}
        for K in h_classes:
            by_global.setdefault(label_of_rep[g_rep[K]], []).append(K)
        key_of = {}
        for K in h_classes:
            glab = label_of_rep[g_rep[K]]
            family = by_global[glab]
            key = glab if len(family) == 1 else f"{glab}#{family.index(K)}"
            key_of[K] = key
            cls_of[(V, key)] = glab
            points[(V, key)] = len(H) // len(K)
            slice_rep[(V, key)] = K
            K0 = rep_of_label[glab]
            conjugator[(V, key)] = next(g for g in range(G.n) if G.conj_subgroup(g, K) == K0)
        slices[V] = tuple(key_of.values())
        star[V] = key_of[H]
        subgroup_key[V] = {K: key_of[r] for K, r in h_rep.items()}

    res, ind = {}, {}
    for V in orbit_classes:
        H = rep_of_label[V]
        for w in slices[V]:
            L = slice_rep[(V, w)]
            gw = conjugator[(V, w)]
            keys = subgroup_key[cls_of[(V, w)]]
            for u in slices[V]:
                K = slice_rep[(V, u)]
                acc = {}
                for h in G.double_coset_reps(L, H, K):
                    key = keys[G.conj_subgroup(gw, L & G.conj_subgroup(h, K))]
                    acc[key] = acc.get(key, 0) + 1
                res[(V, w, u)] = tuple(sorted(acc.items()))
        for u in slices[V]:
            gu_inv = G.inv(conjugator[(V, u)])
            Ucls = cls_of[(V, u)]
            for x in slices[Ucls]:
                J = G.conj_subgroup(gu_inv, slice_rep[(Ucls, x)])
                ind[(V, u, x)] = subgroup_key[V][J]

    class_rep = {label_of_rep[H]: H for H in classes}
    return OrbitalPresentation(
        key=f"group:{name}", spec={"backend": "group", "table": [list(r) for r in G.table], "name": name},
        orbit_classes=orbit_classes, slices=slices, star=star, cls_of=cls_of,
        points=points, restriction=res, induction=ind,
        group=G, class_rep=class_rep, slice_rep=slice_rep,
        subgroup_key=subgroup_key, conjugator=conjugator)


def cyclic_group(p, n):
    """C_{p^n} built from its multiplication table (oracle for chain_group)."""
    if not _is_prime(p):
        raise InvalidSpec(f"{p} is not prime")
    order = p ** n

    def labeler(H):
        k = 0
        while p ** k != len(H):
            k += 1
        return chain_level_label(p, k)

    P = finite_group(GroupTable.cyclic(order).table, name=chain_level_label(p, n),
                     labeler=labeler)
    P.spec = {"backend": "cyclic", "p": p, "n": n}
    P.key = f"cyclic:p={p},n={n}"
    return P


def meet_semilattice(elements, meet):
    """A finite meet-semilattice as an orbital category.

    `meet` maps pairs of elements to their meet (nested dict or callable).
    The slice over v is the down-set of v; restriction is the meet, and every
    slice orbit has one point.
    """
    elements = [str(x) for x in elements]
    if len(set(elements)) != len(elements):
        raise InvalidSpec("duplicate elements")
    if callable(meet):
        m = {(a, b): str(meet(a, b)) for a in elements for b in elements}
    else:
        m = {(a, b): str(meet[a][b]) for a in elements for b in elements}
    for a in elements:
        for b in elements:
            if m[(a, b)] not in elements:
                raise InvalidSpec(f"meet({a},{b}) not an element")
            if m[(a, b)] != m[(b, a)]:
                raise InvalidSpec("meet is not commutative")
        if m[(a, a)] != a:
            raise InvalidSpec("meet is not idempotent")
    for a in elements:
        for b in elements:
            for c in elements:
                if m[(m[(a, b)], c)] != m[(a, m[(b, c)])]:
                    raise InvalidSpec("meet is not associative")

    def leq(a, b):
        return m[(a, b)] == a

    slices = {v: tuple(u for u in elements if leq(u, v)) for v in elements}
    star = {v: v for v in elements}
    cls_of = {(v, u): u for v in elements for u in slices[v]}
    points = {(v, u): 1 for v in elements for u in slices[v]}
    res = {(v, w, u): ((m[(u, w)], 1),)
           for v in elements for w in slices[v] for u in slices[v]}
    ind = {(v, u, x): x for v in elements for u in slices[v] for x in slices[u]}
    meet_json = {a: {b: m[(a, b)] for b in elements} for a in elements}
    return OrbitalPresentation(
        key=f"semilattice:{','.join(elements)}",
        spec={"backend": "semilattice", "elements": elements, "meet": meet_json},
        orbit_classes=elements, slices=slices, star=star, cls_of=cls_of,
        points=points, restriction=res, induction=ind)


def _one_orbit(key, spec, cls):
    slices = {cls: (cls,)}
    return OrbitalPresentation(
        key=key, spec=spec, orbit_classes=(cls,), slices=slices, star={cls: cls},
        cls_of={(cls, cls): cls}, points={(cls, cls): 1},
        restriction={(cls, cls, cls): ((cls, 1),)}, induction={(cls, cls, cls): cls})


def trivial_point():
    """The terminal orbital category: one orbit, one slice orbit."""
    return _one_orbit("point", {"backend": "point"}, "pt")


def one_object_groupoid(order=1):
    """The one-object groupoid on a group of the given order.

    Every endomorphism is invertible, so the slice has a single orbit class
    and the V-set combinatorics agrees with the terminal category.
    """
    if order < 1:
        raise InvalidSpec("group order must be positive")
    return _one_orbit(f"bg:{order}", {"backend": "bg", "order": order}, "b")


def build_presentation(spec):
    """Build a presentation from a backend description (also its JSON form)."""
    if not isinstance(spec, dict) or "backend" not in spec:
        raise InvalidSpec("spec must be a dict with a 'backend' field")
    b = spec["backend"]
    if b == "chain":
        return chain_group(spec["p"], spec["n"])
    if b == "cyclic":
        return cyclic_group(spec["p"], spec["n"])
    if b == "group":
        return finite_group(spec["table"], name=spec.get("name", "G"))
    if b == "semilattice":
        return meet_semilattice(spec["elements"], spec["meet"])
    if b == "bg":
        return one_object_groupoid(spec.get("order", 1))
    if b == "point":
        return trivial_point()
    if b == "slice":
        return build_presentation(spec["parent"]).slice_presentation(spec["at"])
    raise InvalidSpec(f"unknown backend {b!r}")
