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

import itertools
from dataclasses import dataclass

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


def require_chain(P, subject):
    """Raise UnsupportedBackend, its message opened by `subject`, unless P
    is a cyclic chain."""
    if P.spec.get("backend") not in ("chain", "cyclic"):
        raise UnsupportedBackend(
            f"{subject} over cyclic chains, not {P.spec.get('backend')!r}")


GROUP_ORDER_CAP = 60

_setattr = object.__setattr__   # what frozen dataclasses use to set fields


@dataclass(frozen=True, order=True, init=False)
class VSet:
    """A finite V-set: a multiset of slice orbits over the orbit class `over`.

    `orbits` is canonically sorted by key, multiplicities positive.  The empty
    multiset is the empty V-set; `{star: 1}` is the terminal one.
    """

    over: str
    orbits: tuple = ()

    # Written out instead of a __post_init__ check: closures build hundreds
    # of thousands of V-sets, and this way the check adds about 0.04 us to
    # each construction instead of 0.13 us.
    def __init__(self, over, orbits=()):
        prev = None
        for k, m in orbits:
            if m <= 0 or (prev is not None and k <= prev):
                raise InvalidSpec("V-set orbits need increasing keys and "
                                  f"positive multiplicities: {orbits!r}")
            prev = k
        _setattr(self, "over", over)
        _setattr(self, "orbits", orbits)

    def mult(self, key):
        for k, m in self.orbits:
            if k == key:
                return m
        return 0

    @property
    def support(self):
        return tuple(k for k, _ in self.orbits)

    @property
    def is_empty(self):
        return not self.orbits

    def size(self):
        """Number of orbits, counted with multiplicity."""
        return sum(m for _, m in self.orbits)

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
        if n < 0:
            raise ValueError("negative multiplicity")
        if n == 0:
            return VSet(self.over)
        return VSet(self.over, tuple((k, n * m) for k, m in self.orbits))

    def __str__(self):
        if not self.orbits:
            return f"0@{self.over}"
        return " + ".join(f"{m}*[{k}]" if m > 1 else f"[{k}]" for k, m in self.orbits) + f"@{self.over}"


def sset_leq(S, T):
    """Summand inclusion: is S a sub-multiset of T?"""
    if S.over != T.over:
        raise MismatchedIndex(f"comparing V-sets over {S.over} and {T.over}")
    return all(T.mult(k) >= m for k, m in S.orbits)


def sub_multisets(S):
    """All summands of S (including the empty one and S itself)."""
    keys = [k for k, _ in S.orbits]
    ranges = [range(m + 1) for _, m in S.orbits]
    for choice in itertools.product(*ranges):
        yield VSet(S.over, tuple((k, c) for k, c in zip(keys, choice) if c))


class OrbitalPresentation:
    def __init__(self, key, spec, orbit_classes, slices, star, cls_of, points,
                 restriction, induction, group=None, class_rep=None, slice_rep=None,
                 conjugator=None):
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
        # slice_rep[(V, k)] a subgroup of class_rep[V] in the class k, and
        # conjugator[(V, k)] an element g with g K g^-1 = class_rep[cls k].
        self.group = group
        self.class_rep = dict(class_rep) if class_rep else None
        self.slice_rep = dict(slice_rep) if slice_rep else None
        self.conjugator = dict(conjugator) if conjugator else None
        self._slice_hom_cache = {}
        self._slice_pres_cache = {}

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
        return any(self._cls[(V, k)] == U for k in self._slices[V])

    # -- V-set constructors -----------------------------------------------

    def vset(self, over, pairs=()):
        if over not in self._slices:
            raise InvalidSpec(f"unknown orbit class {over!r}")
        acc = {}
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for k, m in items:
            if (over, k) not in self._cls:
                raise InvalidSpec(f"unknown slice orbit {k!r} over {over!r}")
            if m < 0:
                raise InvalidSpec("negative multiplicity")
            if m:
                acc[k] = acc.get(k, 0) + m
        return VSet(over, tuple(sorted(acc.items())))

    def empty_vset(self, V):
        return self.vset(V)

    def star_vset(self, V):
        return self.vset(V, [(self._star[V], 1)])

    def orbit_vset(self, V, key, mult=1):
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
        try:
            pairs = self._res[(V, w, u)]
        except KeyError:
            raise NoSuchMap(f"no restriction entry ({V!r}, {w!r}, {u!r})") from None
        return VSet(self._cls[(V, w)], pairs)

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

    def slice_hom_exists(self, V, a, b):
        """Is there a map a -> b in the slice over V?

        Equivalently: the pullback of b along a has a fixed point.
        """
        key = (V, a, b)
        hit = self._slice_hom_cache.get(key)
        if hit is None:
            star = self._star[self._cls[(V, a)]]
            hit = self.restrict_orbit(V, a, b).mult(star) > 0
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

    def __repr__(self):
        return f"<OrbitalPresentation {self.key}>"


# -- spec'd operation names ----------------------------------------------


def restrict_vset(P, f, S):
    return P.restrict(f, S)


def indexed_coproduct(P, S, T):
    """The S-indexed coproduct of the tuple T.

    T assigns to each orbit of S a V-set over its underlying class: either a
    mapping keyed by slice-orbit key (shared by repeated orbits) or a sequence
    aligned with ``S.expand()``.
    """
    keys = S.expand()
    if isinstance(T, dict):
        try:
            comps = [T[k] for k in keys]
        except KeyError as err:
            raise MismatchedIndex(f"no component for orbit {err.args[0]!r}") from None
    else:
        comps = list(T)
        if len(comps) != len(keys):
            raise MismatchedIndex(
                f"{len(comps)} components for {len(keys)} orbits")
    acc = P.empty_vset(S.over)
    for k, t in zip(keys, comps):
        acc = acc + P.induct_vset(S.over, k, t)
    return acc


# -- validation -----------------------------------------------------------


@dataclass
class ValidationReport:
    checks: dict

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
        for witness in gen:
            checks[name] = (False, witness)
            return
        checks[name] = (True, None)

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
    conjugator = {pair: 0 for pair in slice_rep}
    return OrbitalPresentation(
        key=f"chain:p={p},n={n}", spec={"backend": "chain", "p": p, "n": n},
        orbit_classes=labels, slices=slices, star=star, cls_of=cls_of,
        points=points, restriction=res, induction=ind,
        group=group, class_rep=class_rep, slice_rep=slice_rep, conjugator=conjugator)


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

    # G-conjugacy classes of subgroups, with canonical representatives.
    classes = []
    placed = set()
    for H in subs:
        if H in placed:
            continue
        orbit = {G.conj_subgroup(g, H) for g in range(G.n)}
        placed |= orbit
        classes.append(min(orbit, key=lambda A: sorted(A)))
    classes.sort(key=lambda A: (len(A), sorted(A)))

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

    def g_class_rep(K):
        return min((G.conj_subgroup(g, K) for g in range(G.n)), key=lambda A: sorted(A))

    orbit_classes = [label_of_rep[H] for H in classes]
    rep_of_label = {lab: H for H, lab in label_of_rep.items()}

    slices, star, cls_of, points, slice_rep, conjugator = {}, {}, {}, {}, {}, {}
    for H in classes:
        V = label_of_rep[H]
        inside = [K for K in subs if K <= H]
        h_classes = []
        seen = set()
        for K in inside:
            if K in seen:
                continue
            orbit = {G.conj_subgroup(h, K) for h in H}
            seen |= orbit
            h_classes.append(min(orbit, key=lambda A: sorted(A)))
        h_classes.sort(key=lambda A: (len(A), sorted(A)))
        by_global = {}
        for K in h_classes:
            by_global.setdefault(label_of_rep[g_class_rep(K)], []).append(K)
        keys = []
        for K in h_classes:
            glab = label_of_rep[g_class_rep(K)]
            family = by_global[glab]
            key = glab if len(family) == 1 else f"{glab}#{family.index(K)}"
            keys.append(key)
            cls_of[(V, key)] = glab
            points[(V, key)] = len(H) // len(K)
            slice_rep[(V, key)] = K
            K0 = rep_of_label[glab]
            conjugator[(V, key)] = next(g for g in range(G.n) if G.conj_subgroup(g, K) == K0)
        slices[V] = tuple(keys)
        star[V] = keys[[slice_rep[(V, k)] for k in keys].index(H)]

    def key_of_subgroup(V, J):
        """The slice key over V whose representative is H-conjugate to J."""
        for k in slices[V]:
            if G.subgroups_conjugate(J, slice_rep[(V, k)], rep_of_label[V]):
                return k
        raise InvalidSpec(f"subgroup not found over {V}")

    res, ind = {}, {}
    for V in orbit_classes:
        H = rep_of_label[V]
        for w in slices[V]:
            L = slice_rep[(V, w)]
            gw = conjugator[(V, w)]
            Wcls = cls_of[(V, w)]
            for u in slices[V]:
                K = slice_rep[(V, u)]
                acc = {}
                for h in G.double_coset_reps(L, H, K):
                    piece = L & G.conj_subgroup(h, K)
                    key = key_of_subgroup(Wcls, G.conj_subgroup(gw, piece))
                    acc[key] = acc.get(key, 0) + 1
                res[(V, w, u)] = tuple(sorted(acc.items()))
        for u in slices[V]:
            K = slice_rep[(V, u)]
            gu = conjugator[(V, u)]
            Ucls = cls_of[(V, u)]
            for x in slices[Ucls]:
                J0 = slice_rep[(Ucls, x)]
                J = G.conj_subgroup(G.inv(gu), J0)
                ind[(V, u, x)] = key_of_subgroup(V, J)

    class_rep = {label_of_rep[H]: H for H in classes}
    return OrbitalPresentation(
        key=f"group:{name}", spec={"backend": "group", "table": [list(r) for r in G.table], "name": name},
        orbit_classes=orbit_classes, slices=slices, star=star, cls_of=cls_of,
        points=points, restriction=res, induction=ind,
        group=G, class_rep=class_rep, slice_rep=slice_rep, conjugator=conjugator)


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
    raise InvalidSpec(f"unknown backend {b!r}")
