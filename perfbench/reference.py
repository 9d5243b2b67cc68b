"""Reference answers for the benchmark tasks, computed without the program.

Everything here works on plain data read off a system: its sparse levels,
as a map from orbit class to a set of V-sets, each V-set given by the
(orbit key, multiplicity) pairs of its `orbits`.  Containment, covers, least
upper and greatest lower bounds, transfer pairs, fold families and sieves are
recomputed from that data, so a check does not trust the code it checks.

Where no independent path exists, a digest pinned from the seed commit is
used instead (see PINS); `derive_pins.py` recomputes those digests.
"""
from __future__ import annotations

import hashlib

# Counts from the paper or from an independent closed form.
PAPER_COUNTS = {
    "aE_unital_height_one": 13,   # for every prime p
    "unital_height_one": 6,
    "indexing_height_one": 2,
    "unital_height_two": 21,      # over C_{p^2}, every p
    "covers_height_two": 32,
    "point_aE_unital": 4,         # the point and BG_2 alike
    "s3_transfer_systems": 9,     # published count; one indexing system each
}


def catalan(n):
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


# Pinned from the seed commit (no independent path).  The C_8 list was
# checked once against brute-force enumeration when these were taken.
PINS = {
    "c8_unital": (79, "ddbe0b2a6c8ab4072c7e7527bc5a05af862bd5f6f817ac3c8b12dc0f3485e62d"),
    "c16_unital": (310, "8d987d3c46a5315ad4c119dc2c4248610e30b8e720f973337a66b48ba7171d48"),
    "c16_unital_covers": 800,
    "c32_unital": (1251, "b2bdb95fb706f4e502d55aa582b3ca4e26a3bdb671a39c11bf52859aa0516638"),
}


# -- plain data of a system ----------------------------------------------------


def vset_key(orbits):
    """A V-set as a sorted tuple of (orbit key, multiplicity) pairs."""
    return tuple(sorted((str(k), int(m)) for k, m in orbits))


def system_key(W):
    """A system's sparse levels as a canonical, hashable value."""
    return tuple(sorted(
        (str(V), tuple(sorted(vset_key(S.orbits) for S in mem)))
        for V, mem in W.sparse_levels.items()))


def system_key_from_obj(obj):
    """The same canonical value, read from a serialized system document."""
    levels = obj["levels"]
    return tuple(sorted(
        (str(V), tuple(sorted(vset_key(o["orbits"]) for o in mem)))
        for V, mem in levels.items()))


def levels_of(key):
    return {V: frozenset(mem) for V, mem in key}


def digest(keys):
    text = repr(sorted(keys))
    return hashlib.sha256(text.encode()).hexdigest()


def contains(a, b):
    """Is system a (by key) contained in system b, level by level?"""
    la, lb = levels_of(a), levels_of(b)
    return all(mem <= lb.get(V, frozenset()) for V, mem in la.items())


class Lattice:
    """Containment among a list of systems, as bitsets over their indices."""

    def __init__(self, keys):
        self.keys = list(keys)
        levels = [levels_of(k) for k in self.keys]
        n = len(levels)
        self.up = [0] * n
        self.down = [0] * n
        for i in range(n):
            li = levels[i]
            for j in range(n):
                lj = levels[j]
                if all(mem <= lj.get(V, frozenset()) for V, mem in li.items()):
                    self.up[i] |= 1 << j
                    self.down[j] |= 1 << i

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def covers(self):
        """Pairs (i, j), i below j, with nothing strictly between."""
        out = []
        for i, up in enumerate(self.up):
            above = up & ~(1 << i)
            j = 0
            rest = above
            while rest:
                if rest & 1:
                    between = above & self.down[j] & ~(1 << j)
                    if not between:
                        out.append((i, j))
                rest >>= 1
                j += 1
        return sorted(out)

    def lub(self, i, j):
        """Index of the least upper bound of i and j, or None."""
        common = self.up[i] & self.up[j]
        for k in _bits(common):
            if self.up[k] == common:
                return k
        return None

    def glb(self, i, j):
        common = self.down[i] & self.down[j]
        for k in _bits(common):
            if self.down[k] == common:
                return k
        return None

    def least_with(self, candidates):
        """The least element of a set of indices, or None."""
        mask = 0
        for k in candidates:
            mask |= 1 << k
        for k in candidates:
            if self.up[k] & mask == mask:
                return k
        return None


def order_profile(n, covers):
    """For the order on 0..n-1 generated by the cover pairs (lo, hi), the
    sorted list of (lower covers, upper covers, elements below, elements
    above) of each element: an invariant that does not depend on how the
    elements are numbered or labelled."""
    lower, upper = [0] * n, [0] * n
    above = [1 << i for i in range(n)]
    for lo, hi in covers:
        upper[lo] += 1
        lower[hi] += 1
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            joined = above[lo] | above[hi]
            if joined != above[lo]:
                above[lo] = joined
                changed = True
    below = [sum(1 for j in range(n) if above[j] >> i & 1) for i in range(n)]
    return sorted((lower[i], upper[i], below[i], bin(above[i]).count("1"))
                  for i in range(n))


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


# -- chain invariants from sparse data ---------------------------------------
#
# Over C_{p^n} the orbit classes are e, C_p, ..., C_{p^n}; a slice orbit over
# H is named by the subgroup K it is the orbit H/K of.  `order` lists the
# classes from the bottom.


def chain_order(p, n):
    return ["e"] + [f"C_{p ** k}" for k in range(1, n + 1)]


def is_unital(key):
    return all(() in mem for _, mem in key)


def fold_family(key):
    return frozenset(V for V, mem in key if ((V, 2),) in mem)


def transfer_pairs(key):
    """The admissible orbits (K, H), K a proper subgroup of H."""
    return frozenset((k, V) for V, mem in key for S in mem
                     if len(S) == 1 and S[0][1] == 1 and S[0][0] != V
                     for k in (S[0][0],))


def expected_sieve(key, order):
    """The sieve of a unital chain system: admissible (K, H) with H in the
    uncovered scope whose level holds the point plus the orbit H/K."""
    levels = levels_of(key)
    pairs = transfer_pairs(key)
    rank = {V: i for i, V in enumerate(order)}
    top = max((rank[H] for _, H in pairs), default=-1)
    codomain = frozenset(V for V in order if rank[V] <= top)
    scope = codomain - fold_family(key)
    held = frozenset(
        (K, H) for K, H in pairs if H in scope
        and vset_key([(H, 1), (K, 1)]) in levels[H])
    return pairs, scope, held


def unital_counts(keys):
    """How many of the listed systems are unital, and how many of those are
    indexing systems (every level holds the double point)."""
    unital = [k for k in keys if is_unital(k)]
    classes = {V for k in keys for V, _ in k}
    indexing = [k for k in unital if fold_family(k) == classes]
    return len(unital), len(indexing)
