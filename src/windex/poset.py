"""The closure engine; finite posets: covers, isomorphism, DOT/JSON export."""
from __future__ import annotations

import functools
import itertools
import operator

# a mask's binary digits as bytes 0 and 1, and back
_TO_BYTES = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def closure(rule, closed=(), new=()):
    """The least set closed under `rule` that holds the closed set `closed`
    and the items `new`.  `rule(x, present)` lists what x brings in, given
    the items present; each item is expanded once, when it arrives, so a rule
    on pairs sees every pair, and the items of `closed` are not expanded.
    For the same reason a rule may keep the items it has expanded so far and
    combine each new one with those alone (`systems.saturate` does)."""
    out = set(closed)
    todo = list(set(new) - out)
    out.update(todo)
    while todo:
        for y in rule(todo.pop(), out):
            if y not in out:
                out.add(y)
                todo.append(y)
    return frozenset(out)


def closed_sets(items, rule):
    """The subsets of `items` closed under `rule`, by size, then by the
    positions of their items in `items`.  Close-by-One (Kuznetsov): a closed
    set C reached by adding the item at position i steps only to the
    closures D of C and an item x_j with j > i, and keeps D when D - C holds
    no item before x_j.  So every closed set E is found exactly once: from
    the closure C of E's items before x_j, for the last j at which C is not
    yet E, by adding x_j."""
    pos = {x: i for i, x in enumerate(items)}
    found, todo = [], [(closure(rule), 0)]
    while todo:
        C, start = todo.pop()
        found.append(C)
        for j in range(start, len(items)):
            x = items[j]
            if x not in C:
                D = closure(rule, C, [x])
                if min(map(pos.__getitem__, D - C)) >= j:
                    todo.append((D, j + 1))
    return sorted(found, key=lambda C: (len(C), sorted(pos[x] for x in C)))


def _bits(mask):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite poset on `elements` in a fixed order.  Element i keeps its
    up-set as one integer bitmask (bit j is set when i <= j) and its
    down-set as another, so the order checks, covers and extremes are
    O(n^2) big-integer operations."""

    def __init__(self, elements, leq, labels=None):
        """`elements` in a fixed order; `leq(a, b)` decides the order relation."""
        self.elements = list(elements)
        up = [0] * len(self.elements)
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if leq(a, b):
                    up[i] |= 1 << j
        self._set_order(up, labels)

    @classmethod
    def from_up_sets(cls, elements, up, labels=None):
        """The poset on `elements` in which element i lies below the
        elements whose bits are set in the integer `up[i]`."""
        self = cls.__new__(cls)
        self.elements = list(elements)
        self._set_order(list(up), labels)
        return self

    def _set_order(self, up, labels):
        """Check the up-set masks and keep them, the down-sets and the
        covers."""
        n = len(self.elements)
        if len(up) != n or any(mask >> n for mask in up):
            raise ValueError("one up-set per element, inside the elements")
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("one label per element")
        if any(not up[i] >> i & 1 for i in range(n)):
            raise ValueError("order is not reflexive")
        strict = [mask ^ 1 << i for i, mask in enumerate(up)]
        # an n x n table of bytes: row i, table[i * n:(i + 1) * n], holds 1
        # at each element strictly above i, and column j is table[j::n]
        table = bytearray(n * n)
        for i, mask in enumerate(strict):
            table[i * n:(i + 1) * n] = \
                format(mask, f"0{n}b")[::-1].encode().translate(_TO_BYTES)
        down = [int(table[j::n][::-1].translate(_TO_DIGITS), 2) | 1 << j
                for j in range(n)]
        if any(up[i] & down[i] != 1 << i for i in range(n)):
            raise ValueError("order is not antisymmetric")
        # transitive: the strict up-sets of the elements above i lie in
        # up[i]; what they miss of i's strict up-set is what i is covered by
        self._cover_masks = []
        for i in range(n):
            reach = functools.reduce(operator.or_, itertools.compress(
                strict, table[i * n:(i + 1) * n]), 0)
            if reach & ~up[i]:
                raise ValueError("order is not transitive")
            self._cover_masks.append(strict[i] & ~reach)
        self._up, self._down = up, down

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return bool(self._up[i] >> j & 1)

    def covers(self):
        """Pairs (i, j) with i < j and nothing strictly in between."""
        return [(i, j) for i, mask in enumerate(self._cover_masks)
                for j in _bits(mask)]

    def bottom(self):
        full = (1 << len(self.elements)) - 1
        return next((i for i, mask in enumerate(self._up) if mask == full), None)

    def top(self):
        full = (1 << len(self.elements)) - 1
        return next((j for j, mask in enumerate(self._down) if mask == full), None)

    # -- isomorphism --------------------------------------------------------

    def _signatures(self):
        """Iterated refinement of node invariants; stable under isomorphism."""
        n = len(self.elements)
        up = [list(_bits(mask)) for mask in self._up]
        down = [list(_bits(mask)) for mask in self._down]
        sig = [(len(up[i]), len(down[i])) for i in range(n)]
        for _ in range(n):
            nxt = [(sig[i],
                    tuple(sorted(sig[j] for j in up[i])),
                    tuple(sorted(sig[j] for j in down[i])))
                   for i in range(n)]
            # re-encode as small ints to keep the tuples from growing
            codes = {s: c for c, s in enumerate(sorted(set(nxt)))}
            new = [codes[s] for s in nxt]
            if new == sig:
                break
            sig = new
        return sig

    def isomorphic(self, other):
        """Order-isomorphism test; returns a mapping (index list) or None."""
        n = len(self.elements)
        if n != len(other.elements):
            return None
        sa, sb = self._signatures(), other._signatures()
        if sorted(sa) != sorted(sb):
            return None
        ua, da, ub, db = self._up, self._down, other._up, other._down
        candidates = [[j for j in range(n) if sb[j] == sa[i]] for i in range(n)]
        order = sorted(range(n), key=lambda i: len(candidates[i]))
        mapping = [None] * n
        used = [False] * n
        tried = [0] * n         # candidates tried so far at each position
        pos = 0
        while pos < n:          # depth-first, on an explicit stack
            i = order[pos]
            if mapping[i] is not None:      # back here: drop the last choice
                used[mapping[i]] = False
                mapping[i] = None
            while tried[pos] < len(candidates[i]):
                j = candidates[i][tried[pos]]
                tried[pos] += 1
                if not used[j] and all(
                        (ua[i] >> prev & 1) == (ub[j] >> mapping[prev] & 1)
                        and (da[i] >> prev & 1) == (db[j] >> mapping[prev] & 1)
                        for prev in order[:pos]):
                    mapping[i] = j
                    used[j] = True
                    break
            if mapping[i] is not None:
                pos += 1
            elif pos == 0:
                return None
            else:
                tried[pos] = 0
                pos -= 1
        return mapping

    # -- export -------------------------------------------------------------

    def to_dot(self, name="poset"):
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        return {
            "nodes": list(self.labels),
            "covers": [[self.labels[i], self.labels[j]] for i, j in self.covers()],
        }


def poset_from_covers(labels, cover_pairs):
    """Build a poset from labels and cover pairs (lo, hi), taking the
    reflexive-transitive closure: each node's up-set closed under the
    successors of its members."""
    index = {lab: i for i, lab in enumerate(labels)}
    succ = [[] for _ in labels]
    for lo, hi in cover_pairs:
        succ[index[lo]].append(index[hi])
    up = [sum(1 << j for j in closure(lambda j, present: succ[j], (), [i]))
          for i in range(len(labels))]
    return Poset.from_up_sets(range(len(labels)), up, labels=labels)
