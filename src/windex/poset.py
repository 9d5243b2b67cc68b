"""The closure engine; finite posets: covers, isomorphism, DOT/JSON export."""
from __future__ import annotations

import functools
import heapq
import itertools
import operator

# a mask's binary digits as bytes 0 and 1
_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


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
        # row by row: the strict up-sets above i lie in up[i] (transitive) and
        # miss i (antisymmetric); what they miss of i's strict up-set covers i
        strict = [mask ^ 1 << i for i, mask in enumerate(up)]
        self._cover_masks = []
        for i, mask in enumerate(strict):
            row = format(mask, f"0{n}b")[::-1].encode().translate(_TO_BYTES)
            reach = functools.reduce(operator.or_, itertools.compress(strict, row), 0)
            if reach >> i & 1:
                raise ValueError("order is not antisymmetric")
            if reach & ~up[i]:
                raise ValueError("order is not transitive")
            self._cover_masks.append(mask & ~reach)
        del strict      # before the down-sets, which take as much room
        # an element strictly below another has the larger up-set: larger
        # up-sets first, each down-set is whole before it goes to its covers
        down = [1 << j for j in range(n)]
        for i in sorted(range(n), key=lambda i: up[i].bit_count(), reverse=True):
            for j in _bits(self._cover_masks[i]):
                down[j] |= down[i]
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

    def _hasse(self):
        """Each element's upper and lower covers, as index lists, and its
        lower covers as a mask."""
        n = len(self.elements)
        above = [list(_bits(mask)) for mask in self._cover_masks]
        below, lower = [[] for _ in range(n)], [0] * n
        for i, covers in enumerate(above):
            for j in covers:
                below[j].append(i)
                lower[j] |= 1 << i
        return above, below, lower

    def isomorphic(self, other):
        """An order isomorphism onto `other` as an index list (element i goes
        to mapping[i]), or None when there is none.

        Colours: every element of both posets starts from (|up-set|,
        |down-set|) and is refined by the colours of its upper and of its
        lower covers, on the disjoint union of the two Hasse diagrams (so
        that codes agree across them) until the number of colours stops
        growing.  An isomorphism keeps colours, so i is mapped only into its
        colour class of `other`.  Elements are placed in a connected order:
        next, of the unplaced neighbours of placed elements, the one with the
        fewest candidates; a new component only when none is left.  Mapping i
        to j must carry i's upper and lower covers among the placed elements
        onto j's among their images; where the class offers a choice, i's
        whole up-set and down-set among them too, which cuts off wrong
        choices early (on Boolean lattices the covers alone let the search
        wander).  Each pair of elements is checked when the later of the two
        is placed, so a complete mapping is a bijection that preserves and
        reflects the cover relation: an isomorphism of Hasse diagrams, hence
        of the orders, which are the reflexive-transitive closures of their
        covers.  The search is depth-first on an explicit stack."""
        n = len(self.elements)
        if n != len(other.elements):
            return None
        hasse = [self._hasse(), other._hasse()]
        colours = [[(up.bit_count(), down.bit_count())
                    for up, down in zip(po._up, po._down)] for po in (self, other)]
        count = 0
        while True:
            codes = {}
            colours = [[codes.setdefault((c[i], tuple(sorted([c[k] for k in above[i]])),
                                          tuple(sorted([c[k] for k in below[i]]))),
                                         len(codes))
                        for i in range(n)]
                       for c, (above, below, _) in zip(colours, hasse)]
            if len(codes) == count:
                break
            count = len(codes)
        ca, cb = colours
        if sorted(ca) != sorted(cb):
            return None
        classes = {}
        for j, c in enumerate(cb):
            classes.setdefault(c, []).append(j)
        candidates = [classes[c] for c in ca]
        (above, below, lower), (_, _, lower_b) = hasse
        order, seen = [], [False] * n
        for start in sorted(range(n), key=lambda i: len(candidates[i])):
            if seen[start]:
                continue
            seen[start] = True
            frontier = [(len(candidates[start]), start)]
            while frontier:
                i = heapq.heappop(frontier)[1]
                order.append(i)
                for k in above[i] + below[i]:
                    if not seen[k]:
                        seen[k] = True
                        heapq.heappush(frontier, (len(candidates[k]), k))
        upper, upper_b = self._cover_masks, other._cover_masks
        ua, da, ub, db = self._up, self._down, other._up, other._down
        mapping, image_bit = [None] * n, [0] * n
        placed = image = 0

        def carried(mask):
            return sum(image_bit[k] for k in _bits(mask & placed))

        tried = [0] * n         # candidates tried so far at each position
        pos = 0
        while pos < n:          # depth-first, on an explicit stack
            i = order[pos]
            if mapping[i] is not None:      # back here: drop the last choice
                placed ^= 1 << i
                image ^= image_bit[i]
                mapping[i] = None
            cands = candidates[i]
            want = (carried(upper[i]), carried(lower[i]))
            choice = len(cands) > 1
            if choice:
                full = (carried(ua[i]), carried(da[i]))
            while tried[pos] < len(cands):
                j = cands[tried[pos]]
                tried[pos] += 1
                if (not image >> j & 1
                        and want == (upper_b[j] & image, lower_b[j] & image)
                        and not (choice and full != (ub[j] & image, db[j] & image))):
                    mapping[i], image_bit[i] = j, 1 << j
                    placed |= 1 << i
                    image |= 1 << j
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
