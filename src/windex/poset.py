"""The closure engine; finite posets: covers, isomorphism, DOT/JSON export."""
from __future__ import annotations


def closure(rule, closed=(), new=()):
    """The least set closed under `rule` that holds the closed set `closed`
    and the items `new`.  `rule(x, present)` lists what x brings in, given
    the items present; each item is expanded once, when it arrives, so a rule
    on pairs sees every pair, and the items of `closed` are not expanded."""
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
    positions of their items in `items`: the walk steps from each closed set
    C to the closure of C and x for every x outside C, which lies inside any
    closed set holding C and x, so it reaches every closed set."""
    pos = {x: i for i, x in enumerate(items)}
    start = closure(rule)
    seen, todo = {start}, [start]
    while todo:
        C = todo.pop()
        for x in items:
            if x not in C:
                D = closure(rule, C, [x])
                if D not in seen:
                    seen.add(D)
                    todo.append(D)
    return sorted(seen, key=lambda C: (len(C), sorted(pos[x] for x in C)))


class Poset:
    def __init__(self, elements, leq, labels=None):
        """`elements` in a fixed order; `leq(a, b)` decides the order relation."""
        self.elements = list(elements)
        n = len(self.elements)
        self._leq = [[bool(leq(a, b)) for b in self.elements] for a in self.elements]
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("one label per element")
        for i in range(n):
            if not self._leq[i][i]:
                raise ValueError("order is not reflexive")
            for j in range(n):
                if i != j and self._leq[i][j] and self._leq[j][i]:
                    raise ValueError("order is not antisymmetric")
                for k in range(n):
                    if self._leq[i][j] and self._leq[j][k] and not self._leq[i][k]:
                        raise ValueError("order is not transitive")

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return self._leq[i][j]

    def covers(self):
        """Pairs (i, j) with i < j and nothing strictly in between."""
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self._leq[i][j]:
                    continue
                if any(k != i and k != j and self._leq[i][k] and self._leq[k][j]
                       for k in range(n)):
                    continue
                out.append((i, j))
        return sorted(out)

    def bottom(self):
        for i in range(len(self.elements)):
            if all(self._leq[i][j] for j in range(len(self.elements))):
                return i
        return None

    def top(self):
        for j in range(len(self.elements)):
            if all(self._leq[i][j] for i in range(len(self.elements))):
                return j
        return None

    # -- isomorphism --------------------------------------------------------

    def _signatures(self):
        """Iterated refinement of node invariants; stable under isomorphism."""
        n = len(self.elements)
        up = [frozenset(j for j in range(n) if self._leq[i][j]) for i in range(n)]
        down = [frozenset(j for j in range(n) if self._leq[j][i]) for i in range(n)]
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
                        self._leq[i][prev] == other._leq[j][mapping[prev]]
                        and self._leq[prev][i] == other._leq[mapping[prev]][j]
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
    up = [closure(lambda j, present: succ[j], (), [i]) for i in range(len(labels))]
    return Poset(range(len(labels)), lambda a, b: b in up[a], labels=labels)
