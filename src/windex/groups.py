"""Finite group tables: subgroups, conjugacy, cosets.

Everything here is brute force over a multiplication table.  Groups are kept
small (the presentation builders cap enumeration at order 60), so none of this
needs to be clever; it needs to be obviously correct, because it backs both
the orbit-category presentations and the point-level oracles.
"""
from __future__ import annotations

from .poset import closure


class NotAGroup(ValueError):
    pass


class GroupTable:
    """A finite group given by its multiplication table on 0..n-1."""

    def __init__(self, table, check=True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        if check:
            self._validate()
        self.e = self._find_identity()
        self._inv = tuple(self._find_inverse(a) for a in range(self.n))

    def _validate(self):
        n = self.n
        elems = set(range(n))
        for row in self.table:
            if len(row) != n or set(row) != elems:
                raise NotAGroup("multiplication table is not a Latin square")
        for col in range(n):
            if {row[col] for row in self.table} != elems:
                raise NotAGroup("multiplication table is not a Latin square")
        t = self.table
        for a in range(n):
            for b in range(n):
                tab = t[a][b]
                for c in range(n):
                    if t[tab][c] != t[a][t[b][c]]:
                        raise NotAGroup("multiplication is not associative")
        self._find_identity()  # raises if absent; inverses exist by Latin square + identity

    def _find_identity(self):
        for a in range(self.n):
            if all(self.table[a][b] == b and self.table[b][a] == b for b in range(self.n)):
                return a
        raise NotAGroup("no identity element")

    def _find_inverse(self, a):
        for b in range(self.n):
            if self.table[a][b] == self.e:
                return b
        raise NotAGroup(f"no inverse for element {a}")

    @classmethod
    def cyclic(cls, n):
        return cls([[(a + b) % n for b in range(n)] for a in range(n)], check=False)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, a):
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def conj_subgroup(self, g, H):
        return frozenset(self.conj(g, h) for h in H)

    def _products(self, a, present):
        """What a brings into a subgroup: its inverse, and its products with
        every present element on either side."""
        t, row = self.table, self.table[a]
        return ([self.inv(a)] + [row[b] for b in present]
                + [t[b][a] for b in present])

    def subgroup_generated(self, gens):
        return closure(self._products, (), [self.e, *gens])

    def subgroups(self):
        """All subgroups, as the join closure of the cyclic subgroups."""
        cyclic = [self.subgroup_generated([a]) for a in range(self.n)]
        found = closure(lambda A, present: [closure(self._products, A, B)
                                            for B in present], (), cyclic)
        return sorted(found, key=lambda H: (len(H), sorted(H)))

    def _coset_reps(self, H, coset):
        """The least element of each coset coset(h), identity first."""
        seen, reps = set(), []
        for h in sorted(H, key=lambda x: (x != self.e, x)):
            if h not in seen:
                reps.append(h)
                seen.update(coset(h))
        return reps

    def left_coset_reps(self, H, K):
        """Representatives of H/K, for K <= H.  Identity coset comes first."""
        return self._coset_reps(H, lambda h: (self.mul(h, k) for k in K))

    def right_coset_reps(self, K, H):
        """Representatives of K\\H (cosets Kg), identity first."""
        return self._coset_reps(H, lambda h: (self.mul(k, h) for k in K))

    def double_coset_reps(self, L, H, K):
        """Representatives of L\\H/K for L, K <= H."""
        return self._coset_reps(
            H, lambda h: (self.mul(self.mul(l, h), k) for l in L for k in K))

    def subgroups_conjugate(self, A, B, under):
        """Is gAg^-1 = B for some g in `under`?"""
        if len(A) != len(B):
            return False
        return any(self.conj_subgroup(g, A) == B for g in under)
