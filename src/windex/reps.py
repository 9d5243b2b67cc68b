"""Real representations of cyclic chains and their arity supports.

A representation is recorded by its fixed-point dimensions along the chain of
subgroups.  A finite transitive set [V/U] embeds equivariantly iff the
representation has points with stabilizer exactly U, and a general finite set
embeds iff moreover every zero-dimensional fixed locus receives at most one
point; the sparse sets satisfying both make up a weak indexing system.
"""
from __future__ import annotations

from .presentation import require_chain
from .systems import WeakIndexingSystem, sparse_universe


class GroupMismatch(ValueError):
    pass


class RepDescriptor:
    """A representation of the top group of a chain, given by the dimension
    of the fixed subspace at every level.  Dimensions never increase up the
    chain."""

    def __init__(self, P, fixed_dims, name=None):
        require_chain(P, "representations are only supported")
        self.P = P
        self.name = name
        dims = dict(fixed_dims)
        if set(dims) != set(P.orbit_classes):
            raise ValueError("fixed_dims must cover exactly the chain levels")
        prev = None
        for V in P.orbit_classes:
            d = dims[V]
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"dimension at {V} must be a nonnegative integer")
            if prev is not None and d > prev:
                raise ValueError(
                    f"fixed dimensions must be monotone: {V} has {d} > {prev}")
            prev = d
        self.fixed_dims = dims

    def dim(self):
        return self.fixed_dims[self.P.orbit_classes[0]]

    def __eq__(self, other):
        if not isinstance(other, RepDescriptor):
            return NotImplemented
        return self.P.key == other.P.key and self.fixed_dims == other.fixed_dims

    def __hash__(self):
        return hash((self.P.key, tuple(sorted(self.fixed_dims.items()))))

    def __repr__(self):
        body = ", ".join(f"{V}:{self.fixed_dims[V]}" for V in self.P.orbit_classes)
        tag = self.name or "rep"
        return f"<{tag} {body}>"


def rep_sum(r1, r2):
    """Direct sum: fixed dimensions add levelwise."""
    if r1.P.key != r2.P.key:
        raise GroupMismatch(f"cannot add representations of {r1.P.key} and {r2.P.key}")
    dims = {V: r1.fixed_dims[V] + r2.fixed_dims[V] for V in r1.P.orbit_classes}
    name = None
    if r1.name and r2.name:
        name = f"{r1.name}+{r2.name}"
    return RepDescriptor(r1.P, dims, name=name)


def embeds(S, rep):
    """Does the finite set S embed equivariantly into the representation?

    Needs a point with stabilizer exactly U for every orbit [V/U] of S (the
    fixed subspace at U must strictly exceed the one a level up), and at most
    one point landing in each zero-dimensional fixed locus.
    """
    P = rep.P
    V = S.over
    dims = rep.fixed_dims
    order = P.orbit_classes
    top = order.index(V)
    for u, _ in S.orbits:
        U = P.slice_cls(V, u)
        i = order.index(U)
        if i < top and dims[U] <= dims[order[i + 1]]:
            return False
    return all(P.fixed_points(V, a, S.orbits) <= 1 for a in P.slice_keys(V)
               if dims[P.slice_cls(V, a)] == 0)


def arity_support(rep):
    """The weak indexing system of finite sets embedding into the
    representation."""
    P = rep.P
    levels = {V: frozenset(S for S in sparse_universe(P, V) if embeds(S, rep))
              for V in P.orbit_classes}
    label = f"F^{rep.name}" if rep.name else None
    return WeakIndexingSystem.from_sparse(P, levels, label=label)


_NAMED = {
    "sigma": (2, 1, [1, 0]),
    "lambda": (None, 1, [2, 0]),
    "lambda_cp": (None, 2, [2, 2, 0]),
    "lambda_cp2": (None, 2, [2, 0, 0]),
}


def named_rep(P, name):
    """Look up a representation by name: the sign representation `sigma` of
    C_2, the rotation `lambda` of C_p, and over C_{p^2} the rotations
    `lambda_Cp` (pulled back from the quotient) and `lambda_Cp2` (faithful)."""
    require_chain(P, "representations are only supported")
    key = name.lower()
    if key not in _NAMED:
        raise ValueError(f"unknown representation {name!r}; "
                         f"choose from {sorted(_NAMED)}")
    p_req, n_req, dims = _NAMED[key]
    p, n = P.spec["p"], P.spec["n"]
    if (p_req is not None and p != p_req) or n != n_req:
        raise ValueError(f"{name!r} lives over a chain of height {n_req}"
                         + (f" with p={p_req}" if p_req else "")
                         + f", not {P.key}")
    return RepDescriptor(P, dict(zip(P.orbit_classes, dims)), name=name)
