"""Representation descriptors and their arity supports."""
import itertools

import pytest

from windex import (
    GroupMismatch, RepDescriptor, UnsupportedBackend, YES, arity_support,
    embeds, enumerate_transfer_systems, finite_group, join, leq, named_rep,
    rep_sum, transfer_of,
)

from helpers import s3_table


def _rep(P, *dims):
    return RepDescriptor(P, dict(zip(P.orbit_classes, dims)))


# -- descriptor validation -----------------------------------------------------


def test_descriptor_validation(C4):
    r = _rep(C4, 2, 1, 0)
    assert r.dim() == 2
    assert r == _rep(C4, 2, 1, 0) and hash(r) == hash(_rep(C4, 2, 1, 0))
    assert len({r, _rep(C4, 2, 1, 0), _rep(C4, 2, 0, 0)}) == 2
    with pytest.raises(ValueError):
        _rep(C4, 1, 2, 0)  # grows up the chain
    with pytest.raises(ValueError):
        _rep(C4, 2, -1, 0)
    with pytest.raises(ValueError):
        RepDescriptor(C4, {"e": 1, "C_2": 0})  # missing the top level
    with pytest.raises(UnsupportedBackend):
        RepDescriptor(finite_group(s3_table(), name="S3"),
                      {"e": 1, "H1": 1, "H2": 1, "S3": 1})


def test_rep_sum_adds_levelwise(C3, C4):
    s = rep_sum(_rep(C4, 2, 2, 0), _rep(C4, 2, 0, 0))
    assert s.fixed_dims == {"e": 4, "C_2": 2, "C_4": 0}
    with pytest.raises(GroupMismatch):
        rep_sum(_rep(C4, 1, 0, 0), named_rep(C3, "lambda"))


def test_named_reps(C2, C3, C4):
    assert named_rep(C2, "sigma").fixed_dims == {"e": 1, "C_2": 0}
    assert named_rep(C3, "lambda").fixed_dims == {"e": 2, "C_3": 0}
    assert named_rep(C4, "LAMBDA_CP").fixed_dims == {"e": 2, "C_2": 2, "C_4": 0}
    with pytest.raises(ValueError):
        named_rep(C3, "sigma")  # the sign representation needs p = 2
    with pytest.raises(ValueError):
        named_rep(C2, "lambda_cp")  # wrong chain height
    with pytest.raises(ValueError):
        named_rep(C2, "tau")


# -- embedding -----------------------------------------------------------------


def test_sign_representation_embeddings(C2):
    sigma = named_rep(C2, "sigma")
    assert embeds(C2.orbit_vset("C_2", "e"), sigma)
    assert embeds(C2.vset("e", [("e", 2)]), sigma)
    # two fixed points cannot share the zero-dimensional fixed locus, but
    # the origin plus a free pair fits
    assert not embeds(C2.vset("C_2", [("C_2", 2)]), sigma)
    assert embeds(C2.star_vset("C_2") + C2.orbit_vset("C_2", "e"), sigma)


def test_free_orbit_needs_free_points(C4):
    # every fixed-count comparison passes here, yet the free orbit has no
    # equivariant embedding: the subspace of points with trivial stabilizer
    # is empty when the fixed dimensions agree at consecutive levels
    lam = named_rep(C4, "lambda_cp")
    free = C4.orbit_vset("C_4", "e")
    star = C4.star_key("C_4")
    zero_loci = [a for a in C4.slice_keys("C_4")
                 if lam.fixed_dims[C4.slice_cls("C_4", a)] == 0]
    for a in zero_loci:
        K = C4.slice_cls("C_4", a)
        assert C4.restrict_orbit("C_4", a, "e").mult(C4.star_key(K)) <= 1
    assert not embeds(free, lam)
    assert embeds(C4.orbit_vset("C_4", "C_2"), lam)


def test_arity_support_transfers(C2, C4):
    R = enumerate_transfer_systems(C2)
    W = arity_support(named_rep(C2, "sigma"))
    assert W.label == "F^sigma"
    assert transfer_of(W).strict() == frozenset([("e", "C_2")])
    assert W.families()["fold"] == frozenset(["e"])

    R0, R1, R2, R3, R4 = enumerate_transfer_systems(C4)
    W = arity_support(named_rep(C4, "lambda_cp"))
    assert transfer_of(W) == R2
    assert W.families()["fold"] == frozenset(["e", "C_2"])

    W = arity_support(named_rep(C4, "lambda_cp2"))
    assert transfer_of(W) == R3
    assert W.families()["fold"] == frozenset(["e"])


def test_arity_support_is_unital(C4):
    for name in ("lambda_cp", "lambda_cp2"):
        W = arity_support(named_rep(C4, name))
        fams = W.families()
        assert fams["unit"] == frozenset(C4.orbit_classes)
        assert fams["eps"] == fams["unit"]


def test_join_law_for_sums(C4):
    reps = [_rep(C4, 0, 0, 0), _rep(C4, 1, 1, 1), _rep(C4, 1, 0, 0),
            _rep(C4, 2, 2, 0), _rep(C4, 2, 0, 0)]
    pairs = list(itertools.product(reps, reps))
    assert len(pairs) == 25
    for r1, r2 in pairs:
        lhs = arity_support(rep_sum(r1, r2))
        rhs = join(arity_support(r1), arity_support(r2))
        assert lhs == rhs, (r1, r2)


def test_zero_rep_supports_only_small_sets(C2):
    W = arity_support(_rep(C2, 0, 0))
    assert W.member(C2.star_vset("C_2")) == YES
    assert W.families()["fold"] == frozenset()
    assert W.families()["unit"] == frozenset(C2.orbit_classes)


def test_supports_over_tabular_cyclic_backend(C4_tabular):
    W = arity_support(named_rep(C4_tabular, "lambda_cp2"))
    assert W.families()["fold"] == frozenset(["e"])
