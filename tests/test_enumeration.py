"""Exhaustive enumeration of system classes and their posets."""
import collections
import functools
import gc
import random
import weakref

import pytest

from windex import (
    MixedPresentation, TooLarge, UnsupportedBackend, WeakIndexingSystem,
    chain_group, classify, cyclic_group, enumerate_transfer_systems,
    f_complete, f_infinity, f_trivial, f_zero, finite_group, fold_left,
    is_sparse, leq, one_object_groupoid, system_label, system_poset,
    transfer_of, transfer_to_indexing, trivial_point,
)
from windex import enumeration
from windex.enumeration import (
    _in_output_order, _label_library, content_hash, enumerate_systems,
    enumerate_systems_fiberwise, normalize_class,
)

from helpers import (
    a4_table, c6_table, deduplicated_from_unital, diamond_semilattice,
    klein_table, listed_label_library, member_named_order, q8_table, s3_table,
    scanned_label, searched_indexing_systems, searched_systems,
)


def test_a_dropped_presentation_is_freed():
    """What is derived from a presentation lives on it, so nothing keeps a
    presentation alive once its systems are gone."""
    def worked():
        P = chain_group(2, 2)
        systems = enumerate_systems_fiberwise(P, "unital")
        assert enumerate_systems(P, "unital") == systems
        assert len({content_hash(W) for W in systems}) == len(systems)
        assert is_sparse(P, P.double_vset("e"))
        return weakref.ref(P)

    ref = worked()
    gc.collect()
    assert ref() is None


def test_output_order_names_levels_as_the_member_oracle_names_members():
    unital = enumerate_systems_fiberwise(chain_group(2, 4), "unital")
    indexing = enumerate_systems(finite_group(s3_table(), name="S3"), "indexing")
    def size(W):
        return sum(map(len, W.sparse_levels.values()))

    [(common, count)] = collections.Counter(map(size, unital)).most_common(1)
    tied = [W for W in unital if size(W) == common]
    assert len(tied) == count > 1
    for systems in (unital, indexing, tied):
        shuffled = list(systems)
        random.Random(len(systems)).shuffle(shuffled)
        assert _in_output_order(shuffled) == member_named_order(shuffled)


@pytest.mark.parametrize("p", [2, 3])
def test_height_one_counts(p):
    P = chain_group(p, 1)
    assert len(enumerate_systems(P, "aE_unital")) == 13
    assert len(enumerate_systems(P, "unital")) == 6
    assert len(enumerate_systems(P, "almost_unital")) == 9
    assert len(enumerate_systems(P, "indexing")) == 2


def test_classes_nest(C2):
    ae = enumerate_systems(C2, "aE_unital")
    unital = set(enumerate_systems(C2, "unital"))
    almost = set(enumerate_systems(C2, "almost_unital"))
    indexing = set(enumerate_systems(C2, "indexing"))
    assert unital <= almost <= set(ae)
    assert indexing <= unital
    for W in ae:
        flags = classify(W)
        assert flags["aE_unital"]
        assert (W in unital) == flags["unital"]
        assert (W in almost) == flags["almost_unital"]
        assert (W in indexing) == flags["indexing"]


def test_height_one_poset_covers(C2):
    systems = enumerate_systems(C2, "aE_unital")
    poset = system_poset(systems)
    assert len(poset.elements) == 13
    assert len(poset.covers()) == 16


def test_height_two_unital_poset(C4):
    brute = enumerate_systems(C4, "unital")
    fiberwise = enumerate_systems_fiberwise(C4)
    assert len(brute) == 21
    assert brute == fiberwise  # same systems, same deterministic order
    poset = system_poset(brute)
    assert len(poset.covers()) == 32


@pytest.mark.parametrize("p", [2, 3])
def test_brute_equals_fiberwise(p):
    P = chain_group(p, 2)
    for which in ("aE_unital", "unital", "almost_unital"):
        assert enumerate_systems(P, which) == \
            enumerate_systems_fiberwise(P, which)
    assert set(searched_indexing_systems(P)) == \
        set(enumerate_systems_fiberwise(P, "indexing"))


@pytest.mark.parametrize("make, classes", [
    (lambda: chain_group(2, 1), ("aE_unital", "almost_unital")),
    (lambda: chain_group(3, 1), ("aE_unital", "almost_unital")),
    (lambda: chain_group(2, 2), ("aE_unital", "almost_unital")),
    (lambda: chain_group(3, 2), ("aE_unital", "almost_unital")),
    (trivial_point, ("aE_unital", "almost_unital")),
    (lambda: one_object_groupoid(2), ("aE_unital", "almost_unital")),
    pytest.param(lambda: chain_group(2, 3), ("aE_unital", "almost_unital"),
                 marks=pytest.mark.slow),
    pytest.param(diamond_semilattice, ("aE_unital",), marks=pytest.mark.slow),
], ids=["C2", "C3", "C4", "C9", "point", "BG2", "C8", "diamond"])
def test_classes_built_from_unital_equal_the_searched_ones(make, classes):
    P = make()
    for which in classes:
        # same systems, same order
        assert enumerate_systems(P, which) == searched_systems(P, which)


_FROM_UNITAL = {
    "C4": (lambda: chain_group(2, 2), enumerate_systems_fiberwise),
    "C9": (lambda: chain_group(3, 2), enumerate_systems_fiberwise),
    "C8": (lambda: chain_group(2, 3), enumerate_systems_fiberwise),
    "C16": (lambda: chain_group(2, 4), enumerate_systems_fiberwise),
    "C25": (lambda: chain_group(5, 2), enumerate_systems_fiberwise),
    "C32": (lambda: chain_group(2, 5), enumerate_systems_fiberwise),
    "brute-C4": (lambda: chain_group(2, 2), enumerate_systems),
    "brute-C8": (lambda: chain_group(2, 3), enumerate_systems),
    "brute-S3": (lambda: finite_group(s3_table(), name="S3"), enumerate_systems),
    "brute-C6": (lambda: finite_group(c6_table(), name="C6"), enumerate_systems),
    "brute-diamond": (diamond_semilattice, enumerate_systems),
    "brute-point": (trivial_point, enumerate_systems),
    "brute-BG2": (lambda: one_object_groupoid(2), enumerate_systems),
}
_FROM_UNITAL_CASES = [
    pytest.param(case, marks=pytest.mark.slow) if case in (
        "brute-C8", "brute-S3", "brute-C6", "brute-diamond") else case
    for case in _FROM_UNITAL]


@functools.lru_cache(maxsize=None)
def _class_lists(case):
    """P and its unital, aE-unital and almost-unital lists, each listed by
    the case's enumeration."""
    make, listing = _FROM_UNITAL[case]
    P = make()
    return P, {which: listing(P, which)
               for which in ("unital", "aE_unital", "almost_unital")}


@pytest.mark.parametrize("case", _FROM_UNITAL_CASES)
def test_classes_built_from_unital_equal_the_deduplicating_oracle(case):
    P, lists = _class_lists(case)
    for which in ("aE_unital", "almost_unital"):
        # same systems, same order
        assert lists[which] == \
            deduplicated_from_unital(P, lists["unital"], which)


@pytest.mark.parametrize("case", _FROM_UNITAL_CASES)
def test_each_aE_system_is_one_unital_system_on_two_families(case):
    """An aE-unital X is its unit family F, its color family C and the
    unital W that is X on F and the empty set and the point elsewhere."""
    P, lists = _class_lists(case)
    unital = set(lists["unital"])
    everything = frozenset(P.orbit_classes)
    for which in ("aE_unital", "almost_unital"):
        triples = set()
        for X in lists[which]:
            fams = X.families()
            F, C = fams["unit"], fams["color"]
            assert F <= C and (which == "aE_unital" or C == everything)
            W = WeakIndexingSystem.from_sparse(P, {
                V: X.sparse_levels[V] if V in F else
                [P.empty_vset(V), P.star_vset(V)] for V in P.orbit_classes},
                validate=False)
            assert W in unital
            triples.add((F, C, W))
        assert len(triples) == len(lists[which])


@pytest.mark.parametrize("p", [2, 3])
def test_counts_over_chains_from_unital_counts(p):
    # u[k] is the unital count over C_{p^(k-1)}; u[0] = 1 stands for the
    # empty family, under which every class holds at most the point
    u = [1] + [len(enumerate_systems_fiberwise(chain_group(p, k)))
               for k in range(5)]
    assert u[1:3] == [2, 6]
    for n in range(5):
        P = chain_group(p, n)
        assert len(enumerate_systems_fiberwise(P, "aE_unital")) == \
            sum((n + 2 - k) * u[k] for k in range(n + 2))
        assert len(enumerate_systems_fiberwise(P, "almost_unital")) == \
            sum(u[k] for k in range(n + 2))


@pytest.mark.parametrize("make", [
    lambda: chain_group(2, 1), lambda: chain_group(3, 1),
    lambda: chain_group(2, 2), lambda: chain_group(3, 2),
    lambda: chain_group(2, 3), lambda: finite_group(s3_table(), name="S3"),
    diamond_semilattice, lambda: cyclic_group(2, 3), trivial_point,
    lambda: one_object_groupoid(2),
    pytest.param(lambda: finite_group(c6_table(), name="C6"),
                 marks=pytest.mark.slow),
], ids=["C2", "C3", "C4", "C9", "C8", "S3", "diamond", "C8-table", "point",
        "BG2", "C6"])
def test_indexing_systems_equal_the_searched_ones(make):
    P = make()
    searched = searched_indexing_systems(P)
    assert enumerate_systems(P, "indexing") == searched  # same order too
    assert enumerate_systems_fiberwise(P, "indexing") == searched


@pytest.mark.parametrize("make, count", [
    (lambda: finite_group(klein_table(), name="C2xC2"), 19),
    (lambda: finite_group(q8_table(), name="Q8"), 68),
    pytest.param(lambda: finite_group(a4_table(), name="A4"), 44,
                 marks=pytest.mark.slow),
], ids=["C2xC2", "Q8", "A4"])
def test_one_indexing_system_per_transfer_system(make, count):
    P = make()
    transfer = enumerate_transfer_systems(P)
    systems = enumerate_systems(P, "indexing")
    assert len(transfer) == len(systems) == count
    assert enumerate_systems_fiberwise(P, "indexing") == systems
    assert set(map(transfer_of, systems)) == set(transfer)
    for W in systems:
        WeakIndexingSystem.from_sparse(P, W.sparse_levels, validate=True)
        assert classify(W)["indexing"]


def test_point_and_groupoid_are_four_chains(PT, BG):
    for P in (PT, BG):
        systems = enumerate_systems(P, "aE_unital")
        assert len(systems) == 4
        for a, b in zip(systems, systems[1:]):
            assert leq(a, b) == "yes"
        poset = system_poset(systems)
        assert len(poset.covers()) == 3
        assert len(enumerate_systems(P, "unital")) == 2


def test_enumeration_is_deterministic(C2):
    first = enumerate_systems(C2, "aE_unital")
    second = enumerate_systems(C2, "aE_unital")
    assert first == second
    assert [system_label(W) for W in first] == \
        [system_label(W) for W in second]


def test_labels_name_the_constructions(C2, C4):
    assert system_label(f_zero(C2)) == "F^0[C_2,e]"
    assert system_label(f_complete(C4)) == "F[C_2,C_4,e]"
    W = fold_left(C2, ["e"])
    assert system_label(W) == "F^0+fold[e]"
    labels = [system_label(X) for X in enumerate_systems(C2, "aE_unital")]
    assert len(set(labels)) == 13


@pytest.mark.parametrize("n", [3, 4], ids=["C8", "C16"])
def test_labels_equal_the_library_scan(n):
    P = chain_group(2, n)
    listed = listed_label_library(P)
    systems = enumerate_systems_fiberwise(P)
    assert [system_label(W) for W in systems] == \
        [scanned_label(W, listed) for W in systems]
    assert [system_label(X) for X, _ in listed] == \
        [scanned_label(X, listed) for X, _ in listed]


def test_labelling_a_list_builds_the_label_table_once(monkeypatch):
    P = chain_group(2, 4)
    systems = enumerate_systems_fiberwise(P)
    # each build of the label table lists the families once
    builds = []
    listed = enumeration.enumerate_families
    monkeypatch.setattr(enumeration, "enumerate_families",
                        lambda Q: builds.append(Q) or listed(Q))
    labels = [system_label(W) for W in systems]
    assert system_poset(systems).labels == labels
    assert _label_library(P) is _label_library(P)
    assert builds == [P]


def test_the_first_of_equal_constructions_names_them(C2):
    # on the empty family all four constructions are the empty system
    empty = [make(C2, []) for make in (f_trivial, f_zero, f_infinity, f_complete)]
    assert all(W == empty[0] for W in empty)
    assert [system_label(W) for W in empty] == ["F^triv[]"] * 4
    assert _label_library(C2)[empty[0]] == "F^triv[]"
    # F^inf and F coincide on {e}, and F_max of the full transfer system is F
    assert system_label(f_complete(C2, ["e"])) == "F^inf[e]"
    full = enumerate_transfer_systems(C2)[-1]
    assert system_label(transfer_to_indexing(full)) == "F[C_2,e]"


def test_unnamed_systems_hash_stably(C4):
    systems = enumerate_systems(C4, "unital")
    hashed = [W for W in systems
              if system_label(W).startswith("W#")]
    assert hashed  # some fibers hold systems with no constructor name
    for W in hashed:
        assert system_label(W) == f"W#{content_hash(W)}"


def test_exact_generated_copies_get_the_same_label(C4):
    W = next(W for W in enumerate_systems(C4, "unital")
             if system_label(W).startswith("W#"))
    copy = WeakIndexingSystem.from_generators(
        C4, [S for V in C4.orbit_classes for S in sorted(W.sparse_levels[V])])
    assert copy.sparse_levels is None
    assert system_label(copy) == system_label(W)


def test_inexact_systems_have_no_label(C2):
    W = WeakIndexingSystem.from_generators(C2, [C2.star_vset("e").scale(2)])
    with pytest.raises(UnsupportedBackend):
        system_label(W)
    with pytest.raises(UnsupportedBackend):
        content_hash(W)
    with pytest.raises(UnsupportedBackend):
        system_poset([W, f_zero(C2)])
    with pytest.raises(UnsupportedBackend):
        system_poset([W, f_zero(C2)], labels=["a", "b"])


def test_system_poset_refuses_mixed_presentations(C2, C4):
    with pytest.raises(MixedPresentation):
        system_poset([f_zero(C2), f_zero(C4)], labels=["a", "b"])


@pytest.mark.parametrize("n", [3, 4], ids=["C8", "C16"])
def test_system_poset_is_sparse_containment(n):
    systems = enumerate_systems_fiberwise(chain_group(2, n))
    po = system_poset(systems, labels=[content_hash(W) for W in systems])
    assert all(po.leq(i, j) == (leq(Wi, Wj) == "yes")
               for i, Wi in enumerate(systems) for j, Wj in enumerate(systems))


def test_normalize_class_aliases():
    assert normalize_class("aE-unital") == "aE_unital"
    assert normalize_class("ae") == "aE_unital"
    assert normalize_class("Indexing_System") == "indexing"
    assert normalize_class("ALMOST-UNITAL") == "almost_unital"
    with pytest.raises(ValueError):
        normalize_class("complete")


def test_search_space_cap():
    # the unital search over C_16 has 2^25 candidates
    with pytest.raises(TooLarge):
        enumerate_systems(chain_group(2, 4), "aE_unital")


def test_fiberwise_needs_a_chain():
    S3 = finite_group(s3_table(), name="S3")
    with pytest.raises(UnsupportedBackend):
        enumerate_systems_fiberwise(S3, "aE_unital")


def test_fiberwise_height_four_count_is_prime_independent():
    assert len(enumerate_systems_fiberwise(chain_group(2, 4))) == 310
    assert len(enumerate_systems_fiberwise(chain_group(3, 4))) == 310


def _unital_poset(p, n):
    systems = enumerate_systems_fiberwise(chain_group(p, n))
    return system_poset(systems, labels=[str(i) for i in range(len(systems))])


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3),
                                  (3, 4), (5, 4), (3, 5)],
                         ids=["C9", "C25", "C49", "C27", "C125", "C81", "C625",
                              "C243"])
def test_unital_poset_is_prime_independent(p, n):
    """The poset of unital C_{p^n} systems is that of C_{2^n}: the mapping
    found is a bijection that carries the covers onto the covers."""
    two, other = _unital_poset(2, n), _unital_poset(p, n)
    mapping = two.isomorphic(other)
    assert mapping is not None and sorted(mapping) == list(range(len(two)))
    assert sorted((mapping[i], mapping[j]) for i, j in two.covers()) == \
        other.covers()


@pytest.mark.slow
def test_height_three_brute_equals_fiberwise(C8):
    for which in ("aE_unital", "unital", "almost_unital"):
        assert enumerate_systems(C8, which) == \
            enumerate_systems_fiberwise(C8, which)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_height_two_ae_unital_count(p):
    # the same count for every prime; C_25 was out of reach of full indexing
    assert len(enumerate_systems(chain_group(p, 2), "aE_unital")) == 43
