"""The closed sets of a rule; finite posets: the order checks, extremes,
covers and isomorphism."""
import itertools
import random
import sys
import time

import pytest

from helpers import (
    MatrixPoset, diamond_semilattice, pairwise_system_poset,
    permuted_isomorphism, q8_table, s3_table, walked_closed_sets,
)
from windex import (
    chain_group, enumerate_families, enumerate_transfer_systems, finite_group,
    leq, system_poset, transfer_codomain,
)
from windex import poset
from windex.enumeration import enumerate_systems, enumerate_systems_fiberwise
from windex.fibrations import _transfer_rule
from windex.poset import Poset, closed_sets, poset_from_covers
from windex.presentation import is_chain
from windex.sieves import _sieve_rule
from windex.systems import downward_closure


def _implication_rule(implications):
    """The rule of the implications (premise, conclusion): an item brings in
    the conclusion of each premise it completes."""
    def rule(x, present):
        return [y for premise, y in implications
                if x in premise and premise <= present]
    return rule


def test_closed_sets_match_the_walk_on_random_rules():
    rng = random.Random(17)
    for _ in range(200):
        items = rng.sample(range(20), rng.randint(0, 9))
        implications = [
            (frozenset(rng.sample(items, rng.randint(1, min(3, len(items))))),
             rng.choice(items))
            for _ in range(rng.randint(0, 2 * len(items)) if items else 0)]
        rule = _implication_rule(implications)
        assert closed_sets(items, rule) == walked_closed_sets(items, rule)


_RULE_GROUPS = {
    "C4": lambda: chain_group(2, 2), "C8": lambda: chain_group(2, 3),
    "C16": lambda: chain_group(2, 4),
    "S3": lambda: finite_group(s3_table(), name="S3"),
    "diamond": diamond_semilattice,
    "Q8": lambda: finite_group(q8_table(), name="Q8"),
}


@pytest.mark.parametrize("name", list(_RULE_GROUPS))
def test_closed_sets_match_the_walk_on_the_package_rules(name):
    """The family and transfer rules everywhere, and on chains the sieve
    rule of every (transfer system, family) pair."""
    P = _RULE_GROUPS[name]()
    strict = [(u, V) for V in P.orbit_classes
              for u in P.slice_keys(V) if u != P.star_key(V)]
    rules = [(list(P.orbit_classes),
              lambda V, present: downward_closure(P, [V])),
             (strict, _transfer_rule(P))]
    if is_chain(P):
        for R in enumerate_transfer_systems(P):
            for fam in enumerate_families(P):
                scope = transfer_codomain(R) - fam
                available = sorted((K, H) for K, H in R.strict() if H in scope)
                rules.append((available, _sieve_rule(P, R, scope)))
    for items, rule in rules:
        assert closed_sets(items, rule) == walked_closed_sets(items, rule)


def test_closed_sets_close_each_transfer_system_once(monkeypatch):
    # 5,537 closures over C_64 when every closed set stepped to every item
    calls = []
    engine = poset.closure
    monkeypatch.setattr(poset, "closure",
                        lambda *args: calls.append(1) or engine(*args))
    assert len(enumerate_transfer_systems(chain_group(2, 6))) == 429
    assert len(calls) <= 1800


def divides(a, b):
    return b % a == 0


def test_one_label_per_element():
    with pytest.raises(ValueError, match="one label per element"):
        Poset([1, 2], divides, labels=["one"])


def test_order_must_be_reflexive():
    with pytest.raises(ValueError, match="not reflexive"):
        Poset([1, 2], lambda a, b: a < b)


def test_order_must_be_antisymmetric():
    with pytest.raises(ValueError, match="not antisymmetric"):
        Poset([1, 2], lambda a, b: True)


def test_order_must_be_transitive():
    related = {(0, 1), (1, 2)}
    with pytest.raises(ValueError, match="not transitive"):
        Poset([0, 1, 2], lambda a, b: a == b or (a, b) in related)


@pytest.mark.parametrize("up, message", [
    ([0b10, 0b10], "not reflexive"),
    ([0b11, 0b11], "not antisymmetric"),
    ([0b011, 0b110, 0b100], "not transitive"),
    ([0b01], "one up-set per element"),
    ([0b101, 0b10], "one up-set per element"),
    ([-1, 0b10], "one up-set per element"),
], ids=["reflexive", "antisymmetric", "transitive", "short", "outside",
        "negative"])
def test_bad_up_set_masks_are_refused(up, message):
    with pytest.raises(ValueError, match=message):
        Poset.from_up_sets(range(2 if len(up) < 3 else 3), up)


def test_up_set_masks_need_one_label_per_element():
    with pytest.raises(ValueError, match="one label per element"):
        Poset.from_up_sets([1, 2], [0b11, 0b10], labels=["one"])


def test_bottom_and_top():
    divisors = Poset([1, 2, 3, 4, 6, 12], divides)
    assert (divisors.bottom(), divisors.top()) == (0, 5)
    antichain = Poset([2, 3], divides)
    assert (antichain.bottom(), antichain.top()) == (None, None)
    vee = Poset([1, 2, 3], divides)
    assert (vee.bottom(), vee.top()) == (0, None)
    wedge = Poset([2, 3, 6], divides)
    assert (wedge.bottom(), wedge.top()) == (None, 2)


@pytest.mark.parametrize("n, covers", [(2, 32), (3, 162)], ids=["C4", "C8"])
def test_poset_from_covers_gives_back_the_unital_poset(n, covers):
    po = system_poset(enumerate_systems_fiberwise(chain_group(2, n)))
    assert len(po.covers()) == covers
    rebuilt = poset_from_covers(
        po.labels, [(po.labels[i], po.labels[j]) for i, j in po.covers()])
    assert rebuilt.covers() == po.covers()
    size = range(len(po))
    assert all(rebuilt.leq(i, j) == po.leq(i, j) for i in size for j in size)


def test_poset_from_covers_takes_redundant_and_repeated_edges():
    # the covers, every other transitive edge, and half the covers again
    labels = [1, 2, 3, 4, 6, 9, 12, 18, 36]
    divisors = Poset(labels, divides)
    covers = [(labels[i], labels[j]) for i, j in divisors.covers()]
    edges = [(a, b) for a in labels for b in labels
             if a != b and divides(a, b) and (a, b) not in covers]
    edges = covers + edges[::2] + covers[::2]
    random.Random(36).shuffle(edges)
    rebuilt = poset_from_covers(labels, edges)
    size = range(len(labels))
    assert all(rebuilt.leq(i, j) == divisors.leq(i, j)
               for i in size for j in size)
    assert rebuilt.covers() == divisors.covers()


def test_isomorphic():
    chain = Poset([1, 2, 4], divides)
    vee = Poset([1, 2, 3], divides)
    assert chain.isomorphic(vee) is None
    assert Poset([2, 3, 6], divides).isomorphic(vee) is None
    shuffled = Poset([4, 1, 2], divides)
    mapping = chain.isomorphic(shuffled)
    assert mapping is not None
    assert all(chain.leq(i, j) == shuffled.leq(mapping[i], mapping[j])
               for i in range(3) for j in range(3))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_isomorphic_does_not_recurse_per_element():
    # 75 ranks of two incomparable elements each, and a shuffled copy
    def below(a, b):
        return a == b or a // 2 < b // 2

    elements = list(range(150))
    shuffled = elements[:]
    random.Random(150).shuffle(shuffled)
    ladder, copy = Poset(elements, below), Poset(shuffled, below)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        mapping = ladder.isomorphic(copy)
    finally:
        sys.setrecursionlimit(limit)
    assert mapping is not None
    assert all(copy.elements[mapping[i]] // 2 == i // 2 for i in elements)


def _random_poset(rng, n):
    """A seeded random order on n elements, numbered in a random order."""
    below = {(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.random() < rng.random()}
    for a, b, c in itertools.product(range(n), repeat=3):
        if (a, b) in below and (b, c) in below:
            below.add((a, c))
    return Poset(rng.sample(range(n), n),
                 lambda a, b: a == b or (a, b) in below)


def _profile(po):
    """The sorted (|up-set|, |down-set|) of the elements."""
    size = range(len(po))
    return tuple(sorted((sum(po.leq(i, j) for j in size),
                         sum(po.leq(j, i) for j in size)) for i in size))


def _assert_isomorphism(a, b, mapping):
    size = range(len(a))
    assert mapping is not None and sorted(mapping) == list(size)
    assert all(a.leq(i, j) == b.leq(mapping[i], mapping[j])
               for i in size for j in size)


def test_isomorphic_matches_permutation_oracle():
    """Pairs of random posets of at most six elements, most of them with
    equal (|up|, |down|) profiles, the colours the refinement starts from."""
    rng = random.Random(19)
    isomorphic = same_profile = 0
    for n in range(7):
        pool = [_random_poset(rng, n) for _ in range(800 if n == 6 else 60)]
        by_profile = {}
        for po in pool:
            by_profile.setdefault(_profile(po), []).append(po)
        pairs = [pair for group in by_profile.values()
                 for pair in itertools.combinations(group[:8], 2)]
        pairs += [tuple(rng.sample(pool, 2)) for _ in range(30)]
        for a, b in pairs:
            mapping, oracle = a.isomorphic(b), permuted_isomorphism(a, b)
            assert (mapping is None) == (oracle is None)
            if mapping is not None:
                _assert_isomorphism(a, b, mapping)
                isomorphic += 1
            elif _profile(a) == _profile(b):
                same_profile += 1
    assert isomorphic > 1000 and same_profile >= 5


def _product(*sizes):
    """The product of chains 0 < 1 < ... < size - 1, componentwise."""
    return list(itertools.product(*map(range, sizes))), \
        lambda a, b: all(x <= y for x, y in zip(a, b))


_HARD_CASES = {
    **{f"B{k}": lambda k=k: _product(*[2] * k) for k in range(4, 9)},
    "3^4": lambda: _product(3, 3, 3, 3),
    "5^3": lambda: _product(5, 5, 5),
    "ladder": lambda: (range(80), lambda a, b: a == b or a // 2 < b // 2),
    "antichain": lambda: (range(40), lambda a, b: a == b),
    "two_chains": lambda: ([(c, i) for c, size in enumerate((9, 6))
                            for i in range(size)],
                           lambda a, b: a[0] == b[0] and a[1] <= b[1]),
}


@pytest.mark.parametrize("name", list(_HARD_CASES))
def test_isomorphic_maps_shuffled_copies(name):
    # under 1 s each: checking covers alone, without whole up-sets and
    # down-sets at a choice, the search took 5.7 s over this B_8
    elements, order = _HARD_CASES[name]()
    elements = list(elements)
    shuffled = random.Random(name).sample(elements, len(elements))
    po, copy = Poset(elements, order), Poset(shuffled, order)
    start = time.perf_counter()
    mapping = po.isomorphic(copy)
    assert time.perf_counter() - start < 1.0
    _assert_isomorphism(po, copy, mapping)


def test_isomorphic_refuses_posets_that_colours_do_not_tell_apart():
    # a crown of eight elements and two crowns of four: each minimum has
    # two upper covers and each maximum two lower covers, so colour
    # refinement stops at (|up|, |down|); one Hasse diagram is connected
    def crowns(size, count):
        lows = [("low", c, i) for c in range(count) for i in range(size)]
        above = {(low, ("high", low[1], (low[2] + step) % size))
                 for low in lows for step in (0, 1)}
        highs = [("high", c, i) for c in range(count) for i in range(size)]
        return Poset(lows + highs, lambda a, b: a == b or (a, b) in above)

    one, two = crowns(4, 1), crowns(2, 2)
    assert _profile(one) == _profile(two)
    assert one.isomorphic(two) is None and two.isomorphic(one) is None
    assert one.isomorphic(crowns(4, 1)) is not None


def _relation(rng, n):
    """A seeded relation on range(n): a random order, sometimes with one
    pair added or removed, so that some relations fail the order checks."""
    below = {(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.random() < 0.3}
    for a, b, c in itertools.product(range(n), repeat=3):
        if (a, b) in below and (b, c) in below:
            below.add((a, c))
    rel = below | {(a, a) for a in range(n)}
    flip = rng.choice([None, "add", "drop"])
    pair = (rng.randrange(n), rng.randrange(n))
    if flip == "add":
        rel.add(pair)
    elif flip == "drop":
        rel.discard(pair)
    return rel


def test_order_checks_match_matrix_oracle():
    rng = random.Random(6)
    refused = 0
    for _ in range(300):
        rel = _relation(rng, 6)
        elements = rng.sample(range(6), 6)

        def order(a, b):
            return (a, b) in rel

        up = [sum(1 << k for k, b in enumerate(elements) if order(a, b))
              for a in elements]
        try:
            oracle = MatrixPoset(elements, order)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError) as called:
                Poset(elements, order)
            with pytest.raises(ValueError) as masked:
                Poset.from_up_sets(elements, up)
            assert str(masked.value) == str(called.value)
            continue
        for po in (Poset(elements, order), Poset.from_up_sets(elements, up)):
            assert po.covers() == oracle.covers()
            assert (po.bottom(), po.top()) == (oracle.bottom(), oracle.top())
    assert 0 < refused < 300


def _unital_systems(name):
    if name == "S3":
        return enumerate_systems(finite_group(s3_table(), name="S3"), "unital")
    if name == "diamond":
        return enumerate_systems(diamond_semilattice(), "unital")
    p, n = {"C4": (2, 2), "C9": (3, 2), "C8": (2, 3), "C16": (2, 4)}[name]
    return enumerate_systems_fiberwise(chain_group(p, n))


@pytest.mark.parametrize("name", ["C4", "C9", "C8", "C16", "S3", "diamond"])
def test_bitmask_poset_matches_matrix_oracle(name):
    systems = _unital_systems(name)
    size = range(len(systems))
    rel = [[leq(a, b) == "yes" for b in systems] for a in systems]

    def order(i, j):
        return rel[i][j]

    shuffled = list(size)
    random.Random(len(systems)).shuffle(shuffled)
    posets = []
    for elements in (list(size), shuffled):
        up = [sum(1 << k for k, b in enumerate(elements) if order(a, b))
              for a in elements]
        po, oracle = Poset(elements, order), MatrixPoset(elements, order)
        masked = Poset.from_up_sets(elements, up)
        for other in (po, masked):
            assert other.covers() == oracle.covers()
            assert (other.bottom(), other.top()) == (oracle.bottom(), oracle.top())
            assert all(other.leq(i, j) == oracle.leq(i, j)
                       for i in size for j in size)
        posets += [po, masked]
    for copy in posets[1:]:
        listed = posets[0]
        mapping = listed.isomorphic(copy)
        assert mapping is not None and sorted(mapping) == list(size)
        assert all(listed.leq(i, j) == copy.leq(mapping[i], mapping[j])
                   for i in size for j in size)


@pytest.mark.parametrize("n, covers", [(3, 162), (4, 800), (5, 3895)],
                         ids=["C8", "C16", "C32"])
def test_system_poset_matches_pairwise_oracle(n, covers):
    systems = enumerate_systems_fiberwise(chain_group(2, n))
    po = system_poset(systems, labels=[str(i) for i in range(len(systems))])
    oracle = pairwise_system_poset(systems)
    assert po.covers() == oracle.covers()
    assert len(po.covers()) == covers
    assert (po.bottom(), po.top()) == (oracle.bottom(), oracle.top())
