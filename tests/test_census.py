"""Generators: exhaustive enumeration counts, determinism, random samplers."""

import random
import re
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import comb, factorial

import pytest

from oracles import all_pair_partitions, catalan, double_factorial_odd, oracle_distribution
from surfops import census, laws
from surfops.census import (
    cycle_decompositions,
    distribution_rows,
    enumerate_cyclic_words,
    enumerate_matchings,
    enumerate_surfaces,
    genus_distribution,
    label_subsets,
    random_diagram,
    random_surface,
    surface_pool,
    word_pool,
)
from surfops.diagram import ChordDiagram, _genus, _partner, evaluate
from surfops.laws import TerminalElement, terminal_pool
from surfops.surface import Surface
from surfops.words import CyclicWord, glue, is_glue


def test_enumerate_surfaces_counts():
    assert enumerate_surfaces(["1"], 0) == [Surface([("1",)], 0)]
    assert len(enumerate_surfaces(["1", "2"], 0)) == 2
    assert enumerate_surfaces([], 1) == [Surface([()], 0), Surface([()], 1)]


def test_enumerate_surfaces_no_duplicates():
    family = enumerate_surfaces(["a", "b", "c"], 2)
    assert len(family) == len(set(family))
    assert family == sorted(family, key=lambda q: (q.genus, str(q)))
    # 3 labels have 6 cyclic partitions; three genus choices each
    assert len(family) == 6 * 3


def test_cycle_decompositions():
    decomps = list(cycle_decompositions(["x", "y"]))
    assert len(decomps) == 2
    assert (("x", "y"),) in decomps
    assert (("x",), ("y",)) in decomps
    assert list(cycle_decompositions([])) == [()]  # one arrangement: no cycles


def test_cycle_decompositions_order_is_pinned():
    assert list(cycle_decompositions(["c", "a", "b"])) == [
        (("a",), ("b",), ("c",)), (("a",), ("b", "c")), (("a", "b"), ("c",)),
        (("a", "b", "c"),), (("a", "c", "b"),), (("a", "c"), ("b",)),
    ]


def test_enumerators_share_one_label_set():
    # a repeated label is one label, as enumerate_surfaces already read it
    assert list(cycle_decompositions(["a", "a"])) == [(("a",),)]
    assert enumerate_surfaces(["a", "a"], 0) == [Surface([("a",)], 0)]
    assert enumerate_cyclic_words(["b", "a", "b"]) == [CyclicWord(("a", "b"))]
    for enumerate_labels in (cycle_decompositions, enumerate_cyclic_words, lambda ls: enumerate_surfaces(ls, 0)):
        with pytest.raises(ValueError, match="contains whitespace"):
            list(enumerate_labels(["a b"]))
        with pytest.raises(ValueError, match="reserved character"):
            list(enumerate_labels(["a", "#1"]))
        for labels, bad in [([1, "a"], "1"), (["a", 2], "2"), (["a", None], "None")]:
            # checked before the sort, where a label that is not a string would escape as a TypeError
            with pytest.raises(ValueError, match=f"^labels are nonempty strings, got {bad}$"):
                list(enumerate_labels(labels))


@pytest.mark.parametrize("count", [True, False, 2.0, "3", None])
def test_count_arguments_refuse_non_integers(count):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(count))}$"):
        genus_distribution(count)
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(count))}$"):
        enumerate_matchings(count)
    with pytest.raises(ValueError, match=f"^max_g must be an integer, got {re.escape(repr(count))}$"):
        enumerate_surfaces(["a"], count)


def test_negative_counts_keep_their_texts():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        genus_distribution(-1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        enumerate_matchings(-2)
    with pytest.raises(ValueError, match="^max_g must be nonnegative$"):
        enumerate_surfaces(["a"], -1)


def test_enumerate_cyclic_words():
    assert enumerate_cyclic_words([]) == [CyclicWord(())]
    assert enumerate_cyclic_words(["a"]) == [CyclicWord(("a",))]
    assert len(enumerate_cyclic_words(["a", "b", "c"])) == 2


def test_enumerate_matchings_counts():
    for n in range(4):
        assert len(enumerate_matchings(n)) == double_factorial_odd(n)
    with pytest.raises(ValueError):
        enumerate_matchings(-1)


def test_matchings_are_limited(monkeypatch):
    def refuse(m):
        raise AssertionError("the refused list enumerated matchings")

    monkeypatch.setattr(census, "_pairings", refuse)
    with pytest.raises(ValueError, match=r"^the diagram list of n = 8 chords would enumerate \(2n-1\)!! = 2027025 "
                                         r"matchings; it is limited to n <= 7$"):
        enumerate_matchings(8)
    with pytest.raises(ValueError, match=r"\(2n-1\)!! = more than .* it is limited to n <= 7"):
        enumerate_matchings(10**6)


def test_partner_of_a_matching_is_an_involution_along_its_arcs():
    for n in range(6):
        for d in enumerate_matchings(n):
            partner = _partner(d)
            index = {item: i for i, item in enumerate(d.base)}
            assert all(partner[p] != p and partner[partner[p]] == p for p in range(2 * n))
            assert all(partner[index[x]] == index[y] for x, y in d.arcs)


_EULER_UNDER_O = """
from surfops.diagram import _genus

assert False, "asserts must be off"  # stripped by -O
for arcs, faces in ((2, 2), (1, 4)):
    try:
        _genus(arcs, faces)
    except AssertionError as exc:
        print("caught:", exc)
"""


def test_euler_step():
    assert [_genus(0, 1), _genus(2, 3), _genus(2, 1), _genus(5, 2)] == [0, 0, 1, 2]
    with pytest.raises(AssertionError, match="^2 arcs and 2 faces break the Euler characteristic$"):
        _genus(2, 2)  # odd 2g
    with pytest.raises(AssertionError, match="^1 arcs and 4 faces break the Euler characteristic$"):
        _genus(1, 4)  # negative 2g
    proc = subprocess.run([sys.executable, "-O", "-c", _EULER_UNDER_O], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["caught: 2 arcs and 2 faces break the Euler characteristic",
                                        "caught: 1 arcs and 4 faces break the Euler characteristic"]


def test_matchings_are_deterministic_and_distinct():
    first = enumerate_matchings(3)
    second = enumerate_matchings(3)
    assert first == second
    assert len(set(first)) == len(first)
    assert all(len(d.base) == 6 and len(d.arcs) == 3 for d in first)


def test_distribution_matches_oracle():
    for n in range(1, 4):
        assert genus_distribution(n) == oracle_distribution(n)


def _reference_matchings(n):
    base = tuple(glue(k) for k in range(1, 2 * n + 1))
    diagrams = (
        ChordDiagram._of(base, tuple((base[i - 1], base[j - 1]) for i, j in pairing))
        for pairing in all_pair_partitions(list(range(1, 2 * n + 1)))
    )
    return sorted(diagrams, key=lambda d: d.arcs)


def test_matchings_equal_the_recursive_reference():
    for n in range(7):
        assert enumerate_matchings(n) == _reference_matchings(n)


def test_matchings_are_the_fixed_point_free_involutions():
    # brute force, independent of any pairing recursion: every permutation of the 2n points, kept if it pairs them
    for n in range(5):
        base = tuple(glue(k) for k in range(1, 2 * n + 1))
        involutions = sorted(tuple((base[i], base[j]) for i, j in enumerate(image) if i < j)
                             for image in permutations(range(2 * n))
                             if all(image[i] != i and image[image[i]] == i for i in range(2 * n)))
        assert [d.arcs for d in enumerate_matchings(n)] == involutions


def test_distribution_equals_evaluated_matchings():
    for n in range(7):
        dist = genus_distribution(n)
        evaluated = Counter(evaluate(d).genus for d in enumerate_matchings(n))
        assert (dist, list(dist)) == (evaluated, sorted(evaluated))


def test_distribution_of_no_and_one_chord():
    assert genus_distribution(0) == {0: 1}
    assert genus_distribution(1) == {0: 1}
    with pytest.raises(ValueError):
        genus_distribution(-1)


def test_distribution_is_limited():
    for n in (1001, 1002, 10**12):
        with pytest.raises(ValueError, match=f"^the census of n = {n} chords is limited to n <= 1000, which keeps "
                                             r"its total \(2n-1\)!! inside Python's 4300-digit limit for printing "
                                             "an int$"):
            genus_distribution(n)


def test_distribution_satisfies_the_generating_identity():
    # Harer-Zagier: sum_g eps_g(n) N^(n+1-2g) = (2n-1)!! sum_{k=1..N} 2^(k-1) C(n, k-1) C(N, k)
    for n in range(301):
        dist = genus_distribution(n)
        for big_n in range(1, 9):
            lhs = sum(count * big_n ** (n + 1 - 2 * g) for g, count in dist.items())
            rhs = double_factorial_odd(n) * sum(2 ** (k - 1) * comb(n, k - 1) * comb(big_n, k)
                                                for k in range(1, big_n + 1))
            assert lhs == rhs, (n, big_n)


def test_distribution_at_the_limit():
    dist = genus_distribution(1000)
    assert list(dist) == list(range(501))
    assert dist[0] == catalan(1000)
    assert sum(dist.values()) == double_factorial_odd(1000)


def test_distribution_enumerates_no_matching(monkeypatch):
    def refuse(m):
        raise AssertionError("the census enumerated matchings")

    monkeypatch.setattr(census, "_pairings", refuse)
    assert genus_distribution(9) == {0: 4862, 1: 291720, 2: 4390386, 3: 17454580, 4: 12317877}


def test_distribution_builds_no_diagram_word_or_surface(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the census built a per-matching object")

    for cls, name in [(ChordDiagram, "_of"), (ChordDiagram, "__init__"), (Surface, "_of"), (CyclicWord, "_of")]:
        monkeypatch.setattr(cls, name, refuse)
    assert genus_distribution(5) == oracle_distribution(5)


def test_distribution_rows_format():
    assert distribution_rows(genus_distribution(2)) == "g=0: 2\ng=1: 1\ntotal: 3"


def test_random_surface_shape():
    rng = random.Random(5)
    for _ in range(50):
        q = random_surface(rng, ["a", "b", "c"], max_g=2, max_extra_empty=2)
        assert q.labels == frozenset({"a", "b", "c"})
        assert 0 <= q.genus <= 2
        assert q.boundary_count <= 5
    empty = random_surface(rng, [], max_g=1)
    assert empty.labels == frozenset()
    assert empty.boundary_count >= 1


def test_random_diagram_shape():
    rng = random.Random(6)
    for i in range(60):
        d = random_diagram(rng, max_labels=4, max_arcs=5, ensure_handle=i % 2 == 0)
        assert len(d.tokens) == 2 * len(d.arcs)
        assert evaluate(d).grade == len(d.arcs)
        if i % 2 == 0:
            assert len(d.arcs) >= 2


def test_random_diagram_handle_block_present():
    rng = random.Random(7)
    d = random_diagram(rng, max_labels=0, max_arcs=2, ensure_handle=True)
    seq = d.base
    found = False
    for k in range(len(seq)):
        window = tuple(seq[(k + i) % len(seq)] for i in range(4))
        if all(is_glue(t) for t in window):
            pairs = {frozenset((window[0], window[2])), frozenset((window[1], window[3]))}
            if pairs <= {frozenset(arc) for arc in d.arcs}:
                found = True
    assert found


def test_seeded_reproducibility():
    a = random_diagram(random.Random(42), max_labels=5, max_arcs=5)
    b = random_diagram(random.Random(42), max_labels=5, max_arcs=5)
    assert a == b
    qa = random_surface(random.Random(42), ["x", "y"], 3, 1)
    qb = random_surface(random.Random(42), ["x", "y"], 3, 1)
    assert qa == qb
    # the argument checks draw nothing from the generator, so these seeded draws are fixed
    assert str(random_diagram(random.Random(42), max_labels=8, max_arcs=3, ensure_handle=True)) == (
        "[ #1 #3 #5 #6 a #2 #4 ; (#1 #5) (#2 #6) (#3 #4) ]")
    assert str(random_diagram(random.Random(1), max_labels=8)) == "[ #1 c #2 b ; (#1 #2) ]"
    assert str(random_surface(random.Random(42), ["x", "y", "z"], 3, 2)) == "{ ( y ) ( x z ) }^1"


def test_random_diagram_label_bound_does_not_depend_on_the_seed():
    for seed in range(200):
        d = random_diagram(random.Random(seed), max_labels=8)
        assert len(d.user_labels) <= 8
        with pytest.raises(ValueError, match="^max_labels must be from 0 to 8, got 9$"):
            random_diagram(random.Random(seed), max_labels=9)


@pytest.mark.parametrize("call, text", [
    (lambda rng: random_diagram(rng, max_labels=9), "max_labels must be from 0 to 8, got 9"),
    (lambda rng: random_diagram(rng, max_labels=-1), "max_labels must be from 0 to 8, got -1"),
    (lambda rng: random_diagram(rng, max_labels=2.5), "max_labels must be an integer, got 2.5"),
    (lambda rng: random_diagram(rng, max_arcs=-1), "max_arcs must be nonnegative"),
    (lambda rng: random_diagram(rng, max_arcs=2.5), "max_arcs must be an integer, got 2.5"),
    (lambda rng: random_diagram(rng, max_arcs=True), "max_arcs must be an integer, got True"),
    (lambda rng: random_surface(rng, ["a"], -1), "max_g must be nonnegative"),
    (lambda rng: random_surface(rng, ["a"], 1.0), "max_g must be an integer, got 1.0"),
    (lambda rng: random_surface(rng, ["a"], 1, -1), "max_extra_empty must be nonnegative"),
    (lambda rng: random_surface(rng, ["a"], 1, "2"), "max_extra_empty must be an integer, got '2'"),
])
def test_random_generators_refuse_bad_bounds_before_drawing(call, text):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("count", [True, 2.5, "3"])
def test_label_subsets_refuses_non_integers(count):
    with pytest.raises(ValueError, match=f"^max_labels must be an integer, got {re.escape(repr(count))}$"):
        label_subsets(count)


def test_label_subsets_refuses_a_negative_count():
    # it yielded the empty set alone, so the envelope check over it reported PASS
    with pytest.raises(ValueError, match="^max_labels must be nonnegative$"):
        label_subsets(-1)
    assert list(label_subsets(0)) == [()]
    assert list(label_subsets(2)) == [(), ("1",), ("2",), ("1", "2")]


def test_pools_follow_label_subsets_order():
    subsets = [(), ("1",), ("2",), ("1", "2")]
    assert surface_pool(2, 1) == [q for labels in subsets for q in enumerate_surfaces(labels, 1)]
    assert word_pool(2) == [w for labels in subsets for w in enumerate_cyclic_words(labels)]
    assert terminal_pool(2, 0) == [TerminalElement(frozenset(labels), g) for labels in subsets for g in (0, 1)]


def test_pool_lengths_are_their_formulas():
    for n in range(6):
        assert len(word_pool(n)) == sum(comb(n, k) * factorial(max(k - 1, 0)) for k in range(n + 1))
        for g in range(3):
            assert len(surface_pool(n, g)) == sum(comb(n, k) * factorial(k) for k in range(n + 1)) * (g + 1)
            assert len(terminal_pool(n, g)) == 2**n * (2 * g + 2)
    assert (len(surface_pool(4, 2)), len(surface_pool(5, 2))) == (195, 978)
    assert len(terminal_pool(6, 6)) == 896  # the largest terminal pool on 6 labels


@pytest.mark.parametrize("build, pool, size", [
    (lambda: surface_pool(7, 0), "surface pool of max_labels = 7, max_g = 0", "13700"),
    (lambda: surface_pool(6, 0), "surface pool of max_labels = 6, max_g = 0", "1957"),
    (lambda: surface_pool(10**9, 1), "surface pool of max_labels = 1000000000, max_g = 1", "more than 27400"),
    (lambda: surface_pool(3, 10**9), "surface pool of max_labels = 3, max_g = 1000000000", "16000000016"),
    (lambda: word_pool(7), "word pool of max_labels = 7", "2373"),
    (lambda: terminal_pool(6, 7), "terminal pool of max_labels = 6, max_g = 7", "1024"),
    (lambda: terminal_pool(8, 0), "terminal pool of max_labels = 8, max_g = 0", "more than 256"),
    (lambda: terminal_pool(10**9, 10**9), "terminal pool of max_labels = 1000000000, max_g = 1000000000",
     "more than 256000000256"),
])
def test_pools_are_limited_before_building(monkeypatch, build, pool, size):
    def refuse(*args):
        raise AssertionError("the refused pool was built")

    for module, name in [(census, "label_subsets"), (census, "enumerate_surfaces"),
                         (census, "enumerate_cyclic_words"), (laws, "TerminalElement")]:
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="was built"):
        surface_pool(1, 0)  # the builders do go through the refusing stand-ins
    with pytest.raises(ValueError, match=f"^the {pool} would hold {size} elements; "
                                         f"pools are limited to 1000 elements on at most 6 labels$"):
        build()
