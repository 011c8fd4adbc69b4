"""Generators: exhaustive enumeration counts, determinism, random samplers."""

import random
from collections import Counter

import pytest

from oracles import double_factorial_odd, oracle_distribution
from surfops.census import (
    _face_count,
    cycle_decompositions,
    distribution_rows,
    enumerate_cyclic_words,
    enumerate_matchings,
    enumerate_surfaces,
    genus_distribution,
    random_diagram,
    random_surface,
)
from surfops.diagram import ChordDiagram, evaluate
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


def test_enumerate_cyclic_words():
    assert enumerate_cyclic_words([]) == [CyclicWord(())]
    assert enumerate_cyclic_words(["a"]) == [CyclicWord(("a",))]
    assert len(enumerate_cyclic_words(["a", "b", "c"])) == 2


def test_enumerate_matchings_counts():
    for n in range(4):
        assert len(enumerate_matchings(n)) == double_factorial_odd(n)
    with pytest.raises(ValueError):
        enumerate_matchings(-1)


def test_matchings_are_deterministic_and_distinct():
    first = enumerate_matchings(3)
    second = enumerate_matchings(3)
    assert first == second
    assert len(set(first)) == len(first)
    assert all(len(d.base) == 6 and len(d.arcs) == 3 for d in first)


def test_distribution_matches_oracle():
    for n in range(1, 4):
        assert genus_distribution(n) == oracle_distribution(n)


def _reference_pairings(points):
    """Every pairing of ``points`` by recursive concatenation: the construction the census replaced."""
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1 :]
        for sub in _reference_pairings(rest):
            yield [(first, points[i])] + sub


def _reference_matchings(n):
    base = tuple(glue(k) for k in range(1, 2 * n + 1))
    diagrams = (
        ChordDiagram._of(base, tuple((base[i - 1], base[j - 1]) for i, j in pairing))
        for pairing in _reference_pairings(tuple(range(1, 2 * n + 1)))
    )
    return sorted(diagrams, key=lambda d: d.arcs)


def test_matchings_equal_the_recursive_reference():
    for n in range(7):
        assert enumerate_matchings(n) == _reference_matchings(n)


def test_distribution_equals_evaluated_matchings():
    for n in range(7):
        dist = genus_distribution(n)
        evaluated = Counter(evaluate(d).genus for d in enumerate_matchings(n))
        assert (dist, list(dist)) == (evaluated, sorted(evaluated))


def test_distribution_of_no_and_one_chord():
    assert _face_count([]) == 1  # the empty base is one face
    assert _face_count([1, 0]) == 2
    assert genus_distribution(0) == {0: 1}
    assert genus_distribution(1) == {0: 1}
    with pytest.raises(ValueError):
        genus_distribution(-1)


def test_distribution_is_limited():
    for n in (10, 11, 10**12):
        with pytest.raises(ValueError, match=r"\(2n-1\)!! = .* it is limited to n <= 9"):
            genus_distribution(n)
    with pytest.raises(ValueError, match="= 654729075 matchings"):
        genus_distribution(10)


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
