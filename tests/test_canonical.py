"""Canonical presentations: template layout, counts, round trips."""

import random
import time
from itertools import combinations
from math import factorial, prod

import pytest

from surfops import canonical
from surfops.canonical import all_canonical_diagrams, canonical_diagram
from surfops.census import enumerate_surfaces, random_surface, surface_pool
from surfops.diagram import ChordDiagram, evaluate
from surfops.surface import Surface
from surfops.words import CyclicWord


def test_template_trivial_cases():
    expr = canonical_diagram(Surface.parse("{ ( 1 2 ) }^0"))
    assert expr.diagram == ChordDiagram(("1", "2"))
    assert expr.separating == () and expr.handles == ()


def test_template_three_discs():
    expr = canonical_diagram(Surface.parse("{ ( A ) ( B ) ( C ) }^0"))
    assert expr.diagram == ChordDiagram.parse("[ A #1 B #2 #3 C #4 ; (#1 #2) (#3 #4) ]")
    assert expr.separating == (("#1", "#2"), ("#3", "#4"))


def test_template_with_handle():
    expr = canonical_diagram(Surface.parse("{ ( 1 ) ( 2 ) }^1"))
    assert expr.diagram == ChordDiagram.parse(
        "[ 1 #1 2 #2 #3 #4 #5 #6 ; (#1 #2) (#3 #5) (#4 #6) ]"
    )
    assert expr.handles == (("#3", "#4", "#5", "#6"),)


def test_token_count_is_twice_grade():
    for q in enumerate_surfaces(["a", "b"], 2):
        expr = canonical_diagram(q)
        assert len(expr.diagram.tokens) == 2 * q.grade
        assert len(expr.diagram.arcs) == q.grade


def test_round_trip_small():
    for q in [
        Surface.parse("{ ( ) }^2"),
        Surface.parse("{ ( a b c ) }^1"),
        Surface.parse("{ ( ) ( ) ( x ) }^1"),
        Surface.parse("{ ( 1 2 ) ( 3 ) ( ) }^0"),
    ]:
        assert evaluate(canonical_diagram(q).diagram) == q


def test_all_expressions_counts():
    assert len(all_canonical_diagrams(Surface.parse("{ ( 1 2 ) }^0"))) == 2
    assert len(all_canonical_diagrams(Surface.parse("{ ( A ) ( B ) }^0"))) == 2
    assert len(all_canonical_diagrams(Surface.parse("{ ( ) }^1"))) == 1


def test_presentation_count_is_the_enumerated_count():
    pool = surface_pool(4, 2)
    rng = random.Random(14)
    pool += [random_surface(rng, ["a", "b", "c", "d"][:rng.randint(0, 4)], 1, 3) for _ in range(60)]
    pool += [Surface.parse("{ ( ) ( ) ( ) }^1"), Surface.parse("{ ( ) ( ) ( a b ) ( c ) }^0")]
    assert sum(q.cycles.count(CyclicWord(())) > 1 for q in pool) > 10
    for q in pool:
        # b!/e! cycle orders, the e empty cycles being alike, times each nonempty cycle's rotations
        empty = q.cycles.count(CyclicWord(()))
        rotations = prod(len(w.items) for w in q.cycles if w.items)
        assert factorial(len(q.cycles)) // factorial(empty) * rotations == len(all_canonical_diagrams(q))


def test_presentations_are_limited():
    # eight 3-label cycles: 8! * 3^8 presentations
    q = Surface.parse("{ ( a b c ) ( d e f ) ( g h i ) ( j k l ) ( m n o ) ( p q r ) ( s t u ) ( v w x ) }^0")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the surface has 264539520 canonical presentations; "
                                         "enumerating them is limited to 100000"):
        all_canonical_diagrams(q)
    # twelve empty cycles beside ( a b ): 13 * 2 presentations, without walking 13! permutations
    assert len(all_canonical_diagrams(Surface.parse("{ " + "( ) " * 12 + "( a b ) }^0"))) == 26
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("q, label", [
    (Surface([["#1", "a"]], 1), "#1"),
    (Surface([["#2"], ["a"]], 0), "#2"),
    (Surface([["b", "#3"], ["#1"]], 0), "#1"),
])
def test_glue_token_labels_are_refused(q, label):
    # Surface(...) takes glue tokens; a presentation would glue them to its own arcs
    for present in (canonical_diagram, all_canonical_diagrams):
        with pytest.raises(ValueError, match=f"label '{label}' is a glue token"):
            present(q)


def test_grade_is_limited_before_building(monkeypatch):
    monkeypatch.setattr(canonical, "_build", lambda genus, order: "built")
    at_limit = Surface([("a",)], 100_000)  # grade 200 000
    assert (canonical_diagram(at_limit), all_canonical_diagrams(at_limit)) == ("built", ["built"])

    def refuse(genus, order):
        raise AssertionError("the refused surface was laid out")

    monkeypatch.setattr(canonical, "_build", refuse)
    for present in (canonical_diagram, all_canonical_diagrams):
        with pytest.raises(ValueError, match="^the surface has grade 200001; "
                                             "a canonical presentation is limited to 200000 arcs$"):
            present(Surface([("a",), ("b",)], 100_000))


def test_glue_check_runs_once_per_surface(monkeypatch):
    calls = []
    monkeypatch.setattr(canonical, "is_glue", lambda item: calls.append(item) or False)
    q = Surface.parse("{ ( a b c ) ( d e ) }^1")
    assert len(all_canonical_diagrams(q)) == 12
    assert sorted(calls) == sorted(q.labels)


def test_all_expressions_round_trip():
    for q in [
        Surface.parse("{ ( a ) ( b c ) }^1"),
        Surface.parse("{ ( ) ( 1 ) }^0"),
        Surface.parse("{ ( x y z ) }^2"),
    ]:
        exprs = all_canonical_diagrams(q)
        assert canonical_diagram(q) in exprs
        for expr in exprs:
            assert evaluate(expr.diagram) == q


def test_annotation_mentions_structure():
    expr = canonical_diagram(Surface.parse("{ ( 1 ) ( 2 ) }^1"))
    text = expr.annotation()
    assert "separating" in text and "handles" in text
    assert "(#1 #2)" in text


def test_json_shape():
    data = canonical_diagram(Surface.parse("{ ( a ) }^1")).to_json()
    assert set(data) >= {"diagram", "separating", "handles"}


def test_round_trip_exhaustive_two_labels():
    labels = ["p", "q"]
    subsets = [c for size in range(3) for c in combinations(labels, size)]
    for subset in subsets:
        for q in enumerate_surfaces(subset, 2):
            assert evaluate(canonical_diagram(q).diagram) == q
