"""Chord diagrams: validation, parsing, evaluation, rendering."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import genus_boundary_of_matching
from surfops.census import enumerate_matchings, random_diagram
from surfops.diagram import ChordDiagram, evaluate, render_dot
from surfops.laws import SurfaceTarget, evaluate_expression
from surfops.lexer import ParseError, _ItemError
from surfops.surface import Surface, self_glue, to_surface
from surfops.words import CyclicWord


def test_evaluate_no_arcs():
    d = ChordDiagram(("1", "2", "3"))
    assert evaluate(d) == Surface.parse("{ ( 1 2 3 ) }^0")


def test_evaluate_crossing_pair():
    d = ChordDiagram.parse("[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]")
    assert evaluate(d) == Surface.parse("{ ( ) }^1")


def test_evaluate_nested_pair():
    d = ChordDiagram.parse("[ #1 #2 #3 #4 ; (#1 #2) (#3 #4) ]")
    assert evaluate(d) == Surface.parse("{ ( ) ( ) ( ) }^0")


def test_evaluate_separating_arc():
    d = ChordDiagram.parse("[ A #1 B #2 ; (#1 #2) ]")
    assert evaluate(d) == Surface.parse("{ ( A ) ( B ) }^0")


def test_evaluate_three_chords_with_labels():
    # word 1..8 with positions 2,3,5,6,7,8 glued as (2,5) (3,8) (6,7)
    d = ChordDiagram.parse("[ 1 #2 #3 4 #5 #6 #7 #8 ; (#2 #5) (#3 #8) (#6 #7) ]")
    out = evaluate(d)
    assert out == Surface.parse("{ ( ) ( 1 4 ) }^1")
    assert out.grade == 3


def test_evaluate_order_override():
    d = ChordDiagram.parse("[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]")
    folds = []
    for order in ([("#1", "#3"), ("#2", "#4")], [("#2", "#4"), ("#1", "#3")]):
        value = to_surface(CyclicWord(d.base))
        for x, y in order:
            value = self_glue(value, x, y)
        folds.append(value)
    forward, backward = folds
    assert forward == backward == evaluate(d)


def test_face_tracing_matches_the_fold():
    rng = random.Random(20261017)
    labelled = with_empty = 0
    for i in range(300):  # every third diagram holds a handle block
        d = random_diagram(rng, max_labels=6, max_arcs=7, ensure_handle=i % 3 == 0)
        traced = evaluate(d)
        assert traced == evaluate_expression(SurfaceTarget(), to_surface, d), str(d)
        labelled += bool(d.user_labels)
        with_empty += any(len(w) == 0 for w in traced.cycles)
    assert labelled > 100 and with_empty > 100


def test_large_matchings_against_oracle():
    n = 300
    chain = [(2 * i + 1, 2 * i + 2) for i in range(n)]
    points = list(range(1, 2 * n + 1))
    base = [f"#{k}" for k in points]
    random.Random(300).shuffle(points)
    shuffled = [(points[2 * i], points[2 * i + 1]) for i in range(n)]
    for pairs in (chain, shuffled):
        q = evaluate(ChordDiagram(base, [(f"#{i}", f"#{j}") for i, j in pairs]))
        assert (q.genus, q.boundary_count) == genus_boundary_of_matching(n, pairs)
        assert q.grade == n


def test_grade_equals_arc_count():
    for n in range(4):
        for d in enumerate_matchings(n):
            assert evaluate(d).grade == n


def test_parse_grammar():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    assert d.base == ChordDiagram(("a", "#1", "b", "#2"), [("#1", "#2")]).base
    assert d.arcs == (("#1", "#2"),)
    bare = ChordDiagram.parse("[ #1 #2 ; (#1 #2) ]")
    assert len(bare.base) == 2 and len(bare.arcs) == 1
    no_arcs = ChordDiagram.parse("[ a b ; ]")
    assert no_arcs.arcs == ()


def test_parse_error_unmatched_token():
    with pytest.raises(ParseError) as info:
        ChordDiagram.parse("[ a #1 ; ]")
    assert "never matched" in str(info.value)


def test_parse_error_cases():
    bad = [
        "[ a a ; ]",  # duplicate item
        "[ a #1 #2 ; (#1 #2) (#1 #2) ]",  # arc listed twice
        "[ #1 #2 ; (#1 #1) ]",  # self arc
        "[ #1 #2 ; (#1 #3) ]",  # arc endpoint not on the circle
        "[ #01 #2 ; (#01 #2) ]",  # leading zero in token
        "[ a ; ",  # unterminated
    ]
    for text in bad:
        with pytest.raises(ParseError):
            ChordDiagram.parse(text)


def test_str_round_trip():
    for text in [
        "[ a #1 b #2 ; (#1 #2) ]",
        "[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]",
        "[ x ; ]",
        "[ ; ]",
    ]:
        d = ChordDiagram.parse(text)
        assert ChordDiagram.parse(str(d)) == d


def test_base_equality_up_to_rotation():
    d1 = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    d2 = ChordDiagram.parse("[ b #2 a #1 ; (#1 #2) ]")
    assert d1 == d2


def test_token_rename_invariance():
    d = ChordDiagram.parse("[ a #1 b #2 #3 #4 ; (#1 #2) (#3 #4) ]")
    renamed = d.rename_tokens({"#1": "#7", "#2": "#9", "#3": "#5", "#4": "#6"})
    assert renamed != d
    assert evaluate(renamed) == evaluate(d)
    with pytest.raises(ValueError):
        d.rename_tokens({"#1": "#7"})


def test_arc_normalization():
    d = ChordDiagram(("#2", "#1"), [("#2", "#1")])
    assert d.arcs == (("#1", "#2"),)
    # arcs sorted numerically, not textually
    d2 = ChordDiagram(
        [f"#{k}" for k in range(1, 25)],
        [(f"#{k}", f"#{k + 12}") for k in range(1, 13)],
    )
    assert d2.arcs[1] == ("#2", "#14")
    huge = "#" + "9" * 5000  # past the digit limit of int(): ids are ordered without converting them
    assert ChordDiagram.parse(f"[ {huge} #10 ; ({huge} #10) ]").arcs == (("#10", huge),)


def test_validation_direct_construction():
    with pytest.raises(ValueError):
        ChordDiagram(("a", "#1"), [])
    with pytest.raises(ValueError):
        ChordDiagram(("#1", "#2", "#3"), [("#1", "#2")])
    with pytest.raises(ValueError):
        ChordDiagram(("#1", "#2"), [("#1", "#2"), ("#1", "#2")])


def test_render_dot_structure():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    text = render_dot(d)
    assert text.startswith("graph ")
    assert text.count("shape=point") == 2  # glue tokens
    assert text.count("constraint=false") == 1  # one chord
    assert "a" in text and "b" in text


def test_render_dot_escapes_quotes_and_backslashes():
    text = render_dot(ChordDiagram.parse('[ a"b #1 c\\d #2 e ; (#1 #2) ]'))
    assert 'n1 [label="c\\\\d", shape=circle];' in text
    assert 'n3 [label="e", shape=circle];' in text
    assert 'n4 [label="a\\"b", shape=circle];' in text


def test_render_dot_degenerate():
    assert "graph" in render_dot(ChordDiagram((), ()))
    assert render_dot(ChordDiagram(("x",), ()))
    # a two-item ring is one edge, not the same edge drawn twice
    assert render_dot(ChordDiagram.parse("[ #1 #2 ; (#1 #2) ]")) == """\
graph diagram {
  layout=circo;
  n0 [label="#1", shape=point];
  n1 [label="#2", shape=point];
  n0 -- n1;
  n0 -- n1 [constraint=false, style=dashed];
}
"""


@given(st.integers(0, 3), st.integers(0, 3))
def test_evaluate_indifferent_to_rotation(n, seed_rot):
    for d in enumerate_matchings(n)[:5]:
        rotated = ChordDiagram(d.base[seed_rot:] + d.base[:seed_rot], d.arcs)
        assert evaluate(rotated) == evaluate(d)


def test_constructor_rejects_a_bare_string():
    # a string is a sequence of characters, never of items
    with pytest.raises(ValueError, match="got the string 'ab'"):
        ChordDiagram("ab", ())


def test_constructor_errors_take_the_parser_wording():
    cases = [
        ((("a", "b", "a"), ()), "item 'a' occurs twice in the base"),
        ((("#1", "#2"), [("#1", "#3")]), "arc token #3 does not occur in the base"),
        ((("#1", "#2"), [("#1", "#1")]), "token #1 occurs in more than one arc"),
        ((("#1", "#2", "#3"), [("#1", "#2")]), "token #3 is never matched by an arc"),
        ((("a", "#1"), [("a", "#1")]), "arcs join glue tokens, got \\('a' '#1'\\)"),
        ((("#1", "#2"), [(["#1"], "#2")]), "arcs join glue tokens, got \\(\\['#1'\\] '#2'\\)"),
        ((("#1", "#2"), [("#1", "#2", "#3")]), "^arc must be a pair of tokens, got \\('#1', '#2', '#3'\\)$"),
        ((("#1", "#2"), [("#1",)]), "^arc must be a pair of tokens, got \\('#1',\\)$"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            ChordDiagram(*args)
    # a malformed arc is reported at its first endpoint's index, after the base items
    with pytest.raises(_ItemError) as info:
        ChordDiagram(("#1", "#2", "#3", "#4"), [("#1", "#2"), ("#3",)])
    assert info.value.index == 4 + 2 * 1
