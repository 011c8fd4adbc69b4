"""Rewriting moves: soundness on examples, search for certificates."""

import random
import re
from collections import Counter

import pytest

from oracles import is_handle, successor_bases
from surfops.census import enumerate_matchings, random_diagram
from surfops.diagram import ChordDiagram, evaluate
from surfops.surface import Surface
from surfops.rewrite import (
    BoundaryMove,
    HandleMove,
    RotateMove,
    apply_move,
    apply_moves,
    equivalent,
    find_certificate,
    neighbors,
)


def test_rotate_swaps_segment():
    d = ChordDiagram.parse("[ A B #1 C #2 ; (#1 #2) ]")
    out = apply_move(d, RotateMove(("#1", "#2"), 0, 1))
    assert out == ChordDiagram.parse("[ B A #1 C #2 ; (#1 #2) ]")
    assert evaluate(out) == evaluate(d)


def test_rotate_identity():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    assert apply_move(d, RotateMove(("#1", "#2"), 0, 0)) == d


def test_rotate_composes():
    d = ChordDiagram.parse("[ p q r #1 s t #2 ; (#1 #2) ]")
    once = apply_move(apply_move(d, RotateMove(("#1", "#2"), 1, 1)), RotateMove(("#1", "#2"), 1, 1))
    at_once = apply_move(d, RotateMove(("#1", "#2"), 2, 2))
    assert once == at_once


def test_rotate_by_negative_amounts_inverts():
    d = ChordDiagram.parse("[ p q r #1 s t #2 ; (#1 #2) ]")
    there = apply_move(d, RotateMove(("#1", "#2"), 1, 2))
    assert apply_move(there, RotateMove(("#1", "#2"), -1, -2)) == d


def test_rotate_with_crossing_arc():
    # the unchosen arc crosses the pivot; rotation must still preserve the value
    d = ChordDiagram.parse("[ #1 a #3 b #4 #2 ; (#3 #4) (#1 #2) ]")
    for k1 in range(2):
        for k2 in range(4):
            out = apply_move(d, RotateMove(("#3", "#4"), k1, k2))
            assert evaluate(out) == evaluate(d)


def test_rotate_requires_arc():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    with pytest.raises(ValueError):
        apply_move(d, RotateMove(("#1", "#3"), 1, 0))


def test_boundary_move_example():
    d = ChordDiagram.parse("[ #1 1 #2 2 3 ; (#1 #2) ]")
    out = apply_move(d, BoundaryMove("#1", "#2", "2"))
    assert out == ChordDiagram.parse("[ 2 #1 1 #2 3 ; (#1 #2) ]")
    assert evaluate(out) == evaluate(d) == Surface.parse("{ ( 2 3 ) ( 1 ) }^0")


def test_boundary_move_identity_positions():
    d = ChordDiagram.parse("[ #1 #2 1 ; (#1 #2) ]")
    # moving the whole segment after the only outside item is a cyclic identity
    assert apply_move(d, BoundaryMove("#1", "#2", "1")) == d
    with pytest.raises(ValueError):
        apply_move(d, BoundaryMove("#1", "#2", "9"))


def test_handle_move_example():
    d = ChordDiagram.parse("[ #1 #2 #3 #4 1 2 ; (#1 #3) (#2 #4) ]")
    out = apply_move(d, HandleMove(("#1", "#2", "#3", "#4"), "1"))
    assert out == ChordDiagram.parse("[ 1 #1 #2 #3 #4 2 ; (#1 #3) (#2 #4) ]")
    assert evaluate(out) == evaluate(d) == Surface.parse("{ ( 1 2 ) }^1")


def test_handle_move_bare_circle():
    d = ChordDiagram.parse("[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]")
    assert apply_move(d, HandleMove(("#1", "#2", "#3", "#4"), None)) == d


def test_handle_move_preconditions():
    d = ChordDiagram.parse("[ #1 #2 #3 #4 1 ; (#1 #2) (#3 #4) ]")
    with pytest.raises(ValueError, match="tokens #1 #2 #3 #4 are not a handle block of the diagram"):
        apply_move(d, HandleMove(("#1", "#2", "#3", "#4"), "1"))  # arcs not interleaved
    handle = ChordDiagram.parse("[ #1 #2 #3 #4 1 ; (#1 #3) (#2 #4) ]")
    wrong = [("#1", "#2", "#3"), ("#1", "#2", "#3", "#4", "1"), ("#1", "#2", "#3", "#9"), ("#3", "#4", "#1", "#2")]
    for tokens in wrong:
        with pytest.raises(ValueError, match=" are not a handle block of the diagram"):
            apply_move(handle, HandleMove(tokens, "1"))
    with pytest.raises(ValueError, match="insertion point '9' is not outside the segment"):
        apply_move(handle, HandleMove(("#1", "#2", "#3", "#4"), "9"))


def test_move_handle_accepts_exactly_the_oracle_handles():
    rng = random.Random(20261020)
    diagrams = [random_diagram(rng, max_labels=6, max_arcs=6, ensure_handle=i % 2 == 0) for i in range(300)]
    diagrams += enumerate_matchings(2)  # bases of exactly four tokens
    handles = refused = 0
    for d in diagrams:
        n = len(d.base)
        successors = {move: s for move, s in neighbors(d) if isinstance(move, HandleMove)}
        for i in range(n if n >= 4 else 0):
            window = tuple(d.base[(i + t) % n] for t in range(4))
            outside = [d.base[(i + t) % n] for t in range(4, n)]
            if is_handle(window, d.arcs):
                handles += 1
                # after the item just before the block is where it already is
                assert apply_move(d, HandleMove(window, outside[-1] if outside else None)) == d
                for after in outside[:-1]:
                    assert apply_move(d, HandleMove(window, after)) == successors.pop(HandleMove(window, after))
            else:
                refused += 1
                with pytest.raises(ValueError, match=" are not a handle block of the diagram"):
                    apply_move(d, HandleMove(window, outside[0] if outside else None))
        assert successors == {}, d  # every handle move of neighbors was reached from an oracle handle
    assert handles > 150 and refused > 1000


def test_moves_sound_on_random_diagrams():
    rng = random.Random(20260817)
    for i in range(300):
        d = random_diagram(rng, max_labels=6, max_arcs=6, ensure_handle=i % 2 == 0)
        value = evaluate(d)
        for move, successor in neighbors(d):
            assert successor == apply_move(d, move)
            assert evaluate(successor) == value, f"{move} broke {d}"


def _up_to_rotation(items):
    return min(tuple(items[k:]) + tuple(items[:k]) for k in range(max(1, len(items))))


def test_neighbors_match_the_successor_oracle():
    rng = random.Random(20261019)
    with_handle_moves = 0
    for i in range(300):
        d = random_diagram(rng, max_labels=6, max_arcs=6, ensure_handle=i % 2 == 0)
        successors = list(neighbors(d))
        assert all(s.arcs == d.arcs for _, s in successors)
        got = Counter(_up_to_rotation(s.base) for _, s in successors)
        want = Counter(map(_up_to_rotation, successor_bases(list(d.base), list(d.arcs))))
        assert got == want, d
        with_handle_moves += any(isinstance(move, HandleMove) for move, _ in successors)
    assert with_handle_moves > 100


def test_certificate_identical():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    assert find_certificate(d, d, max_depth=2) == []


def test_certificate_one_move():
    d1 = ChordDiagram.parse("[ A B #1 C #2 ; (#1 #2) ]")
    d2 = ChordDiagram.parse("[ B A #1 C #2 ; (#1 #2) ]")
    cert = find_certificate(d1, d2, max_depth=2)
    assert cert is not None and len(cert) == 1
    assert apply_moves(d1, cert) == d2
    assert equivalent(d1, d2)


def test_certificate_replay():
    d1 = ChordDiagram.parse("[ #1 x #2 y z #3 #4 ; (#1 #2) (#3 #4) ]")
    rng = random.Random(11)
    d2 = d1
    for _ in range(3):
        options = list(neighbors(d2))
        if not options:
            break
        d2 = rng.choice(options)[1]
    cert = find_certificate(d1, d2, max_depth=4)
    assert cert is not None
    assert apply_moves(d1, cert) == d2


def test_certificate_absent_for_inequivalent():
    crossing = ChordDiagram.parse("[ #1 #2 #3 #4 ; (#1 #3) (#2 #4) ]")
    nesting = ChordDiagram.parse("[ #1 #2 #3 #4 ; (#1 #2) (#3 #4) ]")
    assert not equivalent(crossing, nesting)
    assert find_certificate(crossing, nesting, max_depth=5) is None


def test_certificate_none_when_items_differ():
    d1 = ChordDiagram.parse("[ a ; ]")
    d2 = ChordDiagram.parse("[ b ; ]")
    assert find_certificate(d1, d2, max_depth=3) is None


def test_move_str_forms():
    d = ChordDiagram.parse("[ #1 a #2 b c ; (#1 #2) ]")
    texts = [str(move) for move, _ in neighbors(d)]
    assert any(t.startswith("main(") for t in texts)
    assert any(t.startswith("boundary(") for t in texts)


def test_certificate_search_stops_on_an_empty_frontier():
    # equivalent layouts on the same items and arcs, and neither has a single-move successor
    d1 = ChordDiagram.parse("[ #1 #2 a ; (#1 #2) ]")
    d2 = ChordDiagram.parse("[ #1 a #2 ; (#1 #2) ]")
    assert equivalent(d1, d2) and d1 != d2
    assert list(neighbors(d1)) == [] and list(neighbors(d2)) == []
    assert find_certificate(d1, d2, max_depth=10**6) is None


@pytest.mark.parametrize("depth", [True, 2.5, "3"])
def test_certificate_depth_refuses_non_integers(depth):
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    with pytest.raises(ValueError, match=f"^max_depth must be an integer, got {re.escape(repr(depth))}$"):
        find_certificate(d, d, max_depth=depth)


def test_certificate_depth_refuses_a_negative_value():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    with pytest.raises(ValueError, match="^max_depth must be nonnegative$"):
        find_certificate(d, d, max_depth=-1)
    assert find_certificate(d, d, max_depth=0) == []


def test_handle_move_str():
    block = ("#1", "#2", "#3", "#4")
    assert str(HandleMove(block, "a")) == "handle(#1#2#3#4 -> after a)"
    assert str(HandleMove(block, None)) == "handle(#1#2#3#4 -> after (in place))"


def test_apply_move_refuses_a_non_move():
    d = ChordDiagram.parse("[ a #1 b #2 ; (#1 #2) ]")
    with pytest.raises(TypeError, match="^not a move: 'x'$"):
        apply_move(d, "x")


def test_boundary_move_in_place_with_nothing_outside():
    d = ChordDiagram.parse("[ #1 #2 ; (#1 #2) ]")
    assert apply_move(d, BoundaryMove("#1", "#2", None)) is d


ONE_ARC = ChordDiagram.parse("[ #1 a #2 b c ; (#1 #2) ]")
ONE_HANDLE = ChordDiagram.parse("[ #1 #2 #3 #4 1 2 ; (#1 #3) (#2 #4) ]")
NOT_OUTSIDE = "^insertion point {!r} is not outside the segment$"
NO_POINT = "^an insertion point is required when items remain outside the segment$"


@pytest.mark.parametrize("d, move, error, match", [
    (ONE_ARC, RotateMove(("#1", "b"), 1, 0), ValueError, "^{#1, b} is not an arc of the diagram$"),
    (ONE_ARC, BoundaryMove("a", "#2", "c"), ValueError, "^{a, #2} is not an arc of the diagram$"),
    (ONE_ARC, BoundaryMove("#1", "#2", None), ValueError, NO_POINT),
    (ONE_HANDLE, HandleMove(("#1", "#2", "#3", "#4"), None), ValueError, NO_POINT),
    (ONE_ARC, BoundaryMove("#1", "#2", "a"), ValueError, NOT_OUTSIDE.format("a")),
    (ONE_ARC, BoundaryMove("#2", "#1", "#1"), ValueError, NOT_OUTSIDE.format("#1")),
    (ONE_HANDLE, HandleMove(("#1", "#2", "#3", "#4"), "#3"), ValueError, NOT_OUTSIDE.format("#3")),
    (ONE_HANDLE, HandleMove(("#2", "#3", "#4", "1"), "2"), ValueError,
     "^tokens #2 #3 #4 1 are not a handle block of the diagram$"),
    (ONE_ARC, HandleMove(("#1", "a", "#2", "b"), "c"), ValueError,
     "^tokens #1 a #2 b are not a handle block of the diagram$"),
    (ONE_ARC, ("#1", "#2"), TypeError, r"^not a move: \('#1', '#2'\)$"),
    (ONE_ARC, None, TypeError, "^not a move: None$"),
    (ONE_ARC, RotateMove(("#1", "#2", "a"), 0, 1), ValueError,
     r"^arc must be a pair of tokens, got \('#1', '#2', 'a'\)$"),
    (ONE_ARC, RotateMove(("#1",), 0, 1), ValueError, r"^arc must be a pair of tokens, got \('#1',\)$"),
    (ONE_ARC, RotateMove(None, 0, 1), ValueError, "^arc must be a pair of tokens, got None$"),
    (ONE_ARC, RotateMove(("#1", "#2"), True, 0), ValueError, "^k1 must be an integer, got True$"),
    (ONE_ARC, RotateMove(("#1", "#2"), "x", 0), ValueError, "^k1 must be an integer, got 'x'$"),
    (ONE_ARC, RotateMove(("#1", "#2"), 0, 2.5), ValueError, r"^k2 must be an integer, got 2\.5$"),
    (ONE_ARC, RotateMove(("#1", "#2"), 1, False), ValueError, "^k2 must be an integer, got False$"),
])
def test_apply_move_refusals(d, move, error, match):
    with pytest.raises(error, match=match):
        apply_move(d, move)


def test_apply_move_takes_lists_for_tokens_and_arcs():
    handle = apply_move(ONE_HANDLE, HandleMove(["#1", "#2", "#3", "#4"], "1"))
    assert handle == apply_move(ONE_HANDLE, HandleMove(("#1", "#2", "#3", "#4"), "1"))
    assert handle == ChordDiagram.parse("[ 1 #1 #2 #3 #4 2 ; (#1 #3) (#2 #4) ]")
    rotated = apply_move(ONE_ARC, RotateMove(["#1", "#2"], 0, 1))
    assert rotated == apply_move(ONE_ARC, RotateMove(("#1", "#2"), 0, 1))
    assert rotated == ChordDiagram.parse("[ #1 a #2 c b ; (#1 #2) ]")
