"""Splicing of cyclic words and the embedding as genus-0 surfaces."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfops import splice, to_surface
from surfops.surface import Surface, compose
from surfops.words import CyclicWord


def test_splice_main_pattern():
    # <B x C u> glued to <v y A> at u,v gives <A B x C y>
    left = CyclicWord(("6", "x", "7", "u"))
    right = CyclicWord(("v", "y", "5"))
    assert splice(left, "u", right, "v") == CyclicWord(("5", "6", "x", "7", "y"))


def test_splice_small_cases():
    assert splice(CyclicWord(("1", "u")), "u", CyclicWord(("v", "2")), "v") == CyclicWord(("1", "2"))
    assert splice(CyclicWord(("a", "u")), "u", CyclicWord(("v",)), "v") == CyclicWord(("a",))


def test_splice_preconditions():
    with pytest.raises(ValueError):
        splice(CyclicWord(("a", "u")), "u", CyclicWord(("u", "b")), "u")  # shared label
    with pytest.raises(ValueError):
        splice(CyclicWord(("a",)), "z", CyclicWord(("b",)), "b")


def test_splice_is_symmetric():
    left = CyclicWord(("1", "2", "u"))
    right = CyclicWord(("v", "3"))
    assert splice(left, "u", right, "v") == splice(right, "v", left, "u")


def test_to_surface():
    assert to_surface(CyclicWord(("1", "2", "3"))) == Surface([("1", "2", "3")], 0)
    assert to_surface(CyclicWord(())) == Surface([()], 0)  # the disc
    assert to_surface(CyclicWord(("a",))).grade == 0


names = st.lists(st.sampled_from("pqrstuvw"), unique=True, min_size=1, max_size=4)


@given(names, names)
def test_embedding_respects_composition(xs, ys):
    # splice downstairs agrees with surface composition upstairs
    left = CyclicWord([x + "L" for x in xs])
    right = CyclicWord([y + "R" for y in ys])
    a, b = xs[0] + "L", ys[0] + "R"
    assert to_surface(splice(left, a, right, b)) == compose(
        to_surface(left), a, to_surface(right), b
    )
