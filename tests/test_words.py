"""Cyclic words, canonical rotation, renamings, and splicing."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfops.diagram import ChordDiagram
from surfops.lexer import ParseError
from surfops.words import CyclicWord, Renaming, _least_first, glue, is_glue, splice

labels = st.text(alphabet="abcxyz123", min_size=1, max_size=3)
label_lists = st.lists(labels, unique=True, max_size=6)
items_distinct = st.lists(st.one_of(labels, st.integers(1, 30).map(glue)), unique=True, max_size=8)


# _least_first needs distinct items: with a repeated least item, (b, a, c, a) would give
# (a, c, a, b), not the least rotation (a, b, a, c).  Words and diagram bases never repeat.
def test_least_first_examples():
    assert _least_first(("b", "a", "c")) == ("a", "c", "b")
    assert _least_first(()) == ()
    assert _least_first(("x",)) == ("x",)


@given(items_distinct)
def test_least_first_is_rotation_invariant(items):
    tup = tuple(items)
    for k in range(max(1, len(tup))):
        assert _least_first(tup[k:] + tup[:k]) == _least_first(tup)


@given(items_distinct)
def test_least_first_is_the_least_rotation(items):
    tup = tuple(items)
    least = min((tup[i:] + tup[:i] for i in range(len(tup))), default=tup)  # every rotation, compared whole
    assert _least_first(tup) == least
    for k in range(max(1, len(tup))):
        rotated = tup[k:] + tup[:k]
        assert _least_first(rotated) == least
        assert CyclicWord._of(rotated).items == least
        assert ChordDiagram._of(rotated, ()).base == least


def test_word_equality_up_to_rotation():
    assert CyclicWord(("1", "2", "3")) == CyclicWord(("3", "1", "2"))
    assert CyclicWord(("1", "2", "3")) != CyclicWord(("1", "3", "2"))


def test_word_rejects_duplicates_and_bad_items():
    with pytest.raises(ValueError):
        CyclicWord(("a", "a"))
    with pytest.raises(ValueError):
        CyclicWord(("a", "b c"))
    with pytest.raises(ValueError):
        CyclicWord(("#x",))  # reserved prefix but not a glue token


def test_glue_tokens():
    assert glue(7) == "#7"
    assert is_glue("#12")
    assert not is_glue("#0")
    assert not is_glue("#01")
    assert not is_glue("x")
    assert CyclicWord(("a", "#1")).items  # tokens are valid word items


@pytest.mark.parametrize("k", [True, False, 2.0, "3", None])
def test_glue_refuses_non_integers(k):
    # a bool is an int to Python, but glue(True) would be the token '#True', which is no glue token
    with pytest.raises(ValueError, match=f"^a glue token id must be an integer, got {re.escape(repr(k))}$"):
        glue(k)


def test_glue_refuses_nonpositive_ids():
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"^glue token ids are positive integers, got {k}$"):
            glue(k)


def test_word_parse_and_str():
    w = CyclicWord.parse("( b a c )")
    assert str(w) == "( a c b )"
    assert str(CyclicWord.parse("()")) == "( )"
    with pytest.raises(ParseError):
        CyclicWord.parse("( a a )")
    with pytest.raises(ParseError):
        CyclicWord.parse("( a")


def test_rename_examples():
    w = CyclicWord(("a", "b"))
    assert w.rename(Renaming({"a": "x", "b": "y"})) == CyclicWord(("x", "y"))
    assert w.rename(Renaming.identity(["a", "b"])) == w
    assert CyclicWord(()).rename(Renaming({})) == CyclicWord(())


def test_rename_then_canonicalize():
    # (a b c) under a->cp, b->ap, c->bp lands on (cp ap bp), canonically (ap bp cp)
    w = CyclicWord(("a", "b", "c"))
    out = w.rename(Renaming({"a": "cp", "b": "ap", "c": "bp"}))
    assert out.items == ("ap", "bp", "cp")


def test_rename_requires_full_domain():
    with pytest.raises(ValueError, match="^label 'b' is outside the renaming domain$"):
        CyclicWord(("a", "b")).rename(Renaming({"a": "x"}))


def test_renaming_validation():
    with pytest.raises(ValueError):
        Renaming({"a": "x", "b": "x"})  # not injective
    with pytest.raises(ValueError):
        Renaming([("a", "x"), ("a", "y")])  # duplicate source
    for glued in [{"a": "#1", "b": "c"}, {"#1": "a"}]:  # glue tokens are not labels, on either side
        with pytest.raises(ValueError, match="reserved character '#'"):
            Renaming(glued)
    for pairs, shown in [([("a", "b", "c")], r"\('a', 'b', 'c'\)"), ([("a",)], r"\('a',\)")]:
        with pytest.raises(ValueError, match=f"^a renaming pair is \\(old, new\\), got {shown}$"):
            Renaming(pairs)
    for empty in [{"": "a"}, {"a": ""}]:
        with pytest.raises(ValueError, match="^labels are nonempty strings, got ''$"):
            Renaming(empty)
    # checked before the sort, where a label that is not a string would escape as a TypeError
    with pytest.raises(ValueError, match="^labels are nonempty strings, got 1$"):
        Renaming({1: "a", "b": "c"})
    with pytest.raises(ValueError, match="^renaming maps some label twice$"):
        Renaming([("a", 1), ("a", "c")])
    with pytest.raises(ValueError, match="^labels are nonempty strings, got 1$"):
        Renaming.identity(["a", 1])
    with pytest.raises(ValueError, match="^expected a sequence of items, got the string 'ab'$"):
        Renaming.identity("ab")
    r = Renaming({"a": "x", "b": "y"})
    assert r("a") == "x"
    assert r.restrict(["a"]).domain == frozenset({"a"})
    with pytest.raises(ValueError, match="^cannot restrict a renaming beyond its domain$"):
        r.restrict(["a", "z"])
    with pytest.raises(ValueError, match="^expected a sequence of items, got the string 'ab'$"):
        r.restrict("ab")
    with pytest.raises(ValueError):
        r("z")


def test_renaming_after_and_union():
    first = Renaming({"a": "m", "b": "n"})
    second = Renaming({"m": "1", "n": "2"})
    composite = second.after(first)
    assert composite("a") == "1" and composite("b") == "2"
    with pytest.raises(ValueError, match="^renamings do not compose: codomain exceeds domain$"):
        Renaming({"m": "1"}).after(first)
    both = Renaming({"a": "x"}).union(Renaming({"b": "y"}))
    assert both.domain == frozenset({"a", "b"})
    with pytest.raises(ValueError):
        Renaming({"a": "x"}).union(Renaming({"a": "y"}))


@given(label_lists, st.integers(0, 5))
def test_word_rotations_all_equal(names, k):
    w = CyclicWord(names)
    if names:
        rotated = CyclicWord(tuple(names[k % len(names):]) + tuple(names[: k % len(names)]))
        assert rotated == w


@given(label_lists)
def test_rename_functorial_on_words(names):
    w = CyclicWord(names)
    first = Renaming({x: x + "_1" for x in names})
    second = Renaming({x + "_1": x + "_2" for x in names})
    assert w.rename(first).rename(second) == w.rename(second.after(first))


def test_rotated_to_and_rotations():
    w = CyclicWord(("a", "c", "b"))
    assert w.rotated_to("c") == ("c", "b", "a")
    assert set(w.rotations()) == {("a", "c", "b"), ("c", "b", "a"), ("b", "a", "c")}
    assert list(CyclicWord(()).rotations()) == [()]
    with pytest.raises(ValueError):
        w.rotated_to("z")


def test_constructors_reject_a_bare_string():
    # a string is a sequence of characters, never of labels
    with pytest.raises(ValueError, match="got the string 'abc'"):
        CyclicWord("abc")
    with pytest.raises(ValueError, match="got the string 'ab'"):
        Renaming(["ab", "cd"])


def test_word_errors_name_the_item():
    with pytest.raises(ValueError, match="label 'a' occurs twice in the word"):
        CyclicWord(("a", "b", "a"))


def test_union_needs_disjoint_codomains():
    with pytest.raises(ValueError, match="renaming codomains overlap"):
        Renaming({"a": "x"}).union(Renaming({"b": "x"}))


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
