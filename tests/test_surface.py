"""Surfaces: canonical form, grade arithmetic, the three operations, the embedding of words."""

import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import canonical_surface, compose_reference, rename_reference, self_glue_reference
from surfops.census import random_surface
from surfops.lexer import ParseError
from surfops.surface import Surface, compose, self_glue, to_surface
from surfops.words import CyclicWord, Renaming, splice


def test_constructor_and_grade():
    assert Surface([("1", "2")], 0).grade == 0
    assert Surface([(), ()], 0).grade == 1  # cylinder
    assert Surface([("1",)], 1).grade == 2
    assert Surface([()], 0).grade == 0  # disc


def test_constructor_validation():
    with pytest.raises(ValueError):
        Surface([], 0)  # at least one boundary cycle
    with pytest.raises(ValueError):
        Surface([("a",), ("a",)], 0)  # duplicate label across cycles
    with pytest.raises(ValueError):
        Surface([("a",)], -1)
    with pytest.raises(ValueError):
        Surface([("a",)], True)  # genus must be a plain integer


def test_multiset_equality():
    assert Surface([("1", "2")], 0) == Surface([("2", "1")], 0)
    assert Surface([("a",), ("b",)], 0) == Surface([("b",), ("a",)], 0)
    assert Surface([(), ()], 0) != Surface([()], 1)  # grades 1 vs 2


def test_str_sorts_cycles():
    q = Surface([("a", "b"), (), ("c",)], 1)
    assert str(q) == "{ ( ) ( c ) ( a b ) }^1"


def test_rename():
    q = Surface([("a", "b")], 0)
    assert q.rename(Renaming({"a": "x", "b": "y"})) == Surface([("x", "y")], 0)
    swap = Renaming({"a": "b", "b": "a"})
    assert Surface([("a",), ("b",)], 1).rename(swap) == Surface([("a",), ("b",)], 1)
    with pytest.raises(ValueError, match=r"^renaming does not cover labels \['b'\]$"):
        q.rename(Renaming({"a": "x"}))
    with pytest.raises(ValueError, match=r"^renaming does not cover labels \['b', 'c'\]$"):
        Surface([("a", "b"), ("c",)], 1).rename(Renaming({"a": "x", "z": "y"}))
    # refused as the Renaming is built, so rename never makes a surface its parser rejects
    with pytest.raises(ValueError, match="label '#1' contains reserved character '#'"):
        q.rename(Renaming({"a": "#1", "b": "c"}))


def test_compose_examples():
    q1 = Surface.parse("{ ( c 1 2 ) }^0")
    q2 = Surface.parse("{ ( 3 cp ) }^0")
    assert compose(q1, "c", q2, "cp") == Surface.parse("{ ( 3 1 2 ) }^0")
    assert compose(
        Surface.parse("{ ( c 1 ) }^0"), "c", Surface.parse("{ ( cp ) }^0"), "cp"
    ) == Surface.parse("{ ( 1 ) }^0")


def test_compose_adds_genus_and_grade():
    q1 = Surface.parse("{ ( c ) ( 5 ) }^1")
    q2 = Surface.parse("{ ( cp ) }^2")
    out = compose(q1, "c", q2, "cp")
    assert out == Surface.parse("{ ( ) ( 5 ) }^3")
    assert out.genus == 1 + 2
    assert (q1.grade, q2.grade) == (3, 4)
    assert out.grade == q1.grade + q2.grade == 7


def test_compose_preconditions():
    q = Surface.parse("{ ( a b ) }^0")
    with pytest.raises(ValueError):
        compose(q, "z", Surface.parse("{ ( c ) }^0"), "c")
    with pytest.raises(ValueError):
        compose(q, "a", Surface.parse("{ ( a ) }^0"), "a")  # label overlap


def test_self_glue_same_cycle():
    # <a 1 b 2> splits into <2> and <1>
    out = self_glue(Surface.parse("{ ( a 1 b 2 ) }^0"), "a", "b")
    assert out == Surface.parse("{ ( 2 ) ( 1 ) }^0")
    assert out.grade == 1


def test_self_glue_different_cycles():
    q = Surface.parse("{ ( a 1 ) ( b 2 ) }^0")
    out = self_glue(q, "a", "b")
    assert out == Surface.parse("{ ( 2 1 ) }^1")
    assert out.grade == q.grade + 1 == 2


def test_self_glue_adjacent_points():
    assert self_glue(Surface.parse("{ ( a b ) }^0"), "a", "b") == Surface.parse("{ ( ) ( ) }^0")


def test_self_glue_symmetry():
    for text, a, b in [
        ("{ ( a 1 b 2 ) }^0", "a", "b"),
        ("{ ( a 1 ) ( b 2 ) }^2", "a", "b"),
        ("{ ( a x y b ) ( z ) }^1", "a", "b"),
    ]:
        q = Surface.parse(text)
        assert self_glue(q, a, b) == self_glue(q, b, a)


def test_self_glue_preconditions():
    q = Surface.parse("{ ( a b ) }^0")
    with pytest.raises(ValueError):
        self_glue(q, "a", "a")
    with pytest.raises(ValueError):
        self_glue(q, "a", "z")


def test_parse_and_json_round_trip():
    for text in ["{ ( a b ) ( ) }^2", "{ ( ) }^0", "{ ( x ) ( y ) ( z ) }^1"]:
        q = Surface.parse(text)
        assert Surface.parse(str(q)) == q
        assert Surface.from_json(q.to_json()) == q
    assert Surface.parse("{ ( a ) }^1").to_json() == {"cycles": [["a"]], "g": 1}


def test_from_json_missing_key():
    with pytest.raises(ParseError):
        Surface.from_json({"cycles": [["a", "b"]]})
    with pytest.raises(ParseError):
        Surface.from_json({"g": 0})


def test_from_json_string_cycle():
    # a string must not be split into one-character labels
    with pytest.raises(ParseError):
        Surface.from_json({"cycles": "ab", "g": 0})
    with pytest.raises(ParseError):
        Surface.from_json({"cycles": ["ab"], "g": 0})


def test_from_json_non_string_label():
    with pytest.raises(ParseError):
        Surface.from_json({"cycles": [["a", 1]], "g": 0})
    # an empty string passes the JSON shape check, and the label check refuses it
    with pytest.raises(ValueError, match="^labels are nonempty strings, got ''$"):
        Surface.from_json({"cycles": [[""]], "g": 0})


def test_from_json_refuses_glue_tokens():
    for cycles in ([["#1", "a"]], [["#2"], ["a"]]):
        with pytest.raises(ParseError, match="glue tokens are not allowed in this context"):
            Surface.from_json({"cycles": cycles, "g": 1})
        assert Surface(cycles, 1).labels  # the constructor stays permissive


def test_from_json_genus_types():
    for genus in ("1", 1.5, True, None):
        with pytest.raises(ParseError):
            Surface.from_json({"cycles": [["a"]], "g": genus})
    with pytest.raises(ValueError):
        Surface.from_json({"cycles": [["a"]], "g": -1})  # well-formed, but no such surface


def test_parse_errors():
    for bad in ["{ ( a ) }", "{ ( a ) }^x", "( a )", "{ ( a ) ( a ) }^0", "{ ( #1 ) }^0"]:
        with pytest.raises(ParseError):
            Surface.parse(bad)


def test_parse_error_positions():
    try:
        Surface.parse("{ ( a )\n( a ) }^0")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("duplicate label accepted")


subsets = st.lists(st.sampled_from("defgh"), unique=True, min_size=2, max_size=5)


@given(subsets, st.integers(0, 2), st.integers(0, 2))
def test_glue_grade_increment(names, g, split_at):
    q = Surface([tuple(names)], g)
    a, b = names[0], names[1 + split_at % (len(names) - 1)]
    out = self_glue(q, a, b)
    assert out.grade == q.grade + 1
    assert out.labels == q.labels - {a, b}


@given(subsets, subsets, st.integers(0, 3))
def test_compose_grade_additive(xs, ys, g):
    left = Surface([tuple(x + "L" for x in xs)], g)
    right = Surface([tuple(y + "R" for y in ys)], 3 - g)
    out = compose(left, xs[0] + "L", right, ys[0] + "R")
    assert out.grade == left.grade + right.grade
    assert out.genus == 3


def test_constructor_rejects_a_bare_string():
    # a string is a sequence of characters, never of labels
    with pytest.raises(ValueError, match="got the string 'ab'"):
        Surface(["ab"])
    with pytest.raises(ValueError, match="got the string 'ab'"):
        Surface("ab")
    assert Surface([["ab"]]).labels == frozenset({"ab"})


def test_labels_are_cached_with_the_value():
    q = Surface([("a", "b"), ("c",)], 1)
    assert q.labels is q.labels == frozenset("abc")
    assert "labels" not in repr(q) and q == Surface([("c",), ("b", "a")], 1)


_HASHED_VALUES = (
    lambda: Surface([("a", "b"), ("c",)], 1),
    lambda: CyclicWord(["y", "z", "x"]),
    lambda: Renaming({"a": "b", "b": "a"}),
)


@pytest.mark.parametrize("make", _HASHED_VALUES)
def test_a_kept_hash_changes_nothing_else(make):
    hashed, fresh = make(), make()
    shown = repr(hashed), str(hashed)
    assert hash(hashed) == hash(fresh) and hashed._hash is not None
    assert (repr(hashed), str(hashed)) == shown == (repr(fresh), str(fresh))
    assert hashed == fresh and fresh == hashed and not hashed != fresh
    if isinstance(hashed, Surface):
        assert hashed.to_json() == fresh.to_json() and hashed.json() == fresh.json()


_PICKLED_ACROSS_SEEDS = """
import pickle, sys
from surfops.surface import Surface
from surfops.words import CyclicWord, Renaming

values = [Surface([("a", "b"), ("c",)], 1), CyclicWord(["y", "z", "x"]), Renaming({"a": "b", "b": "a"})]
if sys.argv[1] == "dump":
    for v in values:
        hash(v)
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    print([v == w and v in {w} and w in {v} for v, w in zip(values, loaded)])
"""


def test_a_kept_hash_is_not_pickled():
    """A string's hash differs between processes: a value hashed, pickled and loaded elsewhere hashes afresh."""

    def child(seed: str, mode: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", _PICKLED_ACROSS_SEEDS, mode], input=data,
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    assert child("2", "load", child("1", "dump")) == b"[True, True, True]\n"


def _pair(q: Surface):
    return [w.items for w in q.cycles], q.genus


def test_gluings_agree_with_the_oracle():
    """compose and self_glue against a segment-tracing reference that reads the genus off the Euler characteristic."""
    rng = random.Random(1312)
    branches = Counter()
    for _ in range(3000):
        q1 = random_surface(rng, rng.sample("abcde", rng.randint(1, 5)), 2, max_extra_empty=2)
        q2 = random_surface(rng, rng.sample("pqrst", rng.randint(1, 5)), 2, max_extra_empty=2)
        a, b = rng.choice(sorted(q1.labels)), rng.choice(sorted(q2.labels))
        assert canonical_surface(*_pair(compose(q1, a, q2, b))) == compose_reference(_pair(q1), a, _pair(q2), b)
        for q in (q1, q2):
            if len(q.labels) < 2:
                continue
            a, b = rng.sample(sorted(q.labels), 2)
            branches["split" if b in q.cycle_containing(a) else "merge"] += 1
            assert canonical_surface(*_pair(self_glue(q, a, b))) == self_glue_reference(_pair(q), a, b)
    assert branches["split"] > 500 and branches["merge"] > 500, branches


def test_rename_agrees_with_the_oracle():
    """rename against mapping each cycle label by label, onto permutations of the own labels and onto other names."""
    rng = random.Random(2113)
    kinds = Counter()
    for _ in range(3000):
        q = random_surface(rng, rng.sample("abcdef", rng.randint(0, 6)), 2, max_extra_empty=2)
        src = sorted(q.labels)
        if rng.random() < 0.5:
            image, kind = rng.sample(src, len(src)), "permuted"
        else:
            image, kind = rng.sample(["a", "c", "x1", "x2", "y", "zz", "Ω"], len(src)), "other names"
        mapping = dict(zip(src, image))
        kinds[kind] += 1
        kinds["genus > 0"] += q.genus > 0
        kinds["empty cycle"] += any(not w.items for w in q.cycles)
        assert canonical_surface(*_pair(q.rename(Renaming(mapping)))) == rename_reference(_pair(q), mapping)
    assert min(kinds.values()) > 1000, kinds


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
