"""The three text grammars: exact error reports, round trips, and arbitrary input."""

import argparse

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import tokenize_reference
from surfops.cli import _nonnegative, _parse_renaming, _parse_surface, main
from surfops.diagram import ChordDiagram
from surfops.lexer import ParseError, nonnegative_int, tokenize
from surfops.surface import Surface
from surfops.words import RESERVED_CHARS, CyclicWord, glue

PARSERS = {"word": CyclicWord.parse, "surface": Surface.parse, "diagram": ChordDiagram.parse}

# One row per error branch: grammar, text, reason, line, col.
ERRORS = [
    # lexer
    ("word", "( a # )", "expected digits after '#'", 1, 5),
    ("word", "( #01 )", "glue token ids are positive integers without leading zeros", 1, 3),
    ("word", "( a \x01 )", "unprintable character '\\x01'", 1, 5),
    ("word", "( ab\x01 )", "unprintable character '\\x01'", 1, 5),
    ("surface", "{ ( # ) }^0", "expected digits after '#'", 1, 5),
    ("diagram", "[ #01 ; ]", "glue token ids are positive integers without leading zeros", 1, 3),
    # words
    ("word", "a )", "expected '(', found 'a'", 1, 1),
    ("word", "", "expected '(', found end of input", 1, 1),
    ("word", "( a #1 )", "glue tokens are not allowed in this context", 1, 5),
    ("word", "( #١ )", "glue tokens are not allowed in this context", 1, 3),
    ("word", "( a { )", "expected a label or ')'", 1, 5),
    ("word", "( a", "expected a label or ')'", 1, 4),
    ("word", "( a ) b", "unexpected trailing input 'b'", 1, 7),
    ("word", "( a b a )", "label 'a' occurs twice in the word", 1, 7),
    ("word", "( a\nb\n  a )", "label 'a' occurs twice in the word", 3, 3),
    # surfaces
    ("surface", "( a ) }^0", "expected '{', found '('", 1, 1),
    ("surface", "{ ( #1 ) }^0", "glue tokens are not allowed in this context", 1, 5),
    ("surface", "{ ( a ; ) }^0", "expected a label or ')'", 1, 7),
    ("surface", "{ ( a ) ( b a ) }^0", "label 'a' occurs in more than one position", 1, 13),
    ("surface", "{ ( a a ) }^0", "label 'a' occurs in more than one position", 1, 7),
    ("surface", "{ ( a )\n( a ) }^0", "label 'a' occurs in more than one position", 2, 3),
    ("surface", "{ ( a ) x }^0", "expected '}' or '(', found 'x'", 1, 9),
    ("surface", "{ ( a )", "expected '}' or '(', found end of input", 1, 8),
    ("surface", "{ ( a ) } 0", "expected '^', found '0'", 1, 11),
    ("surface", "{ ( a ) }", "expected '^', found end of input", 1, 10),
    ("surface", "{ ( a ) }^(", "expected a nonnegative integer genus, found '('", 1, 11),
    ("surface", "{ ( a ) }^x", "genus must be a nonnegative integer", 1, 11),
    ("surface", "{ ( a ) }^-1", "genus must be a nonnegative integer", 1, 11),
    ("surface", "{ }^x", "genus must be a nonnegative integer", 1, 5),
    ("surface", "{ ( a ) }^0 x", "unexpected trailing input 'x'", 1, 13),
    # diagrams
    ("diagram", "a ; ]", "expected '[', found 'a'", 1, 1),
    ("diagram", "[ a b a ; ]", "item 'a' occurs twice in the base", 1, 7),
    ("diagram", "[ a\n#1 #1 ; ]", "item '#1' occurs twice in the base", 2, 4),
    ("diagram", "[ a ( ; ]", "expected a base item or ';', found '('", 1, 5),
    ("diagram", "[ a", "expected a base item or ';', found end of input", 1, 4),
    ("diagram", "[ #1 #2 ; (a #2) ]", "expected a glue token, found 'a'", 1, 12),
    ("diagram", "[ #1 #2 ; (#1 ) ]", "expected a glue token, found ')'", 1, 15),
    ("diagram", "[ #1 #2 ; (#1 #2 ]", "expected ')', found ']'", 1, 18),
    ("diagram", "[ #1 #2 ; (#1 #3) ]", "arc token #3 does not occur in the base", 1, 15),
    ("diagram", "[ #1 #2 ; (#3 #2) ]", "arc token #3 does not occur in the base", 1, 12),
    ("diagram", "[ #1 #2 #3 #4 ; (#1 #2) (#2 #3) ]", "token #2 occurs in more than one arc", 1, 26),
    ("diagram", "[ #1 #2 #3 #4 ; (#1 #2) (#3 #1) ]", "token #1 occurs in more than one arc", 1, 29),
    ("diagram", "[ #1 ; (#1 #1) ]", "token #1 occurs in more than one arc", 1, 12),
    ("diagram", "[ #1 #2 ;\n (#1 #2)\n (#1 #2) ]", "token #1 occurs in more than one arc", 3, 3),
    ("diagram", "[ #1 #2 ; (#1 #2) x ]", "expected an arc or ']', found 'x'", 1, 19),
    ("diagram", "[ #1 #2 ; (#1 #2)", "expected an arc or ']', found end of input", 1, 18),
    ("diagram", "[ ; ] x", "unexpected trailing input 'x'", 1, 7),
    ("diagram", "[ a #1 #2 #3 ; (#1 #2) ]", "token #3 is never matched by an arc", 1, 11),
    ("diagram", "[ #4 a #1 #2 #3 ; (#1 #2) ]", "token #4 is never matched by an arc", 1, 3),
    # Texts that used to escape as a plain ValueError or parse silently: a genus in
    # non-ASCII digits, a surface without cycles, and a '#' token with non-ASCII digits.
    ("surface", "{ ( a ) }^²", "genus must be a nonnegative integer", 1, 11),
    ("surface", "{ ( a ) }^١", "genus must be a nonnegative integer", 1, 11),
    ("surface", "{ }^0", "a surface has at least one boundary cycle", 1, 3),
    ("surface", "{\n}^0", "a surface has at least one boundary cycle", 2, 1),
    ("diagram", "[ #١ ; ]", "names starting with '#' are reserved for glue tokens; '#١' is not one", 1, 3),
    ("diagram", "[ a #2 #١ ; (#١ #2) ]",
     "names starting with '#' are reserved for glue tokens; '#١' is not one", 1, 8),
]


@pytest.mark.parametrize("grammar, text, reason, line, col", ERRORS)
def test_parse_error_report(grammar, text, reason, line, col):
    with pytest.raises(ParseError) as info:
        PARSERS[grammar](text)
    exc = info.value
    assert (exc.reason, exc.line, exc.col) == (reason, line, col)
    assert str(exc) == f"line {line}, col {col}: {reason}"


@pytest.mark.parametrize("argv, err", [
    (["glue", "{ ( a ) }^²", "a", "b"], "parse error: line 1, col 11: genus must be a nonnegative integer\n"),
    (["canon", "{ ( a ) }^١"], "parse error: line 1, col 11: genus must be a nonnegative integer\n"),
    (["canon", "{ }^0"], "parse error: line 1, col 3: a surface has at least one boundary cycle\n"),
])
def test_malformed_surface_text_is_a_cli_parse_error(capsys, argv, err):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


# 5000 digits: more than int() converts from a string by default
HUGE_GENUS = "1" * 5000
HUGE_GENUS_OPERANDS = [f"{{ ( a ) }}^{HUGE_GENUS}", f'{{"cycles": [["a"]], "g": {HUGE_GENUS}}}']


def test_huge_genus_is_a_parse_error_at_the_genus_token():
    with pytest.raises(ParseError) as info:
        Surface.parse(HUGE_GENUS_OPERANDS[0])
    exc = info.value
    assert (exc.reason, exc.line, exc.col) == ("genus must be a nonnegative integer", 1, 11)
    with pytest.raises(ParseError, match="invalid JSON: Exceeds the limit"):
        _parse_surface(HUGE_GENUS_OPERANDS[1])


@pytest.mark.parametrize("operand", HUGE_GENUS_OPERANDS, ids=["text", "json"])
def test_huge_genus_is_a_cli_parse_error(capsys, operand):
    assert main(["canon", operand]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("00", 0), ("17", 17), ("+1", None), ("-1", None), (" 2", None), ("1_0", None),
    ("\u0663", None), ("\u00b2", None), ("", None), (HUGE_GENUS, None),
])
def test_one_digit_rule_for_genus_and_options(text, value):
    assert nonnegative_int(text) == value
    if value is not None:
        assert Surface.parse(f"{{ ( a ) }}^{text}").genus == _nonnegative(text) == value
        return
    with pytest.raises(argparse.ArgumentTypeError, match="expected a nonnegative integer"):
        _nonnegative(text)
    if text and text == text.strip():  # the tokenizer drops the whitespace around a genus token
        with pytest.raises(ParseError, match="genus must be a nonnegative integer"):
            Surface.parse(f"{{ ( a ) }}^{text}")


@pytest.mark.parametrize("text, reason, col", [
    ("a #1, b c", "label '#1' contains reserved character '#'", 3),
    ("a (, b c", "label '(' contains reserved character '('", 3),
    ("a x, #3 y", "label '#3' contains reserved character '#'", 6),
])
def test_renaming_names_are_labels(text, reason, col):
    with pytest.raises(ParseError) as info:
        _parse_renaming(text)
    assert (info.value.reason, info.value.col) == (reason, col)


# ---------------------------------------------------------------------------
# properties

label_chars = st.characters(
    blacklist_categories=("Cc", "Cf", "Cs", "Zs", "Zl", "Zp", "Co", "Cn"),
    blacklist_characters=RESERVED_CHARS,
)
labels = st.text(label_chars, min_size=1, max_size=4).filter(lambda s: s.isprintable() and not any(
    ch.isspace() for ch in s))
label_lists = st.lists(labels, unique=True, max_size=7)


@given(label_lists)
def test_word_text_round_trip(names):
    w = CyclicWord(names)
    assert CyclicWord.parse(str(w)) == w


@given(label_lists, st.lists(st.integers(0, 6), max_size=4), st.integers(0, 3))
def test_surface_text_round_trip(names, cuts, genus):
    bounds = sorted({0, len(names), *(c % (len(names) + 1) for c in cuts)})
    cycles = [names[i:j] for i, j in zip(bounds, bounds[1:])] or [[]]
    q = Surface(cycles, genus)
    assert Surface.parse(str(q)) == q


@st.composite
def diagrams(draw):
    names = draw(st.lists(labels, unique=True, max_size=5))
    tokens = [glue(k) for k in range(1, 2 * draw(st.integers(0, 5)) + 1)]
    paired = draw(st.permutations(tokens))
    base = draw(st.permutations(names + tokens))
    return ChordDiagram(base, [(paired[i], paired[i + 1]) for i in range(0, len(paired), 2)])


@given(diagrams())
def test_diagram_text_round_trip(d):
    assert ChordDiagram.parse(str(d)) == d


pieces = st.sampled_from(["(", ")", "{", "}", "[", "]", "^", ";", ",", "#", "#1", "#2", "#3", "#0", "#١",
                          "a", "b", "0", "1", "²", "١", " ", "\n", "\x01", "-"])
texts = st.one_of(st.text(max_size=20), st.lists(pieces, max_size=20).map("".join))


@given(st.one_of(texts, st.text(st.characters(), max_size=40), st.lists(st.sampled_from(
    ["\t", "\x1c", "\x85", "\u2028", "\u3000", "\u200b", "\ufeff", "#²", "#12", "x#"]), max_size=12).map("".join)))
def test_tokenize_agrees_with_the_reference_loop(text):
    try:
        want = tokenize_reference(text)
    except ValueError as exc:
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert (info.value.reason, info.value.pos) == exc.args
        return
    assert [(t.kind, t.text, t.pos) for t in tokenize(text)] == want


@given(texts)
def test_arbitrary_text_gives_a_value_or_a_parse_error(text):
    for parse in PARSERS.values():
        try:
            parse(text)
        except ParseError:
            pass


@given(texts.filter(lambda t: not t.startswith("-")))  # "-" reads stdin, "-h" asks for help
def test_arbitrary_operands_never_crash_the_cli(text):
    for command in ("eval", "canon"):
        assert main([command, text]) in (0, 1)
