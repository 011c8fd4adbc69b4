"""Tokenizer shared by the word, surface, and diagram grammars.

All three grammars use the same lexical conventions: punctuation characters
are self-delimiting, whitespace separates names, and ``#k`` (k a positive
integer) is a glue token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")

PUNCTUATION = "(){}[]^;,"


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, text: str = "", pos: int = 0) -> None:
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        super().__init__(f"line {line}, col {col}: {message}")
        self.reason = message
        self.pos = pos
        self.line = line
        self.col = col


def nonnegative_int(text: str) -> int | None:
    """``text`` as a nonnegative integer in ASCII digits only, else None.

    ``int`` alone would also take a sign, whitespace, underscores or other scripts' digits.
    """
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


class _ItemError(ValueError):
    """A failed value check at the item with position ``index`` in the checked sequence."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Token:
    kind: str  # a punctuation character, "name", "glue", or "end"
    text: str
    pos: int


# \s matches exactly the characters for which str.isspace is true
_SPACE = re.compile(r"\s*")
_NAME = re.compile(r"[^\s(){}\[\]^;,#]+")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    skip, name = _SPACE.match, _NAME.match
    i, n = skip(text).end(), len(text)
    while i < n:
        ch = text[i]
        if ch in PUNCTUATION:
            tokens.append(Token(ch, ch, i))
            i += 1
        elif ch == "#":
            j = i + 1
            while j < n and text[j].isdigit():  # not \d, which would differ on digits like '²'
                j += 1
            digits = text[i + 1 : j]
            if not digits:
                raise ParseError("expected digits after '#'", text, i)
            if digits[0] == "0":
                raise ParseError("glue token ids are positive integers without leading zeros", text, i)
            tokens.append(Token("glue", f"#{digits}", i))
            i = j
        else:
            j = name(text, i).end()
            word = text[i:j]
            if not word.isprintable():
                k = next(k for k, c in enumerate(word) if not c.isprintable())
                raise ParseError(f"unprintable character {word[k]!r}", text, i + k)
            tokens.append(Token("name", word, i))
            i = j
        i = skip(text, i).end()
    tokens.append(Token("end", "", n))
    return tokens


class TokenStream:
    """Cursor over a token list with grammar-error helpers."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or f"'{kind}'"
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {wanted}, found {found}", self.text, tok.pos)
        return self.advance()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", self.text, tok.pos)

    def error(self, message: str, tok: Token | None = None):
        raise ParseError(message, self.text, (tok or self.peek()).pos)

    def build(self, make: Callable[[], _T], tokens: Sequence[Token]) -> _T:
        """``make()``, with a check's error at item ``i`` reported as a ParseError at ``tokens[i]``."""
        try:
            return make()
        except _ItemError as exc:
            self.error(str(exc), tokens[exc.index])


__all__ = ["ParseError"]
