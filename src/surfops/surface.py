"""Surfaces with marked boundary points, and their gluing operations.

A surface is a multiset of boundary cycles (cyclic words, possibly empty)
together with a nonnegative genus.  All labels across all cycles are
pairwise distinct.  The canonical form sorts cycles by (length, content)
with each cycle in its canonical rotation; equality and hashing compare
canonical forms.

The grade of a surface with b cycles and genus g is G = 2g + b - 1.
``compose`` adds grades, ``self_glue`` raises the grade by exactly one.
Both are one boundary surgery, ``_reconnect``: cut the boundary at two
marked points and reconnect the ends.  ``to_surface`` embeds a cyclic word
as the one-cycle genus-zero surface, the inclusion of Ass into its envelope.

``Surface(...)`` checks cycles and genus, and ``parse`` and ``from_json`` go
through it.  The operations skip that check on their derived results and
compare the result's grade and label count with what they promise instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .lexer import ParseError, TokenStream, _ItemError, nonnegative_int
from .words import CyclicWord, Renaming, _check_items, _hashed_once, _items, _Value, is_glue, parse_word_items


@_hashed_once
@dataclass(frozen=True, init=False)
class Surface(_Value):
    cycles: tuple[CyclicWord, ...]
    genus: int
    labels: frozenset[str] = field(compare=False, repr=False)

    def __init__(self, cycles: Iterable[CyclicWord | Iterable[str]], genus: int = 0) -> None:
        seqs = [c.items if isinstance(c, CyclicWord) else _items(c) for c in _items(cycles)]
        if not seqs:
            raise _ItemError("a surface has at least one boundary cycle", 0)
        if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {genus!r}")
        _check_items(chain.from_iterable(seqs), "label {!r} occurs in more than one position")
        self._build([CyclicWord._of(seq) for seq in seqs], genus)

    def _build(self, words: Iterable[CyclicWord], genus: int) -> None:
        ordered = tuple(sorted(words, key=lambda w: (len(w.items), w.items)))
        object.__setattr__(self, "cycles", ordered)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "labels", frozenset(chain.from_iterable(w.items for w in ordered)))

    @property
    def boundary_count(self) -> int:
        return len(self.cycles)

    @property
    def grade(self) -> int:
        return 2 * self.genus + len(self.cycles) - 1

    def cycle_containing(self, label: str) -> CyclicWord:
        for w in self.cycles:
            if label in w:
                return w
        raise ValueError(f"label {label!r} does not occur in {self}")

    def rename(self, renaming: Renaming) -> "Surface":
        """The surface with each label sent through ``renaming``, which must cover every label.

        Coverage is read off the renaming's dict, and each cycle is mapped through it once and
        rebuilt by ``CyclicWord._of``: a bijection keeps the labels distinct, so nothing is rechecked.
        """
        table = renaming._map
        if not table.keys() >= self.labels:
            missing = sorted(self.labels.difference(table))
            raise ValueError(f"renaming does not cover labels {missing}")
        get = table.__getitem__
        return Surface._of([CyclicWord._of(tuple(map(get, w.items))) for w in self.cycles], self.genus)

    def __str__(self) -> str:
        inner = " ".join(str(w) for w in self.cycles)
        return f"{{ {inner} }}^{self.genus}"

    def to_json(self) -> dict:
        return {"cycles": [list(w.items) for w in self.cycles], "g": self.genus}

    def json(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json(cls, data: dict) -> "Surface":
        """The surface ``{"cycles": [[label, ...], ...], "g": genus}``; a bad shape or glue token is a ParseError."""
        if not isinstance(data, dict) or "cycles" not in data or "g" not in data:
            raise ParseError('a JSON surface is an object with the keys "cycles" and "g"')
        cycles = data["cycles"]
        if not isinstance(cycles, list) or not all(isinstance(c, list) for c in cycles):
            raise ParseError('"cycles" must be a list of lists of labels')
        if not all(isinstance(label, str) for c in cycles for label in c):
            raise ParseError("labels must be strings")
        if not isinstance(data["g"], int) or isinstance(data["g"], bool):
            raise ParseError('"g" must be an integer')
        if any(map(is_glue, chain.from_iterable(cycles))):
            raise ParseError("glue tokens are not allowed in this context")
        return cls(cycles, data["g"])

    @classmethod
    def parse(cls, text: str) -> "Surface":
        ts = TokenStream(text)
        ts.expect("{")
        cycles = []
        while ts.peek().kind == "(":
            cycles.append(parse_word_items(ts))
        # the check indexes all labels in order; one past the last (no cycles) is the closing brace
        toks = [*chain.from_iterable(cycles), ts.expect("}", "'}' or '('")]
        ts.expect("^")
        g_tok = ts.expect("name", "a nonnegative integer genus")
        genus = nonnegative_int(g_tok.text)
        if genus is None:
            ts.error("genus must be a nonnegative integer", g_tok)
        ts.expect_end()
        return ts.build(lambda: cls([[tok.text for tok in c] for c in cycles], genus), toks)


def to_surface(w: CyclicWord) -> Surface:
    """Embed a cyclic word as the one-cycle genus-zero surface."""
    return Surface._of((w,), 0)


def _reconnect(cycles: Iterable[CyclicWord], ca: CyclicWord, a: str, cb: CyclicWord, b: str) -> list[CyclicWord]:
    """Cut the boundary at a on ``ca`` and at b on ``cb``, and reconnect the ends; the other ``cycles`` stay.

    (a A b B) splits into (B) and (A); (a A) and (b B) join into (A B).  ``ca`` and ``cb`` hold labels, so
    dropping them by identity cannot drop an equal empty cycle.
    """
    rest = [w for w in cycles if w is not ca and w is not cb]
    seq = ca.rotated_to(a)
    if ca is cb:
        j = seq.index(b)
        return rest + [CyclicWord._of(seq[j + 1 :]), CyclicWord._of(seq[1:j])]
    return rest + [CyclicWord._of(seq[1:] + cb.rotated_to(b)[1:])]


def compose(q1: Surface, a: str, q2: Surface, b: str) -> Surface:
    """Glue two surfaces along marked points a of q1 and b of q2.

    The cycle (a P) of q1 and the cycle (b Q) of q2 are replaced by the
    single spliced cycle (P Q); genus adds.
    """
    if q1.labels & q2.labels:
        shared = sorted(q1.labels & q2.labels)
        raise ValueError(f"surfaces share labels {shared}")
    ca = q1.cycle_containing(a)
    cb = q2.cycle_containing(b)
    out = Surface._of(_reconnect(q1.cycles + q2.cycles, ca, a, cb, b), q1.genus + q2.genus)
    _require_kept("compose", out, q1.grade + q2.grade, len(q1.labels) + len(q2.labels) - 2)
    return out


def self_glue(q: Surface, a: str, b: str) -> Surface:
    """Glue two marked points of the same surface together.

    If a and b lie on one cycle (a A b B), that cycle splits into the two
    cycles (B) and (A) and the genus is unchanged.  If they lie on distinct
    cycles (a A) and (b B), the cycles merge into (A B) and the genus grows
    by one.  Either way the grade rises by exactly one.
    """
    if a == b:
        raise ValueError("self-gluing needs two distinct marked points")
    ca = q.cycle_containing(a)
    cb = q.cycle_containing(b)
    out = Surface._of(_reconnect(q.cycles, ca, a, cb, b), q.genus if ca is cb else q.genus + 1)
    _require_kept("self_glue", out, q.grade + 1, len(q.labels) - 2)
    return out


def _require_kept(op: str, out: Surface, grade: int, label_count: int) -> None:
    """The grade and label count an operation promises; a mismatch is a library fault."""
    if out.grade != grade or len(out.labels) != label_count:
        raise AssertionError(f"{op} gave {out} with grade {out.grade} and {len(out.labels)} labels, "
                             f"expected grade {grade} and {label_count} labels")


__all__ = ["Surface", "compose", "self_glue", "to_surface"]
