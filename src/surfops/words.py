"""Labels, renamings, and cyclic words, with ``splice``, the composition of the cyclic operad Ass.

A cyclic word is a finite sequence of pairwise distinct labels considered up
to rotation.  Words are stored in their canonical rotation (the
lexicographically smallest one), so equality and hashing are plain value
comparisons on the stored tuple.  Because the items are distinct, that
rotation is the one starting at the least item, which ``_least_first`` finds
with one ``min`` and one ``index``.

Checks run once, in the public constructors; the parsers read syntax and then
call them.  A constructor checks, then calls its build step ``_build``, which
only canonicalises.  Values derived from valid ones (renamed, spliced, glued,
composed) skip the checks through ``_of``, the build step alone.

``_check_items`` checks a whole item list at once: one pattern match over the
items joined by newlines, one ``isprintable`` and one set for the repeats.
Only a list that fails is walked item by item, to name its first bad item.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .lexer import LABEL, PUNCTUATION, Token, TokenStream, _ItemError

# Reserved in the textual grammars; none of these may appear inside a label.
RESERVED_CHARS = PUNCTUATION + "#"

_GLUE = r"#[1-9][0-9]*"
_GLUE_RE = re.compile(_GLUE + r"\Z")


def is_glue(item: str) -> bool:
    """True for generated glue tokens of the form ``#k`` with k >= 1."""
    return item[:1] == "#" and _GLUE_RE.match(item) is not None


def glue(k: int) -> str:
    _require_count(k, "a glue token id", 1, "glue token ids are positive integers, got {!r}")
    return f"#{k}"


def _require_count(value: object, name: str, least: int, below: str) -> None:
    """A ValueError for a count that is not an ``int`` (or is a ``bool``), or is below ``least`` (text ``below``)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(below.format(value))


def check_label(name: str) -> str:
    """Validate a user label: nonempty, printable, no whitespace, no reserved characters."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"labels are nonempty strings, got {name!r}")
    for ch in name:
        if ch in RESERVED_CHARS:
            raise ValueError(f"label {name!r} contains reserved character {ch!r}")
        if ch.isspace() or not ch.isprintable():
            raise ValueError(f"label {name!r} contains whitespace or unprintable characters")
    return name


def check_item(name: str) -> str:
    """Validate an item: either a user label or a glue token ``#k``."""
    if isinstance(name, str) and name.startswith("#"):
        if not is_glue(name):
            raise ValueError(f"names starting with '#' are reserved for glue tokens; {name!r} is not one")
        return name
    return check_label(name)


def _items(seq: Iterable[str]) -> tuple[str, ...]:
    # a string is a sequence too, but never a sequence of items
    if isinstance(seq, str):
        raise ValueError(f"expected a sequence of items, got the string {seq!r}")
    return tuple(seq)


def _joined(item: str) -> re.Pattern[str]:
    """A nonempty list of items that match ``item``, joined by newlines.

    A newline is whitespace, which no item contains, so a match splits the joined list back into
    exactly its items.
    """
    return re.compile(f"{item}(?:\n{item})*")


_ITEMS_RE = {check_item: _joined(f"(?:{LABEL}|{_GLUE})"), check_label: _joined(LABEL)}


def _check_items(items: Iterable[str], repeated: str, check: Callable[[str], str] = check_item) -> None:
    """Each item passes ``check`` (``check_item`` or ``check_label``) and none is repeated.

    ``repeated`` formats the error for a repeat.  The whole list is checked at once: the pattern
    of ``check``, ``isprintable`` and a set.  Only a list that fails is walked item by item,
    which raises for its first bad item with that item's index.
    """
    items = list(items)
    if not items:
        return
    try:
        if (_ITEMS_RE[check].fullmatch("\n".join(items))
                and "".join(items).isprintable() and len(set(items)) == len(items)):
            return
    except TypeError:  # an item that is no string, or cannot be hashed
        pass
    seen: set[str] = set()
    for i, item in enumerate(items):
        try:
            check(item)
        except ValueError as exc:
            raise _ItemError(str(exc), i) from None
        if item in seen:
            raise _ItemError(repeated.format(item), i)
        seen.add(item)


def _least_first(items: tuple[str, ...]) -> tuple[str, ...]:
    """The rotation of pairwise distinct ``items`` that starts at the least item.

    Distinct items start distinct rotations, so the first item alone orders
    them and this is the least rotation.  With a repeated least item it may
    start at the wrong copy: ``(b, a, c, a)`` gives ``(a, c, a, b)``, not the
    least ``(a, b, a, c)``.
    """
    if len(items) < 2:
        return items
    i = items.index(min(items))
    return items[i:] + items[:i]


class _Value:
    """A value type: ``__init__`` checks its arguments, then calls ``_build``; ``_of`` only builds.

    A type decorated with ``_hashed_once`` keeps its hash in ``_hash`` after the first ``hash``.  A
    string's hash differs from one process to the next, so pickling leaves ``_hash`` out.
    """

    _hash = None

    @classmethod
    def _of(cls, *args):
        value = object.__new__(cls)
        value._build(*args)
        return value

    def __getstate__(self) -> dict:
        state = vars(self).copy()
        state.pop("_hash", None)
        return state


def _hashed_once(cls):
    """Make the dataclass ``__hash__`` of ``cls`` run once per value, on first use; the value keeps it.

    The store lookups of the law sweep hash the same operands again and again, while ``evaluate``
    and the parsers build many values that are never hashed.
    """
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_hashed_once
@dataclass(frozen=True, init=False)
class Renaming(_Value):
    """A bijection between two finite label sets, given by its graph."""

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, mapping: Mapping[str, str] | Iterable[tuple[str, str]]) -> None:
        items = mapping.items() if isinstance(mapping, Mapping) else list(mapping)
        pairs = tuple(map(_items, items))
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"a renaming pair is (old, new), got {pair!r}")
        _check_items([src for src, _ in pairs], "renaming maps some label twice", check_label)
        _check_items([dst for _, dst in pairs], "renaming is not injective", check_label)
        self._build(pairs)

    def _build(self, pairs: Iterable[tuple[str, str]]) -> None:
        # ``_map`` is the graph as a dict; the renaming loops of ``surface`` and ``laws`` read it directly
        pairs = tuple(sorted(pairs))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_map", dict(pairs))

    @classmethod
    def identity(cls, labels: Iterable[str]) -> "Renaming":
        return cls({l: l for l in _items(labels)})

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    @property
    def codomain(self) -> frozenset[str]:
        return frozenset(self._map.values())

    def __call__(self, label: str) -> str:
        try:
            return self._map[label]
        except KeyError:
            raise ValueError(f"label {label!r} is outside the renaming domain") from None

    def after(self, first: "Renaming") -> "Renaming":
        """The composite 'apply ``first``, then self'."""
        table = self._map
        try:
            pairs = [(src, table[dst]) for src, dst in first.pairs]
        except KeyError:
            raise ValueError("renamings do not compose: codomain exceeds domain") from None
        return Renaming._of(pairs)

    def union(self, other: "Renaming") -> "Renaming":
        if self.domain & other.domain:
            raise ValueError("renaming domains overlap")
        if self.codomain & other.codomain:
            raise ValueError("renaming codomains overlap")
        return Renaming._of(self.pairs + other.pairs)

    def restrict(self, labels: Iterable[str]) -> "Renaming":
        keep = frozenset(_items(labels))
        if not self._map.keys() >= keep:
            raise ValueError("cannot restrict a renaming beyond its domain")
        return Renaming._of([(s, t) for s, t in self.pairs if s in keep])

    def __str__(self) -> str:
        return "{" + ", ".join(f"{s}->{t}" for s, t in self.pairs) + "}"


@_hashed_once
@dataclass(frozen=True, init=False)
class CyclicWord(_Value):
    """A cyclic sequence of distinct items, stored in canonical rotation."""

    items: tuple[str, ...]

    def __init__(self, items: Iterable[str] = ()) -> None:
        seq = _items(items)
        _check_items(seq, "label {!r} occurs twice in the word")
        self._build(seq)

    def _build(self, items: tuple[str, ...]) -> None:
        """Store the canonical rotation; ``items`` must be pairwise distinct, as every word's are."""
        object.__setattr__(self, "items", _least_first(items))

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)

    def __contains__(self, label: str) -> bool:
        return label in self.items

    def rotated_to(self, label: str) -> tuple[str, ...]:
        """The rotation of the word that starts at ``label``."""
        try:
            i = self.items.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} does not occur in {self}") from None
        return self.items[i:] + self.items[:i]

    def rotations(self) -> Iterator[tuple[str, ...]]:
        for i in range(max(1, len(self.items))):  # the empty word has its one rotation ()
            yield self.items[i:] + self.items[:i]

    def rename(self, renaming: Renaming) -> "CyclicWord":
        return CyclicWord._of(tuple(map(renaming, self.items)))

    def __str__(self) -> str:
        inner = " ".join(self.items)
        return f"( {inner} )" if inner else "( )"

    @classmethod
    def parse(cls, text: str) -> "CyclicWord":
        ts = TokenStream(text)
        toks = parse_word_items(ts)
        ts.expect_end()
        return ts.build(lambda: cls(tok.text for tok in toks), toks)


def splice(x: CyclicWord, a: str, y: CyclicWord, b: str) -> CyclicWord:
    """Compose two cyclic words by cutting at a and b: (a P) . (b Q) = (P Q).

    ``surface._reconnect`` writes this join again on purpose: ``splice_compatibility`` compares the two.
    """
    if x.labels & y.labels:
        shared = sorted(x.labels & y.labels)
        raise ValueError(f"words share labels {shared}")
    return CyclicWord._of(x.rotated_to(a)[1:] + y.rotated_to(b)[1:])


def parse_word_items(ts: TokenStream) -> list[Token]:
    """Parse a parenthesized label list ``( label* )`` from the stream; the label tokens."""
    ts.expect("(")
    toks: list[Token] = []
    while True:
        tok = ts.peek()
        if tok.kind == ")":
            ts.advance()
            return toks
        if tok.kind == "glue":
            ts.error("glue tokens are not allowed in this context", tok)
        if tok.kind != "name":
            ts.error("expected a label or ')'", tok)
        toks.append(ts.advance())


__all__ = ["CyclicWord", "Renaming", "glue", "is_glue", "splice"]
