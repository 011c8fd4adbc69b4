"""Rewriting moves on chord diagrams, and breadth-first move certificates.

Three moves transform a diagram without changing the surface it evaluates to:

* rotate: pick an arc {x, y}; the base splits as x S1 y S2; rotate S1 and S2
  independently (arcs travel with their tokens).  Other arcs may cross the
  pivot arc.
* boundary: a contiguous segment whose first and last items are matched by
  one arc may be cut out and reinserted after any item outside it.
* handle: four consecutive tokens a b c d with arcs {a, c} and {b, d} may be
  cut out as a block and reinserted after any item outside it.  ``_handles``
  is the one test for such a block.

Each move is a value (``RotateMove``, ``BoundaryMove``, ``HandleMove``), and
``apply_move`` is the one checked way to apply it.  ``neighbors`` builds every
single-move successor from the same sides and handle blocks, unchecked.

``find_certificate`` searches for a move sequence from one diagram to
another (same base items up to rotation, identical arcs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .diagram import Arc, ChordDiagram, _partner, evaluate
from .words import _require_count


@dataclass(frozen=True)
class RotateMove:
    arc: Arc
    k1: int
    k2: int

    def __str__(self) -> str:
        x, y = self.arc
        return f"main({x},{y}; {self.k1},{self.k2})"


@dataclass(frozen=True)
class BoundaryMove:
    first: str
    last: str
    after: str | None

    def __str__(self) -> str:
        dest = self.after if self.after is not None else "(in place)"
        return f"boundary({self.first}..{self.last} -> after {dest})"


@dataclass(frozen=True)
class HandleMove:
    tokens: tuple[str, str, str, str]
    after: str | None

    def __str__(self) -> str:
        dest = self.after if self.after is not None else "(in place)"
        return f"handle({''.join(self.tokens)} -> after {dest})"


Move = Union[RotateMove, BoundaryMove, HandleMove]


def _rot(seq: tuple[str, ...], k: int) -> tuple[str, ...]:
    if not seq:
        return seq
    k %= len(seq)
    return seq[k:] + seq[:k]


def _require_arc(d: ChordDiagram, x: str, y: str) -> None:
    if (x, y) not in d.arcs and (y, x) not in d.arcs:
        raise ValueError(f"{{{x}, {y}}} is not an arc of the diagram")


def _sides(d: ChordDiagram, x: str, y: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(S1, S2) where the base reads x S1 y S2 cyclically; x and y are distinct base items."""
    base = d.base
    i, j = base.index(x), base.index(y)
    if i < j:
        return base[i + 1 : j], base[j + 1 :] + base[:i]
    return base[i + 1 :] + base[:j], base[j + 1 : i]


def _reinserted(segment: tuple[str, ...], outside: tuple[str, ...], k: int, arcs: tuple[Arc, ...]) -> ChordDiagram:
    """The diagram with ``segment`` cut out of ``segment + outside`` and put back after ``outside[k]``."""
    return ChordDiagram._of(segment + outside[k + 1 :] + outside[: k + 1], arcs)


def apply_move(d: ChordDiagram, move: Move) -> ChordDiagram:
    """``d`` after one checked move; a move with ``after=None`` leaves ``d`` itself in place.

    A rotation needs an arc of exactly two items and integer amounts ``k1`` and
    ``k2`` (negative ones rotate backwards).  A boundary or handle move
    relocates its segment: the items from ``first`` to ``last`` (arc
    partners), or a handle block as ``_handles`` finds it.
    """
    if isinstance(move, RotateMove):
        try:
            x, y = move.arc
        except (TypeError, ValueError):
            raise ValueError(f"arc must be a pair of tokens, got {move.arc!r}") from None
        # a bool is an int to Python, but never a rotation amount
        if type(move.k1) is not int:
            raise ValueError(f"k1 must be an integer, got {move.k1!r}")
        if type(move.k2) is not int:
            raise ValueError(f"k2 must be an integer, got {move.k2!r}")
        _require_arc(d, x, y)
        s1, s2 = _sides(d, x, y)
        return ChordDiagram._of((x,) + _rot(s1, move.k1) + (y,) + _rot(s2, move.k2), d.arcs)
    if isinstance(move, BoundaryMove):
        _require_arc(d, move.first, move.last)
        s1, s2 = _sides(d, move.first, move.last)
        segment, outside = (move.first,) + s1 + (move.last,), s2
    elif isinstance(move, HandleMove):
        t = tuple(move.tokens)
        for segment, outside in _handles(d):
            if segment == t:
                break
        else:
            raise ValueError(f"tokens {' '.join(map(str, t))} are not a handle block of the diagram")
    else:
        raise TypeError(f"not a move: {move!r}")
    after = move.after
    if after is None:
        if outside:
            raise ValueError("an insertion point is required when items remain outside the segment")
        return d
    if after not in outside:
        raise ValueError(f"insertion point {after!r} is not outside the segment")
    return _reinserted(segment, outside, outside.index(after), d.arcs)


def apply_moves(d: ChordDiagram, moves: Sequence[Move]) -> ChordDiagram:
    for move in moves:
        d = apply_move(d, move)
    return d


def equivalent(d1: ChordDiagram, d2: ChordDiagram) -> bool:
    """True when the two diagrams evaluate to the same surface."""
    return evaluate(d1) == evaluate(d2)


def _handles(d: ChordDiagram) -> Iterator[tuple[tuple[str, str, str, str], tuple[str, ...]]]:
    """Each handle block of the base, in base order, with the items outside it in base order after it."""
    base = d.base
    n = len(base)
    if n < 4:
        return
    partner = _partner(d)
    for i in range(n):
        if partner[i] == (i + 2) % n and partner[(i + 1) % n] == (i + 3) % n:
            seq = base[i:] + base[:i]
            yield seq[:4], seq[4:]


def neighbors(d: ChordDiagram) -> Iterator[tuple[Move, ChordDiagram]]:
    """All single-move successors of ``d``, in a deterministic order.

    The sides and positions of each arc and handle are computed once, and
    every successor is built from them directly, unchecked.  ``apply_move``
    is the checked path, and gives the same diagram for each move yielded here.
    """
    arcs = d.arcs
    sides = [(arc, _sides(d, *arc)) for arc in arcs]
    for arc, (s1, s2) in sides:
        x, y = arc
        tails = [(y,) + _rot(s2, k2) for k2 in range(max(1, len(s2)))]
        for k1 in range(max(1, len(s1))):
            head = (x,) + _rot(s1, k1)
            for k2, tail in enumerate(tails):
                if k1 or k2:
                    yield RotateMove(arc, k1, k2), ChordDiagram._of(head + tail, arcs)
    for (x, y), (s1, s2) in sides:
        # the segment x S1 y has S2 outside it, and y S2 x has S1
        for first, last, inside, outside in ((x, y, s1, s2), (y, x, s2, s1)):
            segment = (first,) + inside + (last,)
            for k, after in enumerate(outside[:-1]):  # the final item is the current position
                yield BoundaryMove(first, last, after), _reinserted(segment, outside, k, arcs)
    for block, outside in _handles(d):
        for k, after in enumerate(outside[:-1]):
            yield HandleMove(block, after), _reinserted(block, outside, k, arcs)


def find_certificate(d1: ChordDiagram, d2: ChordDiagram, max_depth: int = 4) -> list[Move] | None:
    """A move sequence turning d1 into d2, or None if none exists within depth.

    Moves never change the item multiset, the arcs or the evaluated surface,
    so a certificate can exist only when all three agree, and None returns
    at once otherwise.  When they agree the search is a breadth-first walk
    with the frontier ordered by diagram text.
    """
    _require_count(max_depth, "max_depth", 0, "max_depth must be nonnegative")
    if d1 == d2:
        return []
    if sorted(d1.base) != sorted(d2.base) or d1.arcs != d2.arcs or evaluate(d1) != evaluate(d2):
        return None
    frontier: list[tuple[ChordDiagram, list[Move]]] = [(d1, [])]
    seen = {d1}
    for _ in range(max_depth):
        grown: list[tuple[ChordDiagram, list[Move]]] = []
        for d, path in frontier:
            for move, nd in neighbors(d):
                if nd == d2:
                    return path + [move]
                if nd not in seen:
                    seen.add(nd)
                    grown.append((nd, path + [move]))
        frontier = sorted(grown, key=lambda entry: str(entry[0]))
        if not frontier:
            return None
    return None


__all__ = [
    "RotateMove",
    "BoundaryMove",
    "HandleMove",
    "Move",
    "apply_move",
    "apply_moves",
    "equivalent",
    "neighbors",
    "find_certificate",
]
