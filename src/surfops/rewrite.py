"""Rewriting moves on chord diagrams, and breadth-first move certificates.

Three moves transform a diagram without changing the surface it evaluates to:

* rotate: pick an arc {x, y}; the base splits as x S1 y S2; rotate S1 and S2
  independently (arcs travel with their tokens).  Other arcs may cross the
  pivot arc.
* boundary: a contiguous segment whose first and last items are matched by
  one arc may be cut out and reinserted after any item outside it.
* handle: four consecutive tokens a b c d with arcs {a, c} and {b, d} may be
  cut out as a block and reinserted after any item outside it.

``find_certificate`` searches for a move sequence from one diagram to
another (same base items up to rotation, identical arcs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .diagram import Arc, ChordDiagram, evaluate


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


def rotate_sides(d: ChordDiagram, arc: Sequence[str], k1: int, k2: int) -> ChordDiagram:
    """Rotate the two sides of the pivot arc by k1 and k2 positions."""
    x, y = arc
    _require_arc(d, x, y)
    seq = d.rotated_to(x)
    j = seq.index(y)
    s1, s2 = seq[1:j], seq[j + 1 :]
    return ChordDiagram._of((x,) + _rot(s1, k1) + (y,) + _rot(s2, k2), d.arcs)


def _reinsert(d: ChordDiagram, segment: tuple[str, ...], outside: tuple[str, ...], after: str | None) -> ChordDiagram:
    if after is None:
        if outside:
            raise ValueError("an insertion point is required when items remain outside the segment")
        return d
    if after not in outside:
        raise ValueError(f"insertion point {after!r} is not outside the segment")
    k = outside.index(after)
    return ChordDiagram._of(segment + outside[k + 1 :] + outside[: k + 1], d.arcs)


def move_boundary(d: ChordDiagram, first: str, last: str, after: str | None) -> ChordDiagram:
    """Relocate the contiguous segment from ``first`` to ``last`` (arc partners)."""
    _require_arc(d, first, last)
    seq = d.rotated_to(first)
    j = seq.index(last)
    return _reinsert(d, seq[: j + 1], seq[j + 1 :], after)


def move_handle(d: ChordDiagram, tokens: Sequence[str], after: str | None) -> ChordDiagram:
    """Relocate a handle block: four consecutive tokens with interleaved arcs."""
    t = tuple(tokens)
    if len(t) != 4:
        raise ValueError("a handle consists of four tokens")
    seq = d.rotated_to(t[0])
    if seq[:4] != t:
        raise ValueError(f"tokens {' '.join(t)} are not consecutive in the base")
    _require_arc(d, t[0], t[2])
    _require_arc(d, t[1], t[3])
    return _reinsert(d, seq[:4], seq[4:], after)


def apply_move(d: ChordDiagram, move: Move) -> ChordDiagram:
    if isinstance(move, RotateMove):
        return rotate_sides(d, move.arc, move.k1, move.k2)
    if isinstance(move, BoundaryMove):
        return move_boundary(d, move.first, move.last, move.after)
    if isinstance(move, HandleMove):
        return move_handle(d, move.tokens, move.after)
    raise TypeError(f"not a move: {move!r}")


def apply_moves(d: ChordDiagram, moves: Sequence[Move]) -> ChordDiagram:
    for move in moves:
        d = apply_move(d, move)
    return d


def equivalent(d1: ChordDiagram, d2: ChordDiagram) -> bool:
    """True when the two diagrams evaluate to the same surface."""
    return evaluate(d1) == evaluate(d2)


def _handles(d: ChordDiagram) -> Iterator[tuple[str, str, str, str]]:
    base = d.base
    n = len(base)
    if n < 4:
        return
    arcset = {frozenset(p) for p in d.arcs}
    for i in range(n):
        block = tuple(base[(i + k) % n] for k in range(4))
        if frozenset(block[::2]) in arcset and frozenset(block[1::2]) in arcset:
            yield block


def neighbors(d: ChordDiagram) -> Iterator[tuple[Move, ChordDiagram]]:
    """All single-move successors of ``d``, in a deterministic order."""
    for arc in d.arcs:
        x, y = arc
        seq = d.rotated_to(x)
        j = seq.index(y)
        n1, n2 = j - 1, len(seq) - j - 1
        for k1 in range(max(1, n1)):
            for k2 in range(max(1, n2)):
                if k1 or k2:
                    yield RotateMove(arc, k1, k2), rotate_sides(d, arc, k1, k2)
    for arc in d.arcs:
        for first, last in (arc, arc[::-1]):
            seq = d.rotated_to(first)
            j = seq.index(last)
            segment, outside = seq[: j + 1], seq[j + 1 :]
            for after in outside[:-1]:  # the final item is the current position
                yield BoundaryMove(first, last, after), _reinsert(d, segment, outside, after)
    for block in _handles(d):
        seq = d.rotated_to(block[0])
        outside = seq[4:]
        for after in outside[:-1]:
            yield HandleMove(block, after), _reinsert(d, seq[:4], outside, after)


def find_certificate(d1: ChordDiagram, d2: ChordDiagram, max_depth: int = 4) -> list[Move] | None:
    """A move sequence turning d1 into d2, or None if none exists within depth.

    Moves never change the item multiset, the arcs or the evaluated surface,
    so a certificate can exist only when all three agree, and None returns
    at once otherwise.  When they agree the search is a breadth-first walk
    with the frontier ordered by diagram text.
    """
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
    "rotate_sides",
    "move_boundary",
    "move_handle",
    "apply_move",
    "apply_moves",
    "equivalent",
    "neighbors",
    "find_certificate",
]
