"""Canonical diagram presentations of surfaces.

Every surface with b cycles and genus g is the evaluation of a chord diagram
with 2g+b-1 arcs in a fixed layout: the cycles laid side by side, consecutive
cycles separated by one arc, followed by g blocks of four consecutive tokens
whose arcs interleave (the handle pattern).  ``canonical_diagram`` builds the
presentation for the default cycle order and rotations; ``all_canonical_diagrams``
enumerates the presentations over every cycle order and every rotation, up
to a limit of 100 000 presentations.  Both refuse a glue token as a label,
and a surface whose grade (its presentation's arc count) is above 200 000.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import perm, prod

from .diagram import Arc, ChordDiagram
from .surface import Surface
from .words import glue, is_glue

Handle = tuple[str, str, str, str]
_MAX_PRESENTATIONS = 100_000
_MAX_ARCS = 200_000  # one cycle of genus 10^5 is 200 000 arcs: 0.85 s and 125 MiB peak RSS on a 2-vCPU host


@dataclass(frozen=True)
class CanonicalExpression:
    """A diagram together with its layout bookkeeping."""

    diagram: ChordDiagram
    cycle_order: tuple[tuple[str, ...], ...]
    separating: tuple[Arc, ...]
    handles: tuple[Handle, ...]

    def annotation(self) -> str:
        order = " ".join("( " + " ".join(c) + " )" if c else "( )" for c in self.cycle_order)
        sep = " ".join(f"({x} {y})" for x, y in self.separating) or "-"
        hnd = " ".join("(" + " ".join(h) + ")" for h in self.handles) or "-"
        return f"order: {order} | separating: {sep} | handles: {hnd}"

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "cycle_order": [list(c) for c in self.cycle_order],
            "separating": [list(p) for p in self.separating],
            "handles": [list(h) for h in self.handles],
        }


def _build(genus: int, order: tuple[tuple[str, ...], ...]) -> CanonicalExpression:
    b = len(order)
    grade = 2 * genus + b - 1
    items: list[str] = list(order[0])
    separating: list[Arc] = []
    for i in range(2, b + 1):
        lo, hi = glue(2 * i - 3), glue(2 * i - 2)
        items += [lo, *order[i - 1], hi]
        separating.append((lo, hi))
    items += [glue(k) for k in range(2 * b - 1, 2 * grade + 1)]
    handles: list[Handle] = []
    arcs: list[Arc] = list(separating)
    for j in range(genus):
        t = 2 * b - 1 + 4 * j
        handles.append((glue(t), glue(t + 1), glue(t + 2), glue(t + 3)))
        arcs.append((glue(t), glue(t + 2)))
        arcs.append((glue(t + 1), glue(t + 3)))
    return CanonicalExpression(
        diagram=ChordDiagram._of(tuple(items), tuple(arcs)),
        cycle_order=order,
        separating=tuple(separating),
        handles=tuple(handles),
    )


def _require_presentable(q: Surface) -> None:
    glued = sorted(filter(is_glue, q.labels))
    if glued:
        raise ValueError(f"label {glued[0]!r} is a glue token; a canonical presentation keeps those for its arcs")
    if q.grade > _MAX_ARCS:
        raise ValueError(f"the surface has grade {q.grade}; a canonical presentation is limited to {_MAX_ARCS} arcs")


def canonical_diagram(q: Surface) -> CanonicalExpression:
    """The presentation for the canonical cycle order and rotations."""
    _require_presentable(q)
    return _build(q.genus, tuple(w.items for w in q.cycles))


def all_canonical_diagrams(q: Surface) -> list[CanonicalExpression]:
    """Presentations for every cycle order and every cycle rotation.

    Identical empty cycles fill the slots the nonempty ones leave, so each
    presentation is built once; the result is ordered by the placed cycle
    tuples.  A surface with more than 100 000 presentations is a precondition
    error that names the count.
    """
    _require_presentable(q)
    b, nonempty = len(q.cycles), [w for w in q.cycles if w.items]
    count = perm(b, len(nonempty)) * prod(len(w.items) for w in nonempty)  # b!/e! orders of b cycles, e empty
    if count > _MAX_PRESENTATIONS:
        raise ValueError(f"the surface has {count} canonical presentations; "
                         f"enumerating them is limited to {_MAX_PRESENTATIONS}")
    orders = []
    for slots in permutations(range(b), len(nonempty)):
        for rots in product(*(tuple(w.rotations()) for w in nonempty)):
            order = [()] * b
            for slot, rot in zip(slots, rots):
                order[slot] = rot
            orders.append(tuple(order))
    return [_build(q.genus, order) for order in sorted(orders)]


__all__ = ["CanonicalExpression", "canonical_diagram", "all_canonical_diagrams"]
