"""Chord diagrams: a cyclic base of labels and glue tokens plus an arc matching.

A diagram is pure syntax.  Its meaning is the surface obtained from the
one-cycle genus-zero surface on the base by self-gluing once per arc; the
grade of that surface always equals the number of arcs, and it does not
depend on the order in which the arcs are glued.

``evaluate`` computes the value without gluing: a diagram is a disc with one
band per arc, a one-vertex ribbon graph.  ``_partner`` reads it as one array
over base positions (the moves' handle test reads it too).  The faces are
the orbits of ``p -> partner[p] + 1``, and ``_genus`` is the Euler step.  The
arc fold itself (include the base word, then contract each arc in turn) is
``laws.evaluate_expression``.

``ChordDiagram(...)`` checks base and arcs, and ``parse`` goes through it.
Diagrams derived from valid ones (moves, layouts, matchings) skip the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .lexer import TokenStream, _ItemError
from .surface import Surface
from .words import CyclicWord, _check_items, _items, _least_first, _Value, is_glue

Arc = tuple[str, str]


@dataclass(frozen=True, init=False)
class ChordDiagram(_Value):
    base: tuple[str, ...]
    arcs: tuple[Arc, ...]

    def __init__(self, base: Iterable[str], arcs: Iterable[Sequence[str]] = ()) -> None:
        """Check ``base`` and ``arcs``; a failure names its index in ``base`` followed by the arc endpoints."""
        items = _items(base)
        _check_items(items, "item {!r} occurs twice in the base")
        # a glue token's rank: id order is (length, text) order, and no id is ever converted
        rank = {item: (len(item), item) for item in items if item.startswith("#")}
        matched: set[str] = set()
        oriented: list[Arc] = []
        for n, arc in enumerate(map(_items, arcs)):
            if len(arc) != 2:
                raise _ItemError(f"arc must be a pair of tokens, got {arc!r}", len(items) + 2 * n)
            x, y = arc
            for at, t in enumerate(arc, len(items) + 2 * n):
                if not isinstance(t, str) or t not in rank:
                    glue_like = isinstance(t, str) and t.startswith("#")
                    raise _ItemError(f"arc token {t} does not occur in the base" if glue_like
                                     else f"arcs join glue tokens, got ({x!r} {y!r})", at)
                if t in matched:
                    raise _ItemError(f"token {t} occurs in more than one arc", at)
                matched.add(t)
            oriented.append((x, y) if rank[x] < rank[y] else (y, x))
        for i, item in enumerate(items):
            if item in rank and item not in matched:
                raise _ItemError(f"token {item} is never matched by an arc", i)
        self._build(items, tuple(sorted(oriented, key=lambda arc: rank[arc[0]])))

    def _build(self, base: tuple[str, ...], arcs: tuple[Arc, ...]) -> None:
        """Store the canonical rotation of ``base``, whose items must be pairwise distinct.

        ``arcs`` must be canonical already: each from its lower glue id, sorted by that id.
        """
        object.__setattr__(self, "base", _least_first(base))
        object.__setattr__(self, "arcs", arcs)

    @property
    def tokens(self) -> frozenset[str]:
        return frozenset(item for item in self.base if is_glue(item))

    @property
    def user_labels(self) -> frozenset[str]:
        return frozenset(item for item in self.base if not is_glue(item))

    def rename_tokens(self, mapping: Mapping[str, str]) -> "ChordDiagram":
        """Apply a bijective relabeling of the glue tokens; arcs follow."""
        if set(mapping) != set(self.tokens):
            raise ValueError("token renaming must cover exactly the diagram tokens")
        base = tuple(mapping.get(item, item) for item in self.base)
        arcs = tuple((mapping[x], mapping[y]) for x, y in self.arcs)
        return ChordDiagram(base, arcs)

    def __str__(self) -> str:
        pieces = ["["] + list(self.base) + [";"]
        pieces += [f"({x} {y})" for x, y in self.arcs]
        pieces.append("]")
        return " ".join(pieces)

    def to_json(self) -> dict:
        return {"base": list(self.base), "arcs": [list(p) for p in self.arcs]}

    @classmethod
    def parse(cls, text: str) -> "ChordDiagram":
        ts = TokenStream(text)
        ts.expect("[")
        base = []
        while ts.peek().kind in ("name", "glue"):
            base.append(ts.advance())
        ts.expect(";", "a base item or ';'")
        ends = []
        while ts.peek().kind == "(":
            ts.advance()
            ends.append(ts.expect("glue", "a glue token"))
            ends.append(ts.expect("glue", "a glue token"))
            ts.expect(")")
        ts.expect("]", "an arc or ']'")
        ts.expect_end()
        arcs = [(x.text, y.text) for x, y in zip(ends[::2], ends[1::2])]
        return ts.build(lambda: cls([tok.text for tok in base], arcs), base + ends)


def _partner(d: ChordDiagram) -> list[int]:
    """``partner[p]``: the position an arc matches to ``p``, or ``p`` for a label."""
    index = {item: i for i, item in enumerate(d.base)}
    partner = list(range(len(d.base)))
    for x, y in d.arcs:
        i, j = index[x], index[y]
        partner[i], partner[j] = j, i
    return partner


def _genus(arcs: int, faces: int) -> int:
    """The genus of a one-vertex ribbon graph with these counts: 2g = arcs + 1 - faces."""
    twice_genus = arcs + 1 - faces
    if twice_genus < 0 or twice_genus % 2:
        raise AssertionError(f"{arcs} arcs and {faces} faces break the Euler characteristic")
    return twice_genus // 2


def evaluate(d: ChordDiagram) -> Surface:
    """The surface ``d`` denotes, its boundary cycles read off the orbits of its face permutation.

    It equals the ``self_glue`` fold in every arc order, which the tests check.
    """
    base = d.base
    m = len(base)
    partner = _partner(d)
    seen = [False] * m
    cycles: list[list[str]] = []
    for start in range(m):
        if seen[start]:
            continue
        labels: list[str] = []
        p = start
        while not seen[p]:
            seen[p] = True
            if partner[p] == p:
                labels.append(base[p])
            p = (partner[p] + 1) % m
        cycles.append(labels)
    if not cycles:
        cycles.append([])  # the empty base is one empty boundary cycle
    k = len(d.arcs)
    out = Surface._of([CyclicWord._of(tuple(c)) for c in cycles], _genus(k, len(cycles)))
    if out.grade != k:
        raise AssertionError(f"traced surface has grade {out.grade}, expected {k}")
    return out


def render_dot(d: ChordDiagram) -> str:
    """A Graphviz rendering: base items around a circle, arcs as chords."""
    lines = ["graph diagram {", "  layout=circo;"]
    index = {item: i for i, item in enumerate(d.base)}
    for i, item in enumerate(d.base):
        shape = "point" if is_glue(item) else "circle"
        label = item.replace("\\", "\\\\").replace('"', '\\"')  # DOT escapes inside a quoted string
        lines.append(f'  n{i} [label="{label}", shape={shape}];')
    k = len(d.base)
    if k == 2:
        lines.append("  n0 -- n1;")
    elif k > 2:
        for i in range(k):
            lines.append(f"  n{i} -- n{(i + 1) % k};")
    for x, y in d.arcs:
        lines.append(f"  n{index[x]} -- n{index[y]} [constraint=false, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = ["ChordDiagram", "evaluate", "render_dot"]
