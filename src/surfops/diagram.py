"""Chord diagrams: a cyclic base of labels and glue tokens plus an arc matching.

A diagram is pure syntax.  Its meaning is the surface obtained from the
one-cycle genus-zero surface on the base by self-gluing once per arc; the
grade of that surface always equals the number of arcs, and it does not
depend on the order in which the arcs are glued.

``evaluate`` computes the value without gluing: a diagram is a disc with one
band per arc, a one-vertex ribbon graph, and its boundary cycles are the
orbits of the face permutation "step to the next item; on a glue token, jump
to the item after its partner".  The genus then follows from the Euler
characteristic.  ``evaluate(d, order=...)`` folds ``self_glue`` over the arcs
in the given order instead, and serves as the reference the tracer is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .lexer import ParseError, TokenStream
from .surface import Surface, self_glue
from .words import CyclicWord, check_item, glue_id, is_glue, min_rotation

Arc = tuple[str, str]


def _sorted_arc(x: str, y: str) -> Arc:
    if glue_id(x) <= glue_id(y):
        return (x, y)
    return (y, x)


@dataclass(frozen=True, init=False)
class ChordDiagram:
    base: tuple[str, ...]
    arcs: tuple[Arc, ...]

    def __init__(self, base: Iterable[str], arcs: Iterable[Sequence[str]] = ()) -> None:
        items = tuple(base)
        for item in items:
            check_item(item)
        if len(set(items)) != len(items):
            raise ValueError("diagram base has a repeated item")
        pair_list = []
        matched: set[str] = set()
        for pair in arcs:
            x, y = pair
            if not (is_glue(x) and is_glue(y)):
                raise ValueError(f"arcs join glue tokens, got ({x!r} {y!r})")
            if x == y:
                raise ValueError(f"arc joins {x} to itself")
            for t in (x, y):
                if t in matched:
                    raise ValueError(f"token {t} occurs in more than one arc")
                matched.add(t)
            pair_list.append(_sorted_arc(x, y))
        base_tokens = {item for item in items if is_glue(item)}
        if matched != base_tokens:
            loose = sorted(base_tokens ^ matched, key=glue_id)
            raise ValueError(f"tokens not matched exactly once: {' '.join(loose)}")
        object.__setattr__(self, "base", min_rotation(items))
        object.__setattr__(self, "arcs", tuple(sorted(pair_list, key=lambda p: (glue_id(p[0]), glue_id(p[1])))))

    @property
    def tokens(self) -> frozenset[str]:
        return frozenset(item for item in self.base if is_glue(item))

    @property
    def user_labels(self) -> frozenset[str]:
        return frozenset(item for item in self.base if not is_glue(item))

    def rotated_to(self, item: str) -> tuple[str, ...]:
        try:
            i = self.base.index(item)
        except ValueError:
            raise ValueError(f"item {item!r} does not occur in {self}") from None
        return self.base[i:] + self.base[:i]

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
        items: list[str] = []
        positions: dict[str, int] = {}
        while ts.peek().kind in ("name", "glue"):
            tok = ts.advance()
            if tok.text in positions:
                ts.error(f"item {tok.text!r} occurs twice in the base", tok)
            positions[tok.text] = tok.pos
            items.append(tok.text)
        ts.expect(";", "a base item or ';'")
        arcs: list[Arc] = []
        matched: set[str] = set()
        while ts.peek().kind == "(":
            ts.advance()
            first = ts.expect("glue", "a glue token")
            second = ts.expect("glue", "a glue token")
            ts.expect(")")
            for tok in (first, second):
                if tok.text not in positions:
                    ts.error(f"arc token {tok.text} does not occur in the base", tok)
                if tok.text in matched:
                    ts.error(f"token {tok.text} occurs in more than one arc", tok)
                matched.add(tok.text)
            if first.text == second.text:
                ts.error(f"arc joins {first.text} to itself", second)
            arcs.append((first.text, second.text))
        ts.expect("]", "an arc or ']'")
        ts.expect_end()
        for item in items:
            if is_glue(item) and item not in matched:
                raise ParseError(f"token {item} is never matched by an arc", text, positions[item])
        return cls(items, arcs)


def evaluate(d: ChordDiagram, order: Sequence[Arc] | None = None) -> Surface:
    """The surface denoted by a diagram.

    By default the boundary cycles are traced as faces in one pass over the
    base.  With ``order`` the base disc is self-glued once per arc in that
    order instead; this fold is the reference the tracer is checked against,
    and the result is order-independent, which the test suite checks.
    """
    if order is None:
        return _trace_faces(d)
    arcs = tuple(order)
    if sorted(map(_sorted_arc_key, arcs)) != sorted(map(_sorted_arc_key, d.arcs)):
        raise ValueError("order must list exactly the diagram arcs")
    out = Surface((CyclicWord(d.base),), 0)
    for x, y in arcs:
        out = self_glue(out, x, y)
    assert out.grade == len(d.arcs)
    return out


def _trace_faces(d: ChordDiagram) -> Surface:
    """Read the boundary cycles of ``d`` off the orbits of its face permutation."""
    base = d.base
    m = len(base)
    index = {item: i for i, item in enumerate(base)}
    partner = list(range(m))  # a label is its own partner
    for x, y in d.arcs:
        i, j = index[x], index[y]
        partner[i], partner[j] = j, i
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
    twice_genus = k + 1 - len(cycles)
    if twice_genus < 0 or twice_genus % 2:
        raise AssertionError(f"{k} arcs and {len(cycles)} faces break the Euler characteristic")
    out = Surface(cycles, twice_genus // 2)
    if out.grade != k:
        raise AssertionError(f"traced surface has grade {out.grade}, expected {k}")
    return out


def _sorted_arc_key(pair: Sequence[str]) -> Arc:
    x, y = pair
    return _sorted_arc(x, y)


def render_dot(d: ChordDiagram) -> str:
    """A Graphviz rendering: base items around a circle, arcs as chords."""
    lines = ["graph diagram {", "  layout=circo;"]
    index = {item: i for i, item in enumerate(d.base)}
    for i, item in enumerate(d.base):
        shape = "point" if is_glue(item) else "circle"
        lines.append(f'  n{i} [label="{item}", shape={shape}];')
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


__all__ = ["Arc", "ChordDiagram", "evaluate", "render_dot"]
