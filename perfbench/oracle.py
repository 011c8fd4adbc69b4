"""Reference computations that the benchmark's output gates compare against.

Nothing here imports surfops.  A surface is a pair ``(cycles, genus)`` with
``cycles`` a tuple of label tuples; ``canonical`` puts it in the package's
documented normal form (each cycle at its least rotation, cycles sorted by
length then content), so package results can be compared field by field.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial


class Precondition(Exception):
    """An operation was asked for on inputs that violate its preconditions."""


def min_rotation(items):
    items = tuple(items)
    if len(items) < 2:
        return items
    return min(items[i:] + items[:i] for i in range(len(items)))


def canonical(cycles, genus):
    words = [min_rotation(c) for c in cycles]
    return tuple(sorted(words, key=lambda w: (len(w), w))), genus


def surface_text(surface) -> str:
    cycles, genus = surface
    inner = " ".join("( " + " ".join(c) + " )" if c else "( )" for c in cycles)
    return f"{{ {inner} }}^{genus}"


def _token_id(item: str) -> int:
    return int(item[1:])


def diagram_text(base, arcs) -> str:
    """The package's printed form: least rotation of the base, arcs ordered by token id."""
    pairs = sorted((tuple(sorted(arc, key=_token_id)) for arc in arcs), key=lambda p: tuple(map(_token_id, p)))
    return " ".join(["[", *min_rotation(base), ";", *(f"({x} {y})" for x, y in pairs), "]"])


def parse_diagram_text(text: str):
    """(base, arcs) from the printed form ``[ items ; (#i #j) ... ]``."""
    words = text.split()
    if words[:1] != ["["] or words[-1:] != ["]"] or ";" not in words:
        raise ValueError(f"not a printed diagram: {text!r}")
    cut = words.index(";")
    ends = words[cut + 1 : -1]
    arcs = [(ends[i][1:], ends[i + 1][:-1]) for i in range(0, len(ends), 2)]
    return tuple(words[1:cut]), arcs


def trace_faces(base, arcs):
    """Boundary cycles and genus of a chord diagram, by tracing its faces.

    The diagram is a one-vertex ribbon graph: walking along the base, a glue
    token jumps to its partner and continues after it.  Each orbit of that
    walk is one boundary cycle, listing the labels it passes; the genus
    follows from the Euler characteristic 2 - 2g - b = 1 - k for k arcs.
    """
    base = tuple(base)
    n = len(base)
    position = {item: i for i, item in enumerate(base)}
    partner = {}
    for x, y in arcs:
        partner[position[x]] = position[y]
        partner[position[y]] = position[x]
    if not partner:
        return canonical([base], 0)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        labels = []
        p = start
        while not seen[p]:
            seen[p] = True
            if p in partner:
                p = (partner[p] + 1) % n
            else:
                labels.append(base[p])
                p = (p + 1) % n
        cycles.append(tuple(labels))
    twice_genus = len(arcs) + 1 - len(cycles)
    if twice_genus < 0 or twice_genus % 2:
        raise AssertionError("face count inconsistent with the Euler characteristic")
    return canonical(cycles, twice_genus // 2)


def move_count(base, arcs) -> int:
    """How many single rewriting moves a diagram admits, by the move definitions.

    Rotating the two sides of an arc by (k1, k2) other than (0, 0); moving the
    segment from one end of an arc to the other after any outside item but
    its current predecessor, from either end; moving a handle block (four
    consecutive tokens with interleaved arcs) likewise.
    """
    base = tuple(base)
    n = len(base)
    position = {item: i for i, item in enumerate(base)}
    pairs = {frozenset(arc) for arc in arcs}
    count = 0
    for x, y in arcs:
        inside = (position[y] - position[x]) % n - 1
        count += max(1, inside) * max(1, n - inside - 2) - 1
        count += max(0, n - inside - 3) + max(0, inside - 1)
    for i in range(n if n >= 4 else 0):
        a, b, c, d = (base[(i + k) % n] for k in range(4))
        if {a, c} in pairs and {b, d} in pairs:
            count += max(0, n - 5)
    return count


def _rotated_to(cycle, label):
    i = cycle.index(label)
    return cycle[i:] + cycle[:i]


def _cycle_of(cycles, label):
    for c in cycles:
        if label in c:
            return c
    raise Precondition(f"no marked point {label!r}")


def compose(left, a, right, b):
    """Join cycle (a P) of ``left`` and (b Q) of ``right`` into (P Q); genus adds."""
    (c1, g1), (c2, g2) = left, right
    if {x for c in c1 for x in c} & {x for c in c2 for x in c}:
        raise Precondition("surfaces share labels")
    ca, cb = _cycle_of(c1, a), _cycle_of(c2, b)
    rest = list(c1)
    rest.remove(ca)
    others = list(c2)
    others.remove(cb)
    spliced = _rotated_to(ca, a)[1:] + _rotated_to(cb, b)[1:]
    return canonical(rest + others + [spliced], g1 + g2)


def self_glue(surface, a, b):
    """Glue two marked points: (a A b B) splits into (B), (A); (a A), (b B) merge into (B A)."""
    cycles, genus = surface
    if a == b:
        raise Precondition("self-gluing needs two distinct marked points")
    ca, cb = _cycle_of(cycles, a), _cycle_of(cycles, b)
    rest = list(cycles)
    rest.remove(ca)
    if ca is cb:
        seq = _rotated_to(ca, a)
        j = seq.index(b)
        return canonical(rest + [seq[j + 1 :], seq[1:j]], genus)
    rest.remove(cb)
    return canonical(rest + [_rotated_to(cb, b)[1:] + _rotated_to(ca, a)[1:]], genus + 1)


def rename(surface, mapping):
    cycles, genus = surface
    labels = {x for c in cycles for x in c}
    if not labels <= set(mapping) or len(set(mapping.values())) != len(mapping):
        raise Precondition("renaming must be a bijection covering every marked point")
    return canonical([tuple(mapping[x] for x in c) for c in cycles], genus)


def presentation_count(cycles) -> int:
    """Distinct (cycle order, rotations) layouts of a surface's cycles."""
    empties = sum(1 for c in cycles if not c)
    count = factorial(len(cycles)) // factorial(empties)
    for c in cycles:
        count *= max(1, len(c))
    return count


def harer_zagier(n: int) -> dict[int, int]:
    """Genus counts over all (2n-1)!! chord matchings on 2n points.

    (n+1) e_g(n) = (4n-2) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2), e_0(0) = 1
    (Harer and Zagier, Invent. Math. 85, 1986).
    """
    rows = [{0: 1}]
    for m in range(1, n + 1):
        prev, prev2 = rows[m - 1], rows[m - 2] if m >= 2 else {}
        row = {}
        for g in range(m // 2 + 1):
            total = (4 * m - 2) * prev.get(g, 0) + (m - 1) * (2 * m - 1) * (2 * m - 3) * prev2.get(g - 1, 0)
            if total % (m + 1):
                raise AssertionError("Harer-Zagier recursion left a remainder")
            if total:
                row[g] = total // (m + 1)
        rows.append(row)
    return rows[n]


def pool_size(universe_size: int, max_g: int) -> int:
    """Surfaces on all subsets of the universe, genus at most ``max_g``: s! per label set of size s."""
    return sum(comb(universe_size, s) * factorial(s) for s in range(universe_size + 1)) * (max_g + 1)


def axiom_counts(universe_size: int, max_g: int) -> dict[str, int]:
    """Instances per axiom family that an exhaustive sweep must check.

    The pool is every surface on every subset of a ``universe_size``-label
    universe with genus at most ``max_g`` and no extra empty cycles: a label
    set of size s carries s! * (max_g + 1) surfaces.  Each family enumerates
    label choices, renamings (2 * s! per element: permutations and fresh
    names) and partner elements exhaustively; the sums below count them.
    """
    universe = range(universe_size)
    sets = [frozenset(c) for s in range(universe_size + 1) for c in combinations(universe, s)]

    def n(ls):
        return factorial(len(ls)) * (max_g + 1)

    def renamings(s):
        return 2 * factorial(s)

    counts = dict.fromkeys(
        (
            "compose_symmetry",
            "rename_functoriality",
            "compose_equivariance",
            "contract_equivariance",
            "contract_commutativity",
            "contract_compose_exchange",
            "contract_factor_left",
            "contract_factor_right",
            "compose_associativity",
        ),
        0,
    )
    for ls in sets:
        s = len(ls)
        counts["rename_functoriality"] += n(ls) * (1 + renamings(s) * factorial(s))
        counts["contract_equivariance"] += n(ls) * comb(s, 2) * renamings(s)
        counts["contract_commutativity"] += n(ls) * comb(s, 2) * comb(max(s - 2, 0), 2)
    for l1 in sets:
        for l2 in sets:
            if l1 & l2:
                continue
            s1, s2 = len(l1), len(l2)
            pairs = n(l1) * n(l2)
            counts["compose_symmetry"] += pairs * s1 * s2
            counts["compose_equivariance"] += pairs * s1 * s2 * renamings(s1) * renamings(s2)
            counts["contract_compose_exchange"] += pairs * s1 * (s1 - 1) * s2 * (s2 - 1)
            counts["contract_factor_left"] += pairs * s1 * comb(max(s1 - 1, 0), 2) * s2
            counts["contract_factor_right"] += pairs * s1 * s2 * comb(max(s2 - 1, 0), 2)
            for l3 in sets:
                if (l1 | l2) & l3:
                    continue
                counts["compose_associativity"] += pairs * n(l3) * s1 * s2 * (s2 - 1) * len(l3)
    return counts
