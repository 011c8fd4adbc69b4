"""Independent combinatorial oracles used to cross-check the package.

The genus oracle never touches the package's gluing rules: it computes
boundary components of a one-vertex ribbon graph by tracing faces of the
rotation system.  Points 1..2n sit on a circle; the matching is the band
attachment; the face permutation is "step around the circle after jumping
through the band".
"""

from __future__ import annotations

from math import comb


def faces_of_matching(n: int, pairs: list[tuple[int, int]]) -> int:
    """Number of cycles of sigma∘alpha on points 1..2n."""
    alpha: dict[int, int] = {}
    for i, j in pairs:
        alpha[i] = j
        alpha[j] = i
    assert len(alpha) == 2 * n

    def phi(p: int) -> int:
        return alpha[p] % (2 * n) + 1

    seen: set[int] = set()
    cycles = 0
    for start in range(1, 2 * n + 1):
        if start in seen:
            continue
        cycles += 1
        p = start
        while p not in seen:
            seen.add(p)
            p = phi(p)
    return cycles


def genus_boundary_of_matching(n: int, pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """(genus, boundary count) of the disc with n bands attached per ``pairs``.

    Euler characteristic: 1 - n = 2 - 2g - b with b the face count.
    """
    b = faces_of_matching(n, pairs)
    g2 = n + 1 - b
    assert g2 % 2 == 0 and g2 >= 0
    return g2 // 2, b


def all_pair_partitions(points: list[int]) -> list[list[tuple[int, int]]]:
    if not points:
        return [[]]
    out = []
    rest = points[1:]
    for k in range(len(rest)):
        partner = rest[k]
        remaining = rest[:k] + rest[k + 1 :]
        for tail in all_pair_partitions(remaining):
            out.append([(points[0], partner)] + tail)
    return out


def oracle_distribution(n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for pairs in all_pair_partitions(list(range(1, 2 * n + 1))):
        g, _ = genus_boundary_of_matching(n, pairs)
        counts[g] = counts.get(g, 0) + 1
    return dict(sorted(counts.items()))


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = number of perfect matchings on 2n points."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def is_handle(window: list[str] | tuple[str, ...], arcs: list[tuple[str, str]]) -> bool:
    """Whether four consecutive base items a b c d are tokens with arcs {a, c} and {b, d}."""
    partner = {}
    for x, y in arcs:
        partner[x] = y
        partner[y] = x
    a, b, c, d = window
    return partner.get(a) == c and partner.get(b) == d


def successor_bases(base: list[str], arcs: list[tuple[str, str]]) -> list[list[str]]:
    """Every single-move successor base, one per move, read off the move definitions.

    rotate: for an arc {x, y} the base reads x S1 y S2; each side turns by
    any amount, not both by none.  boundary: the segment from one end of an
    arc to the other, either way round, goes after an item outside it.
    handle: four consecutive tokens a b c d with arcs {a, c} and {b, d} go
    after an item outside them.  Putting a piece back after the item just
    before it gives the base again, so that position is no move.
    """
    n = len(base)
    where = {item: i for i, item in enumerate(base)}

    def run(start, length):
        return [base[(start + t) % n] for t in range(length)]

    def turned(side, k):
        return [side[(t + k) % len(side)] for t in range(len(side))]

    def moved(piece, start):
        before = base[(start - 1) % n]
        rest = run(start + len(piece), n - len(piece))
        out = []
        for after in rest:
            if after == before:
                continue
            new = []
            for item in rest:
                new.append(item)
                if item == after:
                    new.extend(piece)
            out.append(new)
        return out

    successors = []
    for x, y in arcs:
        gap = (where[y] - where[x]) % n
        side1, side2 = run(where[x] + 1, gap - 1), run(where[y] + 1, n - gap - 1)
        for k1 in range(max(1, len(side1))):
            for k2 in range(max(1, len(side2))):
                if k1 or k2:
                    successors.append([x] + turned(side1, k1) + [y] + turned(side2, k2))
    for x, y in arcs:
        for first, last in ((x, y), (y, x)):
            length = (where[last] - where[first]) % n + 1
            successors += moved(run(where[first], length), where[first])
    if n >= 4:
        for i in range(n):
            window = run(i, 4)
            if is_handle(window, arcs):
                successors += moved(window, i)
    return successors


def canonical_surface(cycles, genus: int) -> tuple[tuple[tuple[str, ...], ...], int]:
    """A surface as (cycles, genus), each cycle at its least rotation among all of them, the cycles sorted."""
    least = [min(c[i:] + c[:i] for i in range(len(c))) if c else () for c in map(tuple, cycles)]
    return tuple(sorted(least)), genus


def rename_reference(surface, mapping: dict[str, str]):
    """Send every label of a (cycles, genus) pair through ``mapping``; cycles and genus keep their shape."""
    cycles, genus = surface
    return canonical_surface([[mapping[x] for x in c] for c in cycles], genus)


def _reconnected(cycles, a: str, b: str) -> list[tuple[str, ...]]:
    """The boundary after gluing the marked points a and b, traced segment by segment.

    The segment that starts at label x runs to the label after x.  Gluing
    sends the walk that reaches a on from b's segment, and the walk that
    reaches b on from a's.  Each orbit of segments is one boundary cycle,
    which reads the starts of its segments other than a and b; empty cycles
    are not touched.
    """
    after = {}
    for c in cycles:
        for i, x in enumerate(c):
            after[x] = c[(i + 1) % len(c)]
    swap = {a: b, b: a}
    out = [() for c in cycles if not c]
    seen = set()
    for start in after:
        if start in seen:
            continue
        word = []
        x = start
        while x not in seen:
            seen.add(x)
            if x not in swap:
                word.append(x)
            x = swap.get(after[x], after[x])
        out.append(tuple(word))
    return out


def _genus_from_euler(euler: int, boundaries: int) -> int:
    """The genus of a connected surface: euler = 2 - 2g - b."""
    twice = 2 - euler - boundaries
    assert twice >= 0 and twice % 2 == 0, (euler, boundaries)
    return twice // 2


def compose_reference(left, a: str, right, b: str):
    """Glue (cycles, genus) pairs along a of ``left`` and b of ``right``: a band joins them, so euler drops by one."""
    (c1, g1), (c2, g2) = left, right
    cycles = _reconnected(list(c1) + list(c2), a, b)
    euler = (2 - 2 * g1 - len(c1)) + (2 - 2 * g2 - len(c2)) - 1
    return canonical_surface(cycles, _genus_from_euler(euler, len(cycles)))


def self_glue_reference(surface, a: str, b: str):
    """Glue the marked points a and b of one (cycles, genus) pair with a band."""
    cycles, genus = surface
    glued = _reconnected(cycles, a, b)
    return canonical_surface(glued, _genus_from_euler(2 - 2 * genus - len(cycles) - 1, len(glued)))


def tokenize_reference(text: str) -> list[tuple[str, str, int]]:
    """The lexer as a character loop: a list of (kind, text, pos), or ValueError(reason, pos).

    Punctuation characters are tokens of their own kind, whitespace separates
    names, and '#' followed by str.isdigit characters is a glue token.
    """
    punctuation = "(){}[]^;,"
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in punctuation:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i + 1 : j]
            if not digits:
                raise ValueError("expected digits after '#'", i)
            if digits[0] == "0":
                raise ValueError("glue token ids are positive integers without leading zeros", i)
            tokens.append(("glue", f"#{digits}", i))
            i = j
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in punctuation and text[j] != "#":
            if not text[j].isprintable():
                raise ValueError(f"unprintable character {text[j]!r}", j)
            j += 1
        tokens.append(("name", text[i:j], i))
        i = j
    tokens.append(("end", "", n))
    return tokens
