"""Exhaustive and randomized generators for surfaces, words, and diagrams.

Exhaustive streams are emitted in a documented deterministic order: surfaces
ordered by (genus, canonical text), matchings ordered by their arc lists.
The genus table tabulates, for all perfect matchings on 2n points around a
circle, the genus of the evaluated surface.  It counts faces on integer
pairings (``partner[p]``, the point matched to ``p``) and builds no diagram
or surface; ``enumerate_matchings`` builds the diagrams from the same
pairings.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations, permutations
from math import prod
from typing import Iterable, Iterator, Sequence

from .diagram import ChordDiagram, _genus
from .surface import Surface
from .words import CyclicWord, _require_count, check_label, glue


def _label_set(labels: Iterable[str]) -> list[str]:
    """The distinct ``labels``, sorted, each checked as a user label."""
    names = sorted(set(labels))
    for name in names:
        check_label(name)
    return names


def cycle_decompositions(labels: Iterable[str]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """All ways to arrange the distinct ``labels`` into disjoint nonempty cyclic orders.

    Arrangements correspond to permutations of the label set (orbit walks
    give the cycles), so each arrangement appears exactly once.
    """
    base = _label_set(labels)
    for image in permutations(base):
        follower = dict(zip(base, image))
        seen: set[str] = set()
        cycles: list[tuple[str, ...]] = []
        for start in base:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = follower[start]
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = follower[nxt]
            cycles.append(tuple(cycle))
        yield tuple(cycles)


def enumerate_surfaces(labels: Iterable[str], max_g: int) -> list[Surface]:
    """All surfaces over exactly this label set with genus at most ``max_g``.

    The empty label set contributes the single-empty-cycle family; extra
    empty cycles are never generated here.
    """
    names = _label_set(labels)
    _require_count(max_g, "max_g", 0, "max_g must be nonnegative")
    out: list[Surface] = []
    for cycles in cycle_decompositions(names):
        # no labels decompose into no cycles: the surface then has one empty cycle
        words = [CyclicWord._of(c) for c in cycles] or [CyclicWord._of(())]
        out += [Surface._of(words, g) for g in range(max_g + 1)]
    out.sort(key=lambda s: (s.genus, str(s)))
    return out


def label_subsets(max_labels: int) -> Iterator[tuple[str, ...]]:
    """Every subset of the labels "1" .. ``max_labels``, smallest first, in combinations order."""
    _require_count(max_labels, "max_labels", 0, "max_labels must be nonnegative")
    universe = [str(i + 1) for i in range(max_labels)]
    return chain.from_iterable(combinations(universe, size) for size in range(max_labels + 1))


def enumerate_cyclic_words(labels: Iterable[str]) -> list[CyclicWord]:
    """All cyclic words over exactly this label set."""
    names = _label_set(labels)
    first, rest = tuple(names[:1]), names[1:]  # fix the first label; no labels give the empty word
    return sorted(
        (CyclicWord._of(first + tail) for tail in permutations(rest)),
        key=lambda w: w.items,
    )


_MAX_CHORDS = 9  # n = 9 is 34 459 425 matchings; n = 10 would be 654 729 075
_MAX_DIAGRAMS = 7  # enumerate_matchings keeps them all: n = 7 is 135 135, about 100 MiB; n = 8 would be 2 027 025


def _require_chords(n: int, limit: int, what: str) -> None:
    """Refuse an ``n`` that is not a nonnegative int, and one past ``limit``: (2n-1)!! grows factorially."""
    _require_count(n, "n", 0, "n must be nonnegative")
    if n > limit:
        count = prod(range(1, 2 * min(n, 50), 2))  # exact up to n = 50, a lower bound past it
        size = count if n <= 50 else f"more than {count:.1e}"
        raise ValueError(f"{what} of n = {n} chords would enumerate (2n-1)!! = {size} matchings; "
                         f"it is limited to n <= {limit}")


def _partner_arrays(m: int) -> Iterator[list[int]]:
    """Every perfect matching of the points 0 .. m-1, as ``partner[p]``, the point matched to ``p``.

    One list is filled in place by backtracking (the least unmatched point is
    paired with each later unmatched point in turn) and yielded at every leaf,
    so a caller that keeps a matching must copy it.
    """
    partner = [-1] * m

    def fill(first: int) -> Iterator[list[int]]:
        while first < m and partner[first] >= 0:
            first += 1
        if first == m:
            yield partner
            return
        for j in range(first + 1, m):
            if partner[j] < 0:
                partner[first], partner[j] = j, first
                yield from fill(first + 1)
                partner[j] = -1
        partner[first] = -1

    return fill(0)


def _face_count(partner: list[int]) -> int:
    """The faces of a matching: orbits of ``p -> partner[p] + 1 (mod m)``; no points are one face."""
    m = len(partner)
    seen = [False] * m
    faces = 0
    for start in range(m):
        if seen[start]:
            continue
        faces += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = partner[p] + 1
            if p == m:
                p = 0
    return faces or 1


def enumerate_matchings(n: int) -> list[ChordDiagram]:
    """All (2n-1)!! diagrams with base (#1 .. #2n) and a perfect matching, sorted by arcs, for 0 <= n <= 7."""
    _require_chords(n, _MAX_DIAGRAMS, "the diagram list")
    base = tuple(glue(k) for k in range(1, 2 * n + 1))
    # each arc starts at its lower point, in increasing order: canonical arcs
    diagrams = (ChordDiagram._of(base, tuple((base[i], base[j]) for i, j in enumerate(partner) if i < j))
                for partner in _partner_arrays(2 * n))
    return sorted(diagrams, key=lambda d: d.arcs)


def genus_distribution(n: int) -> dict[int, int]:
    """Counts of genus over all (2n-1)!! perfect matchings on 2n points, for 0 <= n <= 9.

    The census counts faces on integer pairings and builds no diagram or
    surface; n arcs with f faces have the genus ``diagram._genus(n, f)``.
    Larger n is a ValueError, because the count (2n-1)!! grows factorially.
    """
    _require_chords(n, _MAX_CHORDS, "the census")
    by_faces = Counter(_face_count(partner) for partner in _partner_arrays(2 * n))
    return dict(sorted((_genus(n, faces), count) for faces, count in by_faces.items()))


def distribution_rows(dist: dict[int, int]) -> str:
    lines = [f"g={g}: {count}" for g, count in sorted(dist.items())]
    lines.append(f"total: {sum(dist.values())}")
    return "\n".join(lines)


def random_surface(
    rng: random.Random,
    labels: Sequence[str],
    max_g: int,
    max_extra_empty: int = 0,
) -> Surface:
    """A random surface on exactly ``labels`` plus up to ``max_extra_empty`` empty cycles."""
    pool = list(labels)
    rng.shuffle(pool)
    cycles: list[tuple[str, ...]] = []
    while pool:
        size = rng.randint(1, len(pool))
        cycles.append(tuple(pool[:size]))
        pool = pool[size:]
    for _ in range(rng.randint(0, max_extra_empty)):
        cycles.append(())
    if not cycles:
        cycles.append(())
    return Surface(cycles, rng.randint(0, max_g))


_LABEL_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


def random_diagram(
    rng: random.Random,
    max_labels: int = 6,
    max_arcs: int = 6,
    ensure_handle: bool = False,
) -> ChordDiagram:
    """A random diagram on labels from ``a`` to ``h``; with ``ensure_handle`` it contains a handle block."""
    n_labels = rng.randint(0, max_labels)
    labels = rng.sample(_LABEL_POOL, n_labels)
    lo = 2 if ensure_handle else 1
    n_arcs = rng.randint(lo, max(lo, max_arcs))
    tokens = [glue(k) for k in range(1, 2 * n_arcs + 1)]
    rng.shuffle(tokens)
    block = tokens[:4] if ensure_handle else []  # the handle block: two interleaved arcs
    rest = tokens[len(block) :]
    arcs = [(block[0], block[2]), (block[1], block[3])] if block else []
    arcs += [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
    base = labels + rest
    rng.shuffle(base)
    if block:
        at = rng.randint(0, len(base))
        base[at:at] = block
    return ChordDiagram(base, arcs)


__all__ = [
    "cycle_decompositions",
    "enumerate_surfaces",
    "enumerate_cyclic_words",
    "enumerate_matchings",
    "genus_distribution",
    "distribution_rows",
    "random_surface",
    "random_diagram",
]
