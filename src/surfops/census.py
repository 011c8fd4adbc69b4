"""Exhaustive and randomized generators for surfaces, words, and diagrams.

Exhaustive streams are emitted in a documented deterministic order: surfaces
ordered by (genus, canonical text), matchings ordered by their arc lists.
The genus table tabulates, for all perfect matchings on 2n points around a
circle, the genus of the evaluated surface.  Those counts are the
Harer-Zagier numbers, and the table computes them by their exact integer
recursion, enumerating nothing; ``enumerate_matchings`` builds the diagrams
themselves.

The pools of ``check-axioms`` and ``check-envelope`` (every element on a
subset of the labels "1" .. L, in ``label_subsets`` order) are built here:
``surface_pool`` and ``word_pool``, and ``laws.terminal_pool`` through the
same guard.  A pool on more than 6 labels, or of more than 1000 elements by
its size formula, is a ValueError before anything is built.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator, Sequence

from .diagram import ChordDiagram
from .surface import Surface
from .words import CyclicWord, _check_items, _items, _require_count, check_label, glue


def _label_set(labels: Iterable[str]) -> list[str]:
    """The distinct ``labels`` (never a bare string), sorted, each checked as a user label before the sort."""
    return sorted(set(map(check_label, _items(labels))))


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


# The sweeps over a pool grow much faster than the pool, so a pool is limited twice.
# 1000 elements keeps the defaults running, with the acceptance pool (195 surfaces at 4 labels,
# genus <= 2) and check-envelope at 5 labels, genus <= 2 (978 surfaces, 5-8 s on a 2-vCPU
# host); 6 labels, genus <= 1 has 3914 surfaces and took 92 s there.
# 6 labels, because the sweep grows factorially in the largest label set: rename_functoriality
# alone checks 1 + 2 k!^2 instances per element on k labels.  The terminal pool on 6 labels,
# genus 0 (128 elements) took 18.7 s there; on 7 labels its top two elements alone make about 1e8
# instances, and on 8 labels it has only 512 elements, which the size limit would let through.
_MAX_POOL = 1000
_MAX_POOL_LABELS = 6


def _pool(noun: str, max_labels: int, max_g: int, per_subset: Callable[[int], int],
          build: Callable[[tuple[str, ...]], list]) -> list:
    """``build(subset)`` for each of ``label_subsets(max_labels)``, joined in that order.

    ``per_subset(k)`` is the length of ``build`` on k labels, so the pool's size is known, and
    refused past ``_MAX_POOL`` elements or ``_MAX_POOL_LABELS`` labels, before anything is built.
    """
    _require_count(max_labels, "max_labels", 0, "max_labels must be nonnegative")
    _require_count(max_g, "max_g", 0, "max_g must be nonnegative")
    counted = min(max_labels, _MAX_POOL_LABELS + 1)  # exact up to the label limit, a lower bound past it
    size = sum(comb(counted, k) * per_subset(k) for k in range(counted + 1))
    if max_labels > _MAX_POOL_LABELS or size > _MAX_POOL:
        shown = size if counted == max_labels else f"more than {size}"
        raise ValueError(f"the {noun} would hold {shown} elements; pools are limited to {_MAX_POOL} elements "
                         f"on at most {_MAX_POOL_LABELS} labels")
    return [x for subset in label_subsets(max_labels) for x in build(subset)]


def surface_pool(max_labels: int, max_g: int) -> list[Surface]:
    """Every surface on a subset of the labels "1" .. ``max_labels`` with genus at most ``max_g``.

    It holds sum_k C(L, k) k! (max_g + 1) surfaces, and is limited as ``_pool`` says.
    """
    return _pool(f"surface pool of max_labels = {max_labels}, max_g = {max_g}", max_labels, max_g,
                 lambda k: factorial(k) * (max_g + 1), lambda subset: enumerate_surfaces(subset, max_g))


def word_pool(max_labels: int) -> list[CyclicWord]:
    """Every cyclic word on a subset of the labels "1" .. ``max_labels``.

    It holds sum_k C(L, k) max(1, (k-1)!) words, and is limited as ``_pool`` says.
    """
    return _pool(f"word pool of max_labels = {max_labels}", max_labels, 0,  # words have no genus
                 lambda k: factorial(max(k - 1, 0)), enumerate_cyclic_words)


_MAX_CHORDS = 1000  # (2n-1)!! has 2 867 digits, inside Python's default 4 300-digit int-to-text limit (text and JSON)
_MAX_DIAGRAMS = 7  # enumerate_matchings keeps them all: n = 7 is 135 135, about 100 MiB; n = 8 would be 2 027 025


def _pairings(points: tuple[str, ...]) -> Iterator[tuple[tuple[str, str], ...]]:
    """Every perfect matching of ``points``: the first is paired with each later point in turn.

    Arcs come lower point first, ordered by lower point (canonical arcs for ``points`` in base order).
    """
    if not points:
        yield ()
        return
    first = points[0]
    for i in range(1, len(points)):
        for rest in _pairings(points[1:i] + points[i + 1 :]):
            yield ((first, points[i]),) + rest


def enumerate_matchings(n: int) -> list[ChordDiagram]:
    """All (2n-1)!! diagrams with base (#1 .. #2n) and a perfect matching, sorted by arcs, for 0 <= n <= 7.

    An ``n`` past ``_MAX_DIAGRAMS`` is refused before anything is built: (2n-1)!! grows factorially.
    """
    _require_count(n, "n", 0, "n must be nonnegative")
    if n > _MAX_DIAGRAMS:
        count = prod(range(1, 2 * min(n, 50), 2))  # exact up to n = 50, a lower bound past it
        size = count if n <= 50 else f"more than {count:.1e}"
        raise ValueError(f"the diagram list of n = {n} chords would enumerate (2n-1)!! = {size} matchings; "
                         f"it is limited to n <= {_MAX_DIAGRAMS}")
    base = tuple(glue(k) for k in range(1, 2 * n + 1))
    # arc text order, not glue id order: from n = 5, "#10" < "#2"
    return sorted((ChordDiagram._of(base, arcs) for arcs in _pairings(base)), key=lambda d: d.arcs)


def genus_distribution(n: int) -> dict[int, int]:
    """Counts of genus over all (2n-1)!! perfect matchings on 2n points, for 0 <= n <= 1000.

    These are the Harer-Zagier numbers eps_g(n) (Harer & Zagier, Invent. Math.
    85, 1986), computed by their exact recursion from eps_0(0) = 1:
    (k+1) eps_g(k) = (4k-2) eps_g(k-1) + (k-1)(2k-1)(2k-3) eps_{g-1}(k-2).
    Nothing is enumerated.  Larger n is a ValueError (see ``_MAX_CHORDS``).
    """
    _require_count(n, "n", 0, "n must be nonnegative")
    if n > _MAX_CHORDS:
        raise ValueError(f"the census of n = {n} chords is limited to n <= {_MAX_CHORDS}, which keeps its total "
                         f"(2n-1)!! inside Python's 4300-digit limit for printing an int")
    older, old = [], [1]  # eps_g(k-2) and eps_g(k-1), by genus g
    for k in range(1, n + 1):
        row = []
        # [0] + older has k//2 + 1 entries, one per genus of k chords, so zip stops there
        for g, (same, fewer) in enumerate(zip(old + [0], [0] + older)):
            count, rest = divmod((4 * k - 2) * same + (k - 1) * (2 * k - 1) * (2 * k - 3) * fewer, k + 1)
            if rest:
                raise AssertionError(f"eps_{g}({k}) is not an integer: {k + 1} leaves {rest}")
            row.append(count)
        older, old = old, row
    return dict(enumerate(old))


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
    """A random surface on exactly ``labels`` plus up to ``max_extra_empty`` empty cycles, genus at most ``max_g``.

    ``labels`` are distinct items and no bare string, and ``max_g`` and ``max_extra_empty`` are
    nonnegative ints, all checked first.
    """
    _require_count(max_g, "max_g", 0, "max_g must be nonnegative")
    _require_count(max_extra_empty, "max_extra_empty", 0, "max_extra_empty must be nonnegative")
    pool = list(_items(labels))
    _check_items(pool, "label {!r} occurs in more than one position")
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
    return Surface._of([CyclicWord._of(cycle) for cycle in cycles], rng.randint(0, max_g))


_LABEL_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


def random_diagram(
    rng: random.Random,
    max_labels: int = 6,
    max_arcs: int = 6,
    ensure_handle: bool = False,
) -> ChordDiagram:
    """A random diagram on labels from ``a`` to ``h``; with ``ensure_handle`` it contains a handle block.

    ``max_labels`` is an int from 0 to 8 and ``max_arcs`` a nonnegative int (at least one arc is drawn,
    two with ``ensure_handle``), both checked before anything is drawn from ``rng``.
    """
    in_range = f"max_labels must be from 0 to {len(_LABEL_POOL)}, got {{}}"
    _require_count(max_labels, "max_labels", 0, in_range)
    if max_labels > len(_LABEL_POOL):
        raise ValueError(in_range.format(max_labels))
    _require_count(max_arcs, "max_arcs", 0, "max_arcs must be nonnegative")
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
