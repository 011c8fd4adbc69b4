"""Workload ``census``: the hz-table genus census plus an evaluation ladder of large diagrams.

``census.enumerate_matchings`` materialises every matching, which
``peak_rss_mib`` sees, and ``evaluate``'s roughly cubic growth only shows at
large arc counts.  CENSUS_N = 6 is 10 395 matchings (about 2.5 s); n = 7 is
13 times that, too long for one run.  The ladder evaluates diagrams of 50 to
400 arcs in two shapes: the chain (#1 #2)(#3 #4)... and a seeded random
matching.  Results are checked against the Harer-Zagier recursion and a face
count computed here, never against the package itself.
"""

from __future__ import annotations

import random
from functools import partial
from collections import Counter

import oracle
from common import capped, count_arcs, require, surface_key

CENSUS_N = 6
CENSUS_N_CAP = 7  # n = 7 takes about 40 s; n = 8 is 2 027 025 diagrams
LADDER = range(50, 401, 50)


def _points(n):
    return [f"#{k}" for k in range(1, 2 * n + 1)]


def setup(sp, seed, tr):
    capped("census n", CENSUS_N, CENSUS_N_CAP)
    rng = random.Random(seed)
    ladder = []
    for n in LADDER:
        base = _points(n)
        ladder.append(sp.ChordDiagram(base, [(base[2 * i], base[2 * i + 1]) for i in range(n)]))
        shuffled = list(base)
        rng.shuffle(shuffled)
        ladder.append(sp.ChordDiagram(base, [(shuffled[2 * i], shuffled[2 * i + 1]) for i in range(n)]))
    return ladder, oracle.harer_zagier(CENSUS_N)


def census_request(sp, tr, n):
    """The genus table over all matchings on 2n points.

    Untraced it is one ``genus_distribution`` call, the function behind
    ``hz-table``; traced, the matchings and their evaluation get spans of
    their own, so the two costs can be told apart.
    """
    capped("census n", n, CENSUS_N_CAP)
    if not tr.enabled:
        return sp.genus_distribution(n)
    matchings = tr.wrap(
        "census.enumerate_matchings",
        sp.enumerate_matchings,
        count=lambda out, n: {"census.enumerate_matchings.diagrams": len(out)},
    )(n)
    evaluate = tr.wrap("diagram.evaluate", sp.evaluate, count=count_arcs)
    counts = Counter(evaluate(d).genus for d in matchings)
    return {g: counts[g] for g in sorted(counts)}


def requests(sp, inputs, tr):
    ladder, table = inputs
    evaluate = tr.wrap("diagram.evaluate@ladder", sp.evaluate, count=count_arcs)

    def rung_ok(d, q):
        require(surface_key(q) == oracle.trace_faces(d.base, d.arcs), f"{len(d.arcs)}-arc diagram evaluated to {q}")
        return 1

    for d in ladder:
        yield "ladder", partial(evaluate, d), partial(rung_ok, d)

    def census_ok(dist):
        require(dist == table, f"census {dist} differs from the Harer-Zagier table {table}")
        return sum(dist.values())

    yield "census", lambda: census_request(sp, tr, CENSUS_N), census_ok
