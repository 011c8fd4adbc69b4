"""Workload ``moves``: neighbour checks on small random diagrams, plus certificate queries.

Here ``rewrite`` and the ``ChordDiagram`` constructor work on values derived
inside the library, and ``evaluate`` runs on many small diagrams.  Diagrams
come from ``random_diagram`` (at most 6 labels and 6 arcs, every other one
with a handle), kept by quota: QUOTA diagrams of every (handle, labels,
arcs) shape among DRAWS draws, taken at evenly spaced quantiles of that
shape's successor counts (for QUOTA = 2, the quartiles).  That is the
sampler's own distribution, stratified by shape and by successor count, so
the per-run mix of sizes, and with it the timings, does not swing with the
seed; a fixed draw count keeps set-up time from swinging too.

Certificate queries start from random diagrams of exactly 3 labels, 4 arcs and
CERT_NEIGHBOURS single-move successors (the commonest count for that shape),
searched to depth CERT_DEPTH.  Positive pairs are one or two moves apart;
negative pairs have the same items and arcs but evaluate to different
surfaces, so no certificate can exist and the search runs to full depth.
The negative ones are the slowest requests, about 4% of them, so they set
``request_p99_ms``; fixing the successor count keeps their cost within about
10% of each other, so p99 does not swing with the seed.
"""

from __future__ import annotations

import random
from functools import partial

import oracle
from common import capped, count_arcs, require, surface_key

QUOTA = 2
DRAWS = 1200  # about 8 per shape; more draws only if a shape has fewer than QUOTA
MAX_LABELS = 6
MAX_ARCS = 6
CERT_SHAPE = (3, 4)
CERT_NEIGHBOURS = 80
CERT_DEPTH = 2
CERT_DEPTH_CAP = 2  # depth 3 on a 6-arc pair takes minutes
CERT_POSITIVE = 8  # half one move apart, half two
CERT_NEGATIVE = 6


def _certificate_source(sp, rng):
    labels, arcs = CERT_SHAPE
    while True:
        tokens = [f"#{k}" for k in range(1, 2 * arcs + 1)]
        base = [chr(ord("a") + k) for k in range(labels)] + tokens
        rng.shuffle(base)
        rng.shuffle(tokens)
        pairs = [(tokens[i], tokens[i + 1]) for i in range(0, len(tokens), 2)]
        if oracle.move_count(base, pairs) == CERT_NEIGHBOURS:
            return sp.ChordDiagram(base, pairs)


def _random_move(sp, rng, d):
    """A rotate or boundary move on a random arc, chosen here rather than by ``neighbors``."""
    x, y = rng.sample(d.arcs[rng.randrange(len(d.arcs))], 2)
    i = d.base.index(x)
    seq = d.base[i:] + d.base[:i]
    j = seq.index(y)
    inside, outside = seq[1:j], seq[j + 1 :]
    if len(outside) >= 2 and rng.random() < 0.5:
        return sp.BoundaryMove(x, y, rng.choice(outside[:-1]))
    return sp.RotateMove((x, y), rng.randrange(max(1, len(inside))), rng.randrange(max(1, len(outside))))


def certificate_query(find_certificate, source, target, depth):
    return find_certificate(source, target, capped("certificate depth", depth, CERT_DEPTH_CAP))


def setup(sp, seed, tr):
    random_diagram = tr.wrap("census.random_diagram", sp.random_diagram)
    rng = random.Random(seed)
    shapes = [
        (handle, labels, arcs)
        for handle in (True, False)
        for labels in range(MAX_LABELS + 1)
        for arcs in range(2 if handle else 1, MAX_ARCS + 1)
    ]
    draws = {shape: [] for shape in shapes}
    i = 0
    while i < DRAWS or any(len(ds) < QUOTA for ds in draws.values()):
        handle = i % 2 == 0
        i += 1
        d = random_diagram(rng, MAX_LABELS, MAX_ARCS, ensure_handle=handle)
        draws[handle, len(d.user_labels), len(d.arcs)].append(d)
    diagrams = []
    for ds in draws.values():
        ds.sort(key=lambda d: oracle.move_count(d.base, d.arcs))
        diagrams += [ds[(2 * k + 1) * len(ds) // (2 * QUOTA)] for k in range(QUOTA)]
    rng.shuffle(diagrams)

    crng = random.Random(f"moves-certificates-{seed}")
    queries = []
    for k in range(CERT_POSITIVE):
        source = target = _certificate_source(sp, crng)
        for _ in range(1 + k % 2):
            target = sp.apply_move(target, _random_move(sp, crng, target))
        queries.append((source, target, CERT_DEPTH, True))
    for _ in range(CERT_NEGATIVE):
        source = _certificate_source(sp, crng)
        want = oracle.trace_faces(source.base, source.arcs)
        while True:
            base = list(source.base)
            crng.shuffle(base)
            if oracle.trace_faces(base, source.arcs) != want:
                break
        queries.append((source, sp.ChordDiagram(base, source.arcs), CERT_DEPTH, False))
    return diagrams, queries


def requests(sp, inputs, tr):
    diagrams, queries = inputs
    evaluate = tr.wrap("diagram.evaluate", sp.evaluate, count=count_arcs)
    neighbors = tr.wrap(
        "rewrite.neighbors",
        lambda d: list(sp.neighbors(d)),
        count=lambda out, d: {"rewrite.neighbors.successors": len(out)},
    )
    apply_move = tr.wrap("rewrite.apply_move", sp.apply_move)
    find_certificate = tr.wrap(
        "rewrite.find_certificate",
        sp.find_certificate,
        count=lambda cert, *query: {"rewrite.find_certificate.found": int(cert is not None)},
    )

    def neighbour_check(d):
        value = evaluate(d)
        return d, value, [(s, evaluate(s), apply_move(d, move)) for move, s in neighbors(d)]

    def neighbour_ok(out):
        d, value, successors = out
        want = oracle.trace_faces(d.base, d.arcs)
        require(surface_key(value) == want, f"{d} evaluated to {value}")
        moves = oracle.move_count(d.base, d.arcs)
        require(len(successors) == moves, f"{d} has {len(successors)} successors, not {moves}")
        for s, s_value, replay in successors:
            require(surface_key(s_value) == want, f"successor {s} of {d} evaluated to {s_value}")
            require(replay == s, f"replaying the move to {s} gave {replay}")
        return 1 + len(successors)

    for d in diagrams:
        yield "neighbors", partial(neighbour_check, d), neighbour_ok

    def certificate_ok(query, cert):
        source, target, depth, exists = query
        if not exists:
            require(cert is None, f"certificate {cert} between inequivalent {source} and {target}")
            return 0
        require(cert is not None and len(cert) <= depth, f"no certificate within {depth} for {source} -> {target}")
        require(sp.apply_moves(source, cert) == target, f"certificate {cert} does not replay to {target}")
        return 0

    for q in queries:
        yield "certificate", partial(certificate_query, find_certificate, *q[:3]), partial(certificate_ok, q)
