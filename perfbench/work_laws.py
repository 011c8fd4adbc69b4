"""Workload ``laws``: the exhaustive axiom sweep, random axiom chunks, and the envelope check.

Almost all the time goes to the ``laws``, ``surface`` and ``words`` modules;
nothing is evaluated, rewritten, enumerated or parsed.  The pool is every
surface on at most 4 labels with genus 0 (65 elements): the smallest pool in
which all nine families are exercised, and about 4 s per sweep, so a run
repeats the whole request set several times.
"""

from __future__ import annotations

import random
from itertools import combinations

import oracle
from common import capped, require

UNIVERSE = 4
MAX_G = 0
POOL_CAP = 195  # the acceptance-criterion-1 pool; one more label multiplies the sweep by about 50
CHUNK = 27  # a multiple of 9 keeps the i % 9 family rotation identical to one long call
# With 150 requests a pass, one exhaustive sweep and one envelope check each, the 1% tail
# always falls on the envelope check, whatever the number of passes: a fixed amount of
# work, so request_p99_ms does not swing with the seed.
CHUNKS = 148
SAMPLER = {"max_labels": 6, "max_g": 3, "max_extra_empty": 2}
ENVELOPE = {"max_labels": 3, "max_g": 1}
# Per-family counts of check_universal_property(max_labels=3, max_g=1), the same for both
# targets.  The families that check each surface once count the envelope pool, derived in
# oracle; the others are a snapshot of the package at the commit that introduced this
# benchmark, so they catch drift but are not an independent oracle.
_ENVELOPE_SURFACES = oracle.pool_size(ENVELOPE["max_labels"], ENVELOPE["max_g"])
_ENVELOPE_FAMILIES = {
    "well_definedness": _ENVELOPE_SURFACES,
    "component_preservation": 9,
    "splice_compatibility": 18,
    "rename_equivariance": 44,
    "signature_preservation": 32,
    "rename_compatibility": 208,
    "compose_compatibility": 120,
    "contract_split_compatibility": 24,
    "contract_merge_compatibility": 24,
    "genus_zero_restriction": 9,
}
ENVELOPE_COUNTS = {f"{t}.{f}": n for t in ("surfaces", "terminal") for f, n in _ENVELOPE_FAMILIES.items()}
ENVELOPE_COUNTS.update({"surfaces.identity": _ENVELOPE_SURFACES, "terminal.signature_value": _ENVELOPE_SURFACES})
# The sweep's per-family counts for this pool, pinned; oracle.axiom_counts derives the same numbers.
EXHAUSTIVE_COUNTS = {
    "compose_symmetry": 348,
    "rename_functoriality": 29547,
    "compose_equivariance": 5808,
    "contract_equivariance": 7824,
    "contract_commutativity": 144,
    "contract_compose_exchange": 96,
    "contract_factor_left": 72,
    "contract_factor_right": 72,
    "compose_associativity": 48,
}


class Inputs:
    def __init__(self, sp, seed, pool):
        self.seed = seed
        self.pool = pool
        self.target = sp.SurfaceTarget


def pool(sp, universe, max_g):
    """Every surface on every subset of a ``universe``-label set, genus at most ``max_g``."""
    capped("exhaustive pool size", oracle.pool_size(universe, max_g), POOL_CAP)
    labels = [str(i + 1) for i in range(universe)]
    subsets = [c for k in range(universe + 1) for c in combinations(labels, k)]
    return [q for subset in subsets for q in sp.enumerate_surfaces(subset, max_g)]


def setup(sp, seed, tr):
    return Inputs(sp, seed, pool(sp, UNIVERSE, MAX_G))


def traced_target(sp, tr):
    """A ``Target`` that forwards to the surface layer and records a span per call."""
    rename = tr.wrap("surface.rename", lambda x, r: x.rename(r))
    compose = tr.wrap("surface.compose", sp.compose)
    self_glue = tr.wrap("surface.self_glue", sp.self_glue)
    labels = tr.wrap("surface.labels", lambda x: x.labels)
    grade = tr.wrap("surface.grade", lambda x: x.grade)

    class TracedSurfaceTarget(sp.Target):
        name = "surfaces"

        def rename(self, x, renaming):
            return rename(x, renaming)

        def compose(self, x, a, y, b):
            return compose(x, a, y, b)

        def contract(self, x, a, b):
            return self_glue(x, a, b)

        def labels_of(self, x):
            return labels(x)

        def grade_of(self, x):
            return grade(x)

    return TracedSurfaceTarget


def mutant_target(sp):
    """The merge contraction without its genus increment (acceptance criterion 9's mutant)."""

    class MergeWithoutGenus(sp.SurfaceTarget):
        def contract(self, x, a, b):
            ca, cb = x.cycle_containing(a), x.cycle_containing(b)
            if ca is cb:
                return sp.self_glue(x, a, b)
            rest = [w for w in x.cycles if w is not ca and w is not cb]
            merged = sp.CyclicWord(cb.rotated_to(b)[1:] + ca.rotated_to(a)[1:])
            return sp.Surface(rest + [merged], x.genus)

    return MergeWithoutGenus


def _checked(report):
    return {name: res.checked for name, res in report.families.items()}


def _count_checked(report, *args):
    return {f"laws.checked.{name}": res.checked for name, res in report.families.items()}


def requests(sp, inp, tr):
    target_cls = traced_target(sp, tr) if tr.enabled else inp.target
    check_axioms = tr.wrap("laws.check_axioms", sp.check_axioms, count=_count_checked)
    check_random = tr.wrap("laws.check_axioms_random", sp.check_axioms_random, count=_count_checked)
    check_envelope = tr.wrap("laws.check_universal_property", sp.check_universal_property)
    expected = oracle.axiom_counts(UNIVERSE, MAX_G)

    def exhaustive_ok(report):
        require(len(inp.pool) == oracle.pool_size(UNIVERSE, MAX_G), f"pool has {len(inp.pool)} elements")
        require(report.passed, f"exhaustive sweep failed:\n{report}")
        require(_checked(report) == expected == EXHAUSTIVE_COUNTS, f"exhaustive counts {_checked(report)}")
        return report.total_checked

    yield "exhaustive", lambda: check_axioms(target_cls(), inp.pool), exhaustive_ok

    rng = random.Random(inp.seed)
    sampler = sp.laws.surface_sampler(**SAMPLER)
    per_family = dict.fromkeys(EXHAUSTIVE_COUNTS, CHUNK // 9)

    def chunk_ok(report):
        require(report.passed, f"random chunk failed:\n{report}")
        require(_checked(report) == per_family, f"random chunk counts {_checked(report)}")
        return report.total_checked

    for _ in range(CHUNKS):
        yield "random", lambda: check_random(target_cls(), sampler, CHUNK, rng), chunk_ok

    def envelope_ok(report):
        require(report.passed, f"envelope check failed:\n{report}")
        require(_checked(report) == ENVELOPE_COUNTS, f"envelope counts {_checked(report)}")
        return report.total_checked

    yield "envelope", lambda: check_envelope(**ENVELOPE), envelope_ok


def ops_per_instance(stats, counters):
    ops = sum(stats.get(name, (0, 0.0))[0] for name in ("surface.rename", "surface.compose", "surface.self_glue"))
    instances = sum(v for k, v in counters.items() if k.startswith("laws.checked."))
    return ops / instances if instances else 0.0
