"""Release gate: nine executable criteria, exact equality, zero tolerance.

Each criterion prints one PASS/FAIL line on the terminal (straight through
pytest's capture) and fails its test on any deviation.  Numbers, family
sizes, and seeds are pinned so reruns are bit-for-bit comparable.
"""

import random
import time
from collections import Counter
from itertools import permutations

from oracles import catalan, double_factorial_odd, oracle_distribution
from surfops.canonical import canonical_diagram
from surfops.census import enumerate_matchings, enumerate_surfaces, label_subsets, random_diagram
from surfops.diagram import evaluate
from surfops.laws import (
    AXIOM_FAMILIES,
    SurfaceTarget,
    TerminalTarget,
    check_axioms,
    check_axioms_random,
    check_cyclic_morphism,
    check_modular_morphism,
    check_well_definedness,
    evaluate_expression,
    surface_sampler,
    terminal_inclusion,
)
from surfops.rewrite import apply_move, neighbors
from surfops.surface import Surface, compose, self_glue, to_surface
from surfops.words import CyclicWord

SEED = 20260817


def axiom_family():
    """Every surface on at most 4 labels with genus at most 2."""
    return [q for sub in label_subsets(4) for q in enumerate_surfaces(sub, 2)]


def round_trip_family():
    """At most 4 labels, at most 4 boundary cycles (empty ones included), genus at most 2."""
    out = []
    for sub in label_subsets(4):
        for base in enumerate_surfaces(sub, 2):
            for extra in range(4 - base.boundary_count + 1):
                cycles = base.cycles + (CyclicWord(()),) * extra
                out.append(Surface(cycles, base.genus))
    return out


def report_line(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


# Per-family instance counts of the exhaustive sweep over axiom_family().
EXHAUSTIVE_COUNTS = {
    "compose_symmetry": 3132,
    "rename_functoriality": 88641,
    "compose_equivariance": 52272,
    "contract_equivariance": 23472,
    "contract_commutativity": 432,
    "contract_compose_exchange": 864,
    "contract_factor_left": 648,
    "contract_factor_right": 648,
    "compose_associativity": 1296,
}


def test_criterion_1_axiom_suite(capsys):
    start = time.monotonic()
    elements = axiom_family()
    report = check_axioms(SurfaceTarget(), elements)
    exhaustive = {name: report.families[name].checked for name in AXIOM_FAMILIES}
    rng = random.Random(SEED)
    report.absorb(check_axioms_random(
        SurfaceTarget(),
        surface_sampler(max_labels=6, max_g=3, max_extra_empty=2),
        10_000,
        rng,
    ))
    elapsed = time.monotonic() - start
    ok = (
        len(elements) == 195
        and exhaustive == EXHAUSTIVE_COUNTS
        and report.passed
        and all(report.families[name].checked > 0 for name in AXIOM_FAMILIES)
        and elapsed < 120.0
    )
    report_line(capsys, 1, "axiom suite (exhaustive + 10000 random)", ok)
    assert report.passed, str(report)
    assert len(elements) == 195
    assert exhaustive == EXHAUSTIVE_COUNTS
    assert elapsed < 120.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_2_canonical_round_trip(capsys):
    start = time.monotonic()
    family = round_trip_family()
    bad = [q for q in family if evaluate(canonical_diagram(q).diagram) != q]
    elapsed = time.monotonic() - start
    ok = not bad and len(family) == 624 and elapsed < 60.0
    report_line(capsys, 2, "canonical expression round trip", ok)
    assert not bad, f"{len(bad)} failures, first: {bad[:1]}"
    assert len(family) == 624
    assert elapsed < 60.0, f"round trip took {elapsed:.1f}s"


def test_criterion_3_well_definedness(capsys):
    target = SurfaceTarget()
    failures = []
    for q in round_trip_family():
        agreement = check_well_definedness(target, to_surface, q)
        if agreement.values != (q,):
            failures.append((q, agreement))
    ok = not failures
    report_line(capsys, 3, "well-definedness across all presentations", ok)
    assert not failures, f"first failure: {failures[:1]}"


def test_criterion_4_move_soundness(capsys):
    rng = random.Random(SEED)
    diagrams = [
        random_diagram(rng, max_labels=6, max_arcs=6, ensure_handle=i % 2 == 0)
        for i in range(1200)
    ]
    crossing_pivots = 0
    failures = 0
    for d in diagrams:
        value = evaluate(d)
        arc_sets = [frozenset(arc) for arc in d.arcs]
        for x, y in d.arcs:
            i = d.base.index(x)
            seq = d.base[i:] + d.base[:i]
            inside = set(seq[1 : seq.index(y)])
            if any(len(inside & pair) == 1 for pair in arc_sets if pair != {x, y}):
                crossing_pivots += 1
        for move, successor in neighbors(d):
            if evaluate(successor) != value or successor != apply_move(d, move):
                failures += 1
    ok = failures == 0 and len(diagrams) >= 1000 and crossing_pivots > 0
    report_line(capsys, 4, "rewriting moves preserve the surface", ok)
    assert failures == 0
    assert len(diagrams) >= 1000
    assert crossing_pivots > 0, "family never exercised a crossed pivot arc"


def test_criterion_5_order_independence(capsys):
    pool = [d for n in range(5) for d in enumerate_matchings(n)]
    pool += [
        canonical_diagram(q).diagram
        for q in round_trip_family()
        if q.grade <= 4
    ]
    failures = 0
    checked = 0
    for d in pool:
        reference = evaluate(d)
        for order in permutations(d.arcs):
            checked += 1
            folded = to_surface(CyclicWord(d.base))
            for x, y in order:
                folded = self_glue(folded, x, y)
            if folded != reference:
                failures += 1
    ok = failures == 0 and checked > 0
    report_line(capsys, 5, "arc application order independence", ok)
    assert failures == 0 and checked > 0


def test_criterion_6_grade_bookkeeping(capsys):
    rng = random.Random(SEED)
    ok = True
    for q in axiom_family():
        ok = ok and q.grade == 2 * q.genus + q.boundary_count - 1
    for n in range(4):
        for d in enumerate_matchings(n):
            ok = ok and evaluate(d).grade == len(d.arcs)
    sampler = surface_sampler(max_labels=5, max_g=3, max_extra_empty=2)
    for _ in range(2000):
        q1 = sampler(rng, frozenset(), 1)
        q2 = sampler(rng, q1.labels, 1)
        a = rng.choice(sorted(q1.labels))
        b = rng.choice(sorted(q2.labels))
        out = compose(q1, a, q2, b)
        ok = ok and out.grade == q1.grade + q2.grade
        ok = ok and out.grade == 2 * out.genus + out.boundary_count - 1
        if len(out.labels) >= 2:
            c, d_ = rng.sample(sorted(out.labels), 2)
            glued = self_glue(out, c, d_)
            ok = ok and glued.grade == out.grade + 1
            ok = ok and glued.grade == 2 * glued.genus + glued.boundary_count - 1
    report_line(capsys, 6, "grade bookkeeping after every operation", ok)
    assert ok


def test_criterion_7_genus_distribution_oracle(capsys):
    from surfops.census import genus_distribution

    start = time.monotonic()
    ok = True
    expected_totals = [1, 3, 15, 105, 945]
    expected_catalan = [1, 2, 5, 14, 42]
    for n in range(1, 6):
        dist = genus_distribution(n)
        ok = ok and dist == oracle_distribution(n)
        folded = Counter(evaluate_expression(SurfaceTarget(), to_surface, d).genus for d in enumerate_matchings(n))
        ok = ok and folded == oracle_distribution(n)
        ok = ok and sum(dist.values()) == double_factorial_odd(n) == expected_totals[n - 1]
        ok = ok and dist[0] == catalan(n) == expected_catalan[n - 1]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report_line(capsys, 7, "independent genus distribution cross-check", ok)
    assert ok
    assert elapsed < 60.0, f"distribution check took {elapsed:.1f}s"


def test_criterion_8_morphism_suite(capsys):
    surfaces = [q for sub in label_subsets(3) for q in enumerate_surfaces(sub, 1)]
    from surfops.census import enumerate_cyclic_words

    words = [w for sub in label_subsets(3) for w in enumerate_cyclic_words(sub)]
    ok = True
    for target, include in [
        (SurfaceTarget(), to_surface),
        (TerminalTarget(), terminal_inclusion),
    ]:
        cyclic = check_cyclic_morphism(target, include, words, budget=3000)
        modular = check_modular_morphism(target, include, surfaces, budget=3000)
        ok = ok and cyclic.passed and modular.passed
        ok = ok and all(f.checked > 0 for f in cyclic.families.values())
        ok = ok and all(f.checked > 0 for f in modular.families.values())
    report_line(capsys, 8, "induced map is a morphism (both targets)", ok)
    assert ok


class _MergeWithoutGenus(SurfaceTarget):
    """Mutation: the cycle-merging contraction forgets its genus increment."""

    def contract(self, x, a, b):
        ca, cb = x.cycle_containing(a), x.cycle_containing(b)
        if ca is cb:
            return self_glue(x, a, b)
        rest = [w for w in x.cycles if w is not ca and w is not cb]
        merged = CyclicWord(cb.rotated_to(b)[1:] + ca.rotated_to(a)[1:])
        return Surface(rest + [merged], x.genus)


class _SplitMisrouted(SurfaceTarget):
    """Mutation: the cycle-splitting contraction dumps both sides into one cycle."""

    def contract(self, x, a, b):
        ca, cb = x.cycle_containing(a), x.cycle_containing(b)
        if ca is not cb:
            return self_glue(x, a, b)
        rest = [w for w in x.cycles if w is not ca]
        seq = ca.rotated_to(a)
        j = seq.index(b)
        return Surface(rest + [CyclicWord(seq[1:j] + seq[j + 1 :]), CyclicWord(())], x.genus)


class _ComposeKeepsLeftGenus(SurfaceTarget):
    """Mutation: composition keeps only the left genus."""

    def compose(self, x, a, y, b):
        honest = compose(x, a, y, b)
        return Surface(honest.cycles, x.genus)


def _mutated_distribution(n, mutant):
    counts = {}
    for d in enumerate_matchings(n):
        q = Surface([d.base], 0)
        for arc in d.arcs:
            q = mutant.contract(q, *arc)
        counts[q.genus] = counts.get(q.genus, 0) + 1
    return dict(sorted(counts.items()))


def test_criterion_9_mutation_sensitivity(capsys):
    family = [q for sub in label_subsets(2) for q in enumerate_surfaces(sub, 1)]

    merge_caught_by_axioms = not check_axioms(_MergeWithoutGenus(), family).passed
    merge_caught_by_distribution = _mutated_distribution(2, _MergeWithoutGenus()) != oracle_distribution(2)

    split_caught = False
    target = _SplitMisrouted()
    for q in family:
        agreement = check_well_definedness(target, to_surface, q)
        if agreement.values != (q,):
            split_caught = True
            break

    compose_caught = not check_axioms(_ComposeKeepsLeftGenus(), family).passed

    ok = (
        merge_caught_by_axioms
        and merge_caught_by_distribution
        and split_caught
        and compose_caught
    )
    report_line(capsys, 9, "mutated rules are caught by the suites", ok)
    assert merge_caught_by_axioms, "axiom suite missed the merge-contraction mutation"
    assert merge_caught_by_distribution, "distribution suite missed the merge-contraction mutation"
    assert split_caught, "well-definedness suite missed the split-contraction mutation"
    assert compose_caught, "axiom suite missed the composition-genus mutation"
