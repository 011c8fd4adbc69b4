"""Targets, induced maps, axiom and morphism checkers."""

import gc
import random
import re
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from surfops import laws
from surfops.census import label_subsets, random_diagram, random_surface, surface_pool, word_pool
from surfops.diagram import evaluate
from surfops.laws import (
    AXIOM_FAMILIES,
    SurfaceTarget,
    Target,
    TerminalElement,
    TerminalTarget,
    check_axioms,
    check_axioms_random,
    check_cyclic_morphism,
    check_modular_morphism,
    check_universal_property,
    check_well_definedness,
    evaluate_expression,
    induce,
    surface_sampler,
    terminal_inclusion,
    terminal_pool,
    terminal_sampler,
)
from surfops.surface import Surface, compose, self_glue, to_surface
from surfops.words import CyclicWord, Renaming


class NoGenusBump(SurfaceTarget):
    def contract(self, x, a, b):
        ca, cb = x.cycle_containing(a), x.cycle_containing(b)
        if ca is cb:
            return self_glue(x, a, b)
        rest = [w for w in x.cycles if w is not ca and w is not cb]
        merged = CyclicWord(cb.rotated_to(b)[1:] + ca.rotated_to(a)[1:])
        return Surface(rest + [merged], x.genus)  # forgets the +1


# The enumeration order, the budget cut and the counterexample text, pinned verbatim.
BROKEN_CONTRACT_REPORT = """\
axiom check against target 'surfaces'
  compose_symmetry                 8 checked    0 failed  ok
  rename_functoriality            54 checked    0 failed  ok
  compose_equivariance            32 checked    0 failed  ok
  contract_equivariance           16 checked    8 failed  FAIL
  counterexample for contract_equivariance:
    x = { ( 1 ) ( 2 ) }^0
    a = 1
    b = 2
    rho = {1->1, 2->2}
    lhs = bookkeeping broke under contract: got { ( ) }^0
    rhs = (postcondition)
  contract_commutativity           0 checked    0 failed  VACUOUS
  contract_compose_exchange        0 checked    0 failed  VACUOUS
  contract_factor_left             0 checked    0 failed  VACUOUS
  contract_factor_right            0 checked    0 failed  VACUOUS
  compose_associativity            0 checked    0 failed  VACUOUS
  total: 110 checked, 8 failed -> FAIL (5 of 9 families vacuous)"""

BUDGET_10_REPORT = """\
axiom check against target 'surfaces'
  compose_symmetry                 8 checked    0 failed  ok
  rename_functoriality            10 checked    0 failed  ok
  compose_equivariance            10 checked    0 failed  ok
  contract_equivariance           10 checked    0 failed  ok
  contract_commutativity           0 checked    0 failed  VACUOUS
  contract_compose_exchange        0 checked    0 failed  VACUOUS
  contract_factor_left             0 checked    0 failed  VACUOUS
  contract_factor_right            0 checked    0 failed  VACUOUS
  compose_associativity            0 checked    0 failed  VACUOUS
  total: 38 checked, 0 failed -> PASS (5 of 9 families vacuous)"""

# check-envelope at its defaults; with budget=3 every family stops at three instances.
ENVELOPE_REPORT = """\
universal-property check over 32 surfaces (labels <= 3, genus <= 1)
  surfaces.well_definedness                   32 checked    0 failed  ok
  surfaces.component_preservation              9 checked    0 failed  ok
  surfaces.splice_compatibility               18 checked    0 failed  ok
  surfaces.rename_equivariance                44 checked    0 failed  ok
  surfaces.signature_preservation             32 checked    0 failed  ok
  surfaces.rename_compatibility              208 checked    0 failed  ok
  surfaces.compose_compatibility             120 checked    0 failed  ok
  surfaces.contract_split_compatibility       24 checked    0 failed  ok
  surfaces.contract_merge_compatibility       24 checked    0 failed  ok
  surfaces.genus_zero_restriction              9 checked    0 failed  ok
  terminal.well_definedness                   32 checked    0 failed  ok
  terminal.component_preservation              9 checked    0 failed  ok
  terminal.splice_compatibility               18 checked    0 failed  ok
  terminal.rename_equivariance                44 checked    0 failed  ok
  terminal.signature_preservation             32 checked    0 failed  ok
  terminal.rename_compatibility              208 checked    0 failed  ok
  terminal.compose_compatibility             120 checked    0 failed  ok
  terminal.contract_split_compatibility       24 checked    0 failed  ok
  terminal.contract_merge_compatibility       24 checked    0 failed  ok
  terminal.genus_zero_restriction              9 checked    0 failed  ok
  surfaces.identity                           32 checked    0 failed  ok
  terminal.signature_value                    32 checked    0 failed  ok
  total: 1104 checked, 0 failed -> PASS"""

ENVELOPE_BUDGET_3_REPORT = """\
universal-property check over 32 surfaces (labels <= 3, genus <= 1)
  surfaces.well_definedness                    3 checked    0 failed  ok
  surfaces.component_preservation              3 checked    0 failed  ok
  surfaces.splice_compatibility                3 checked    0 failed  ok
  surfaces.rename_equivariance                 3 checked    0 failed  ok
  surfaces.signature_preservation              3 checked    0 failed  ok
  surfaces.rename_compatibility                3 checked    0 failed  ok
  surfaces.compose_compatibility               3 checked    0 failed  ok
  surfaces.contract_split_compatibility        3 checked    0 failed  ok
  surfaces.contract_merge_compatibility        3 checked    0 failed  ok
  surfaces.genus_zero_restriction              3 checked    0 failed  ok
  terminal.well_definedness                    3 checked    0 failed  ok
  terminal.component_preservation              3 checked    0 failed  ok
  terminal.splice_compatibility                3 checked    0 failed  ok
  terminal.rename_equivariance                 3 checked    0 failed  ok
  terminal.signature_preservation              3 checked    0 failed  ok
  terminal.rename_compatibility                3 checked    0 failed  ok
  terminal.compose_compatibility               3 checked    0 failed  ok
  terminal.contract_split_compatibility        3 checked    0 failed  ok
  terminal.contract_merge_compatibility        3 checked    0 failed  ok
  terminal.genus_zero_restriction              3 checked    0 failed  ok
  surfaces.identity                            3 checked    0 failed  ok
  terminal.signature_value                     3 checked    0 failed  ok
  total: 66 checked, 0 failed -> PASS"""

# (checked, failures) per family for faulty maps over the envelope's default pools; they do
# not depend on the order instances are drawn in.
NO_GENUS_BUMP_MODULAR_COUNTS = {
    "signature_preservation": (32, 16),
    "rename_compatibility": (208, 0),
    "compose_compatibility": (120, 0),
    "contract_split_compatibility": (24, 0),
    "contract_merge_compatibility": (24, 24),
    "genus_zero_restriction": (9, 0),
}
TWISTED_CYCLIC_COUNTS = {
    "component_preservation": (9, 4),
    "splice_compatibility": (18, 18),
    "rename_equivariance": (44, 24),
}


def twisted(w: CyclicWord) -> Surface:
    """The inclusion pre-composed with a fixed swap of 1 and 2, which is not equivariant."""
    table = {"1": "2", "2": "1"}
    return Surface([tuple(table.get(item, item) for item in w.items)], 0)


class MinimalTarget(Target):
    """Only the three operations; the harness reads labels and grades from the values."""

    name = "minimal"

    def rename(self, x, renaming):
        return TerminalElement(frozenset(map(renaming, x.labels)), x.grade)

    def compose(self, x, a, y, b):
        return TerminalElement((x.labels - {a}) | (y.labels - {b}), x.grade + y.grade)

    def contract(self, x, a, b):
        return TerminalElement(x.labels - {a, b}, x.grade + 1)


def test_terminal_target_operations():
    t = TerminalTarget()
    x = TerminalElement(frozenset({"a", "b"}), 0)
    y = TerminalElement(frozenset({"c"}), 2)
    assert t.compose(x, "a", y, "c") == TerminalElement(frozenset({"b"}), 2)
    assert t.contract(x, "a", "b") == TerminalElement(frozenset(), 1)
    assert t.rename(x, Renaming({"a": "p", "b": "q"})).labels == frozenset({"p", "q"})
    with pytest.raises(ValueError):
        t.compose(x, "z", y, "c")
    with pytest.raises(ValueError):
        t.contract(x, "a", "a")


def test_induce_is_identity_on_surfaces():
    target = SurfaceTarget()
    for q in surface_pool(2, 1):
        assert induce(target, to_surface, q) == q


def test_induce_terminal_hits_signature():
    target = TerminalTarget()
    for q in surface_pool(2, 1):
        assert induce(target, terminal_inclusion, q) == TerminalElement(q.labels, q.grade)


def test_evaluate_expression_on_plain_diagrams():
    rng = random.Random(1414)
    for i in range(200):
        d = random_diagram(rng, ensure_handle=i % 2 == 1)
        q = evaluate(d)
        assert evaluate_expression(SurfaceTarget(), to_surface, d) == q
        assert evaluate_expression(TerminalTarget(), terminal_inclusion, d) == TerminalElement(q.labels, q.grade)


def test_induce_no_contractions_at_grade_zero():
    q = Surface.parse("{ ( 1 2 3 ) }^0")
    assert induce(SurfaceTarget(), to_surface, q) == q
    assert induce(TerminalTarget(), terminal_inclusion, q) == terminal_inclusion(
        CyclicWord(("1", "2", "3"))
    )


def test_axioms_pass_on_surfaces():
    report = check_axioms(SurfaceTarget(), surface_pool(2, 1))
    assert report.passed, str(report)
    assert report.total_checked > 0
    assert all(f.checked > 0 for n, f in report.families.items()
               if n in ("compose_symmetry", "rename_functoriality", "contract_equivariance"))


def test_axioms_pass_on_terminal():
    elements = [TerminalElement(frozenset(sub), g) for sub in label_subsets(4) for g in range(3)]
    report = check_axioms(TerminalTarget(), elements, budget=400)
    assert report.passed, str(report)
    assert all(f.checked > 0 for f in report.families.values())


def test_axioms_random_pass():
    rng = random.Random(3)
    report = check_axioms_random(SurfaceTarget(), surface_sampler(), 450, rng)
    assert report.passed, str(report)
    assert report.total_checked == 450
    report2 = check_axioms_random(TerminalTarget(), terminal_sampler(), 180, random.Random(4))
    assert report2.passed, str(report2)


def test_random_fresh_names_avoid_every_label_drawn_for_the_instance():
    """Elements on labels shaped like fresh names: a renaming's fresh images still avoid every drawn label."""

    def sample(rng, avoid, min_labels=0):
        names = [name for k in range(1, 9) for name in (f"u{k}", f"v{k}") if name not in avoid]
        return random_surface(rng, names[:rng.randint(min_labels, max(min_labels, 4))], 1, 1)

    report = check_axioms_random(SurfaceTarget(), sample, 900, random.Random(11))
    for family in ("rename_functoriality", "compose_equivariance", "contract_equivariance"):
        assert report.families[family].checked == 100 and report.families[family].failures == 0, str(report)
    assert report.passed, str(report)


def test_absorb_adds_random_counts_behind_the_exhaustive_counterexamples():
    report = check_axioms(NoGenusBump(), surface_pool(2, 1))
    exhaustive = {name: (f.checked, f.failures, f.counterexample) for name, f in report.families.items()}
    random_report = check_axioms_random(NoGenusBump(), surface_sampler(), 90, random.Random(5))
    report.absorb(random_report)
    assert report.title == "axiom check against target 'surfaces'"
    assert list(report.families) == list(exhaustive) == list(random_report.families)
    for name, (checked, failures, counterexample) in exhaustive.items():
        drawn = random_report.families[name]
        assert report.families[name].checked == checked + drawn.checked
        assert report.families[name].failures == failures + drawn.failures
        assert report.families[name].counterexample is (counterexample or drawn.counterexample)
    # both drivers caught contract_equivariance, and the exhaustive instance comes first
    assert random_report.families["contract_equivariance"].counterexample is not None
    assert report.families["contract_equivariance"].counterexample is exhaustive["contract_equivariance"][2]
    assert report.families["contract_equivariance"].counterexample.inputs[0] == ("x", "{ ( 1 ) ( 2 ) }^0")
    # a family the exhaustive pool never reached takes the random counterexample
    assert exhaustive["contract_commutativity"] == (0, 0, None)
    assert report.families["contract_commutativity"].counterexample is not None
    assert str(report).endswith("\n  total: 200 checked, 37 failed -> FAIL")


def test_axioms_catch_broken_contract():
    report = check_axioms(NoGenusBump(), surface_pool(2, 1))
    assert not report.passed
    bad = [n for n, f in report.families.items() if f.failures]
    assert bad, str(report)
    first = report.families[bad[0]].counterexample
    assert first is not None and first.inputs
    assert str(report) == BROKEN_CONTRACT_REPORT
    # the JSON report carries the same counterexample as the text, field by field
    assert [name for name, fam in report.to_json()["families"].items() if fam["counterexample"]] == bad
    assert report.to_json()["families"][bad[0]]["counterexample"] == {
        "family": "contract_equivariance",
        "inputs": {"x": "{ ( 1 ) ( 2 ) }^0", "a": "1", "b": "2", "rho": "{1->1, 2->2}"},
        "lhs": "bookkeeping broke under contract: got { ( ) }^0",
        "rhs": "(postcondition)",
    }


def test_budget_caps_instances():
    report = check_axioms(SurfaceTarget(), surface_pool(2, 1), budget=10)
    assert all(f.checked <= 10 for f in report.families.values())
    assert str(report) == BUDGET_10_REPORT


def test_report_rendering():
    report = check_axioms(SurfaceTarget(), surface_pool(1, 0))
    text = str(report)
    assert "compose_symmetry" in text and "PASS" in text
    data = report.to_json()
    assert data["passed"] is True
    assert set(data["families"]) == set(report.families)


def test_cyclic_morphism_passes():
    words = word_pool(3)
    for target, include in [
        (SurfaceTarget(), to_surface),
        (TerminalTarget(), terminal_inclusion),
    ]:
        report = check_cyclic_morphism(target, include, words, budget=500)
        assert report.passed, str(report)


def test_cyclic_morphism_catches_twisted_inclusion():
    report = check_cyclic_morphism(SurfaceTarget(), twisted, word_pool(2))
    assert not report.passed
    assert report.families["rename_equivariance"].failures > 0


def test_modular_morphism_passes():
    family = surface_pool(2, 1)
    for target, include in [
        (SurfaceTarget(), to_surface),
        (TerminalTarget(), terminal_inclusion),
    ]:
        report = check_modular_morphism(target, include, family, budget=400)
        assert report.passed, str(report)
        assert report.families["contract_split_compatibility"].checked > 0
        assert report.families["contract_merge_compatibility"].checked > 0


def test_modular_morphism_catches_collapse():
    class Collapse(TerminalTarget):
        pass

    def flat(word: CyclicWord) -> TerminalElement:
        return TerminalElement(frozenset(word.labels), 1)  # wrong base grade

    report = check_modular_morphism(Collapse(), flat, surface_pool(2, 0), budget=200)
    assert not report.passed


def test_well_definedness_report():
    q = Surface.parse("{ ( 1 ) ( 2 ) }^1")
    rep = check_well_definedness(SurfaceTarget(), to_surface, q)
    assert rep.values == (q,) and rep.expressions == 2
    rep2 = check_well_definedness(TerminalTarget(), terminal_inclusion, q)
    assert rep2.values == (TerminalElement(q.labels, q.grade),)


def test_universal_property_aggregate():
    report = check_universal_property(max_labels=2, max_g=1)
    assert report.passed, str(report)
    assert report.families["surfaces.identity"].checked > 0
    assert report.families["terminal.signature_value"].checked > 0
    assert report.families["surfaces.well_definedness"].failures == 0


def test_universal_property_report_pinned():
    assert str(check_universal_property(3, 1)) == ENVELOPE_REPORT
    assert str(check_universal_property(3, 1, budget=3)) == ENVELOPE_BUDGET_3_REPORT


def test_faulty_morphism_counts_pinned():
    def counts(report):
        return {name: (f.checked, f.failures) for name, f in report.families.items()}

    assert counts(check_modular_morphism(NoGenusBump(), to_surface, surface_pool(3, 1))) \
        == NO_GENUS_BUMP_MODULAR_COUNTS
    assert counts(check_cyclic_morphism(SurfaceTarget(), twisted, word_pool(3))) == TWISTED_CYCLIC_COUNTS


def test_well_definedness_keeps_values():
    q = Surface.parse("{ ( 1 ) ( 2 3 ) }^1")
    rep = check_well_definedness(SurfaceTarget(), to_surface, q)
    assert rep.values == (q,)


class Shadow(NamedTuple):
    """A terminal-like value that also remembers its base word, which its text hides."""

    labels: frozenset
    grade: int
    base: tuple

    def __str__(self) -> str:
        return "shadow"


class ShadowTarget(TerminalTarget):
    def contract(self, x, a, b):
        return Shadow(x.labels - {a, b}, x.grade + 1, x.base)


def test_envelope_agreement_compares_values_not_text(monkeypatch):
    # presentations of one surface have different base words, so their values differ, and print alike
    monkeypatch.setattr(laws, "TerminalTarget", ShadowTarget)
    monkeypatch.setattr(laws, "terminal_inclusion", lambda w: Shadow(w.labels, 0, w.items))
    family = check_universal_property(2, 1).families["terminal.well_definedness"]
    assert family.failures > 0
    assert (family.counterexample.lhs, family.counterexample.rhs) == ("shadow", "shadow")


def test_minimal_target_runs_through_the_harness():
    elements = [TerminalElement(frozenset(sub), g) for sub in label_subsets(3) for g in range(3)]
    for check, pool, include in [
        (check_axioms, elements, None),
        (check_cyclic_morphism, word_pool(3), terminal_inclusion),
        (check_modular_morphism, surface_pool(2, 1), terminal_inclusion),
    ]:
        args = (pool,) if include is None else (include, pool)
        report = check(MinimalTarget(), *args, budget=300)
        assert report.passed and report.total_checked > 0, str(report)
        assert report.families == check(TerminalTarget(), *args, budget=300).families


def test_induce_refuses_glue_token_labels():
    # Surface(...) takes glue tokens as labels; the canonical presentation refuses them
    with pytest.raises(ValueError, match="label '#1' is a glue token"):
        induce(SurfaceTarget(), to_surface, Surface([["#1", "a"]], 1))


def _budgeted_checks(budget):
    """Each harness entry point that takes a per-family ``budget``, called with it."""
    return [
        lambda: check_axioms(SurfaceTarget(), surface_pool(1, 0), budget=budget),
        lambda: check_cyclic_morphism(SurfaceTarget(), to_surface, word_pool(2), budget=budget),
        lambda: check_modular_morphism(SurfaceTarget(), to_surface, surface_pool(1, 0), budget=budget),
        lambda: check_universal_property(1, 0, budget=budget),
    ]


@pytest.mark.parametrize("count", [True, 2.5, "3"])
def test_harness_counts_refuse_non_integers(count):
    shown = re.escape(repr(count))
    for check in _budgeted_checks(count):
        with pytest.raises(ValueError, match=f"^budget must be an integer, got {shown}$"):
            check()
    with pytest.raises(ValueError, match=f"^count must be an integer, got {shown}$"):
        check_axioms_random(SurfaceTarget(), surface_sampler(), count, random.Random(0))
    with pytest.raises(ValueError, match=f"^max_labels must be an integer, got {shown}$"):
        check_universal_property(max_labels=count)
    for build in (lambda: check_universal_property(max_g=count), lambda: terminal_pool(1, count)):
        with pytest.raises(ValueError, match=f"^max_g must be an integer, got {shown}$"):
            build()


def test_harness_counts_refuse_negative_values():
    for check in _budgeted_checks(-1):
        with pytest.raises(ValueError, match="^budget must be nonnegative$"):
            check()
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        check_axioms_random(SurfaceTarget(), surface_sampler(), -1, random.Random(0))
    with pytest.raises(ValueError, match="^max_labels must be nonnegative$"):
        check_universal_property(max_labels=-1)
    for build in (lambda: check_universal_property(max_g=-1), lambda: terminal_pool(1, -1)):
        with pytest.raises(ValueError, match="^max_g must be nonnegative$"):
            build()


def test_universal_property_refuses_a_huge_pool_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the surface pool of max_labels = 1000000000, max_g = 0 would hold "
                                         r"more than 13700 elements; pools are limited to 1000 elements "
                                         r"on at most 6 labels$"):
        check_universal_property(10**9, 0)
    assert time.perf_counter() - start < 1


def test_harness_counts_of_zero_and_none_stay_valid():
    for check in _budgeted_checks(0):
        assert check().total_checked == 0
    assert check_axioms(SurfaceTarget(), surface_pool(1, 0), budget=None).total_checked > 0
    assert check_axioms_random(SurfaceTarget(), surface_sampler(), 0, random.Random(0)).total_checked == 0


def test_terminal_target_preconditions():
    t = TerminalTarget()
    x = TerminalElement(frozenset({"a", "b"}), 0)
    y = TerminalElement(frozenset({"c", "d"}), 1)
    cases = [
        (lambda: t.rename(x, Renaming({"a": "b"})), "renaming does not cover ['b']"),
        (lambda: t.compose(x, "z", y, "c"), "no marked point z on the left element"),
        (lambda: t.compose(x, "a", y, "z"), "no marked point z on the right element"),
        (lambda: t.compose(x, "a", TerminalElement(frozenset({"a", "e"}), 0), "e"), "elements share marked points"),
        (lambda: t.contract(x, "a", "a"), "contraction needs two distinct marked points"),
        (lambda: t.contract(x, "a", "z"), "contraction points must be marked on the element"),
    ]
    for call, text in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call()


def test_axiom_reports_repeat_exactly():
    # the renaming lists are shared within a sweep, never across sweeps, and keep the sweep's order
    pool = surface_pool(3, 0)
    first, second = check_axioms(SurfaceTarget(), pool), check_axioms(SurfaceTarget(), pool)
    assert str(first) == str(second) and first.to_json() == second.to_json()
    assert [str(check_axioms(NoGenusBump(), surface_pool(2, 1))) for _ in range(2)] == [BROKEN_CONTRACT_REPORT] * 2


def _same_objects(xs, ys) -> bool:
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_renaming_lists_are_built_once_per_sweep():
    ch = laws._AllChoices(surface_pool(3, 0))
    lx = frozenset({"1", "3"})
    both = ch.renamings(lx, "u")
    assert [str(r) for r in both] == ["{1->1, 3->3}", "{1->3, 3->1}", "{1->u1, 3->u2}", "{1->u2, 3->u1}"]
    assert _same_objects(ch.renamings(lx, "u"), both)
    assert _same_objects(ch.renamings(lx, "u", fresh_only=True), both[2:])
    # the permuted renamings (the first k! = 2) are one list for every tag; the fresh ones are the tag's
    v = ch.renamings(lx, "v")
    assert _same_objects(v[:2], both[:2]) and [str(r) for r in v[2:]] == ["{1->v1, 3->v2}", "{1->v2, 3->v1}"]
    # fresh names skip every label of the pool, not just the renamed ones
    shaped = laws._AllChoices([TerminalElement(frozenset({"1"}), 0), TerminalElement(frozenset({"u1"}), 0)])
    assert [str(r) for r in shaped.renamings(frozenset({"1"}), "u")] == ["{1->1}", "{1->u2}"]
    # each sweep builds its own
    again = laws._AllChoices(surface_pool(3, 0)).renamings(lx, "u")
    assert again == both and not any(x is y for x, y in zip(again, both))


class DropsALabel(TerminalTarget):
    """A rename that loses the least label: only the bookkeeping postcondition sees it."""

    def rename(self, x, renaming):
        out = super().rename(x, renaming)
        return out._replace(labels=out.labels - {min(out.labels)}) if out.labels else out


def _dropped_rename_counterexample():
    elements = [TerminalElement(frozenset(sub), 0) for sub in label_subsets(2)]
    return check_axioms(DropsALabel(), elements).families["rename_functoriality"].counterexample


def test_rename_postcondition_catches_a_dropped_label():
    found = _dropped_rename_counterexample()
    assert found.lhs == "bookkeeping broke under rename: got point({}; grade 0)", found
    assert found.rhs == "(postcondition)"


def test_rename_postcondition_holds_under_python_O():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "assert False, 'asserts must be off'\n"
        "from test_laws import _dropped_rename_counterexample\n"
        "print(_dropped_rename_counterexample().lhs)\n"
    )
    here = Path(__file__).parent
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(here), str(here.parent / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "bookkeeping broke under rename: got point({}; grade 0)\n"


# ---------------------------------------------------------------------------
# the exhaustive sweep computes each distinct operation once per family


def laws_pool():
    """The benchmark's laws pool: every surface on at most 4 labels with genus 0."""
    return surface_pool(4, 0)


class CountingTarget(SurfaceTarget):
    """Surfaces acting on themselves, counting each call by operation and operands."""

    def __init__(self):
        self.calls = Counter()

    def rename(self, x, renaming):
        self.calls["rename", x, renaming.pairs] += 1
        return super().rename(x, renaming)

    def compose(self, x, a, y, b):
        self.calls["compose", x, a, y, b] += 1
        return super().compose(x, a, y, b)

    def contract(self, x, a, b):
        self.calls["contract", x, a, b] += 1
        return super().contract(x, a, b)


class RefusesToGlueAt2(CountingTarget):
    """A compose that rejects the left label 2: every instance reaching such a call fails."""

    def compose(self, x, a, y, b):
        if a == "2":
            self.calls["compose", x, a, y, b] += 1
            raise ValueError("no gluing at 2")
        return super().compose(x, a, y, b)


def _one_family(monkeypatch, family):
    monkeypatch.setattr(laws, "_AXIOMS", {family: laws._AXIOMS[family]})


# Target calls per family in one sweep of the laws pool: one per distinct (operation, operands).
LAWS_POOL_CALLS = {
    "compose_symmetry": 348,
    "rename_functoriality": 2862,
    "compose_equivariance": 2614,
    "contract_equivariance": 3658,
    "contract_commutativity": 198,
    "contract_compose_exchange": 132,
    "contract_factor_left": 216,
    "contract_factor_right": 216,
    "compose_associativity": 132,
}


def test_exhaustive_sweep_calls_the_target_once_per_distinct_operation(monkeypatch):
    pool = laws_pool()
    whole = CountingTarget()
    report = check_axioms(whole, pool)
    assert report.passed and report.total_checked == 43959
    assert sum(whole.calls.values()) == sum(LAWS_POOL_CALLS.values()) == 10376
    assert len(whole.calls) == 6967  # the same operation may recur in another family
    calls = {}
    for family in AXIOM_FAMILIES:
        with monkeypatch.context() as m:
            _one_family(m, family)
            target = CountingTarget()
            check_axioms(target, pool)
        assert set(target.calls.values()) == {1}, family
        calls[family] = len(target.calls)
    assert calls == LAWS_POOL_CALLS


def test_random_driver_calls_the_target_for_every_operation_asked(monkeypatch):
    asked = Counter()

    class CountingSession(laws._Session):
        def rename(self, x, renaming):
            asked["rename"] += 1
            return super().rename(x, renaming)

        def compose(self, x, a, y, b):
            asked["compose"] += 1
            return super().compose(x, a, y, b)

        def contract(self, x, a, b):
            asked["contract"] += 1
            return super().contract(x, a, b)

    monkeypatch.setattr(laws, "_Session", CountingSession)
    target = CountingTarget()
    # one label per element: half the compose_equivariance instances rename both sides by the identity,
    # so their two sides ask for the same compose
    report = check_axioms_random(target, surface_sampler(max_labels=1, max_g=1), 270, random.Random(23))
    assert report.passed and report.total_checked == 270
    assert sum(target.calls.values()) == asked.total() > 1000
    assert max(target.calls.values()) > 1


def test_merge_mutant_failures_per_family_on_the_laws_pool():
    # NoGenusBump is acceptance criterion 9's merge mutant: a merging contraction without its genus step
    report = check_axioms(NoGenusBump(), laws_pool())
    assert {name: f.failures for name, f in report.families.items() if f.failures} == {
        "contract_equivariance": 3912,
        "contract_commutativity": 114,
        "contract_compose_exchange": 72,
        "contract_factor_left": 36,
        "contract_factor_right": 36,
    }
    assert report.total_checked == 43959 and list(report.families) == list(AXIOM_FAMILIES)


def test_a_rejected_operation_fails_every_instance_that_reaches_it(monkeypatch):
    pool = laws_pool()
    report = check_axioms(RefusesToGlueAt2(), pool)
    assert {name: (f.checked, f.failures) for name, f in report.families.items() if f.failures} == {
        "compose_symmetry": (348, 174),
        "compose_equivariance": (5808, 1716),
        "contract_compose_exchange": (96, 48),
        "contract_factor_left": (72, 18),
        "contract_factor_right": (72, 18),
        "compose_associativity": (48, 24),
    }
    # compose_symmetry's instances with 2 on either side, counted from the pool alone
    reaching = sum("2" in (a, b) for x in pool for y in pool if x.labels and y.labels and not x.labels & y.labels
                   for a in x.labels for b in y.labels)
    assert report.families["compose_symmetry"].failures == reaching == 174
    # a refused compose fails its own instance's left side and its mirror instance's right side,
    # and the target is asked both times
    _one_family(monkeypatch, "compose_symmetry")
    target = RefusesToGlueAt2()
    check_axioms(target, pool)
    refused = [n for key, n in target.calls.items() if key[2] == "2"]
    assert len(refused) == 87 and set(refused) == {2}


def _plain_sweep(target, pool):
    """``check_axioms`` without sharing: every family's generator over one pool, through a plain session."""
    report = laws.LawReport(f"axiom check against target '{target.name}'")
    choices, session = laws._AllChoices(pool), laws._Session(target, report)
    for family, generate in laws._AXIOMS.items():
        session.run(family, generate(choices))
    return report


# a small pool that reaches every family: labels 1 .. 3, and label 4 for the disjoint tuples
SMALL_POOL = surface_pool(3, 0) + [Surface.parse(t) for t in ("{ (4) }^0", "{ (2 4) }^1", "{ (1) (2) (3) (4) }^0")]


@pytest.mark.parametrize("target, pool, passes", [
    (SurfaceTarget(), SMALL_POOL, True),
    (TerminalTarget(), terminal_pool(4, 0), True),
    (NoGenusBump(), SMALL_POOL, False),
    (RefusesToGlueAt2(), SMALL_POOL, False),
], ids=["surfaces", "terminal", "merge-mutant", "refuses-at-2"])
def test_sharing_sweep_reports_what_the_plain_session_reports(target, pool, passes):
    shared, plain = check_axioms(target, pool), _plain_sweep(target, pool)
    assert shared.passed is passes and shared.total_checked > 4000 and not shared._vacuous()
    # the text and the JSON hold every family's counts and its first counterexample verbatim
    assert str(shared) == str(plain)
    assert shared.to_json() == plain.to_json()


def test_exhaustive_sweep_keeps_no_result():
    outputs = []

    class Watched(SurfaceTarget):
        def rename(self, x, renaming):
            return self.watch(super().rename(x, renaming))

        def compose(self, x, a, y, b):
            return self.watch(super().compose(x, a, y, b))

        def contract(self, x, a, b):
            return self.watch(super().contract(x, a, b))

        def watch(self, out):
            outputs.append(weakref.ref(out))
            return out

    def alive_after_sweep():
        outputs.clear()
        report = check_axioms(Watched(), surface_pool(3, 1))
        assert report.passed and len(outputs) == 1581
        return [ref for ref in outputs if ref() is not None]

    alive_after_sweep()
    gc.collect()
    assert [ref for ref in outputs if ref() is not None] == []
    # the stores make no reference cycle, so the sweep frees them without the cycle collector
    gc.disable()
    try:
        assert alive_after_sweep() == []
    finally:
        gc.enable()
