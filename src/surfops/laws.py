"""Law checking: value targets, induced maps, and axiom/morphism verdicts.

A target writes three operations (renaming, end-to-end composition, and
same-element contraction) with the usual label and grade bookkeeping; its
values carry their own ``labels`` and ``grade``.  The checkers run named
instance families against a target and report per-family counts with the
first counterexample kept verbatim.  ``evaluate_expression`` is the one arc
fold, extending an inclusion of words to any diagram; ``diagram.evaluate``
traces faces instead, and the tests check it against this fold.

Each law is written once, as its parameter names and a function giving both
sides.  Each axiom family has one instance generator, written as nested loops
over choice points (element tuples, label picks, renamings): the exhaustive
driver offers every option over a fixed pool, building each list of renamings
once per sweep, with fresh names avoiding every pool label; the random driver
draws one, with fresh names avoiding every label drawn for the instance.
The morphism checkers draw their instances from the same choice points, and
every law compares values themselves, never their text.

The exhaustive driver computes each distinct operation (with its operands)
once per family: renamings onto the same fresh names send every element of
one shape to one value, so the nested choice loops ask for it again and
again.  Each operation, and each renaming a law derives (a composite, a
restriction, a union), is a ``functools.cache`` kept for one family, and
equal results are one object, the pool's own where one is equal; a failed
operation is never cached.  The random driver and the morphism checkers call
the target for every operation and build every derived renaming, since
their instances seldom repeat one.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, islice, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from . import census
from .canonical import all_canonical_diagrams, canonical_diagram
from .diagram import ChordDiagram
from .surface import Surface, compose, self_glue, to_surface
from .words import CyclicWord, Renaming, _require_count, splice


class Target(ABC):
    """Operations a value domain must provide to receive induced maps.

    A target writes ``rename``, ``compose`` and ``contract``.  Its values carry
    ``labels`` (a frozenset of marked points) and ``grade`` (2g + b - 1), are
    hashable, and each operation is a function of its operands' values: equal
    operands give equal results, or the same refusal.  ``check_axioms`` relies
    on this to compute each distinct operation once per family, as it does
    each composite, restriction and union of the instances' renamings.
    """

    name: str = "target"

    @abstractmethod
    def rename(self, x, renaming: Renaming):
        ...

    @abstractmethod
    def compose(self, x, a: str, y, b: str):
        ...

    @abstractmethod
    def contract(self, x, a: str, b: str):
        ...


class SurfaceTarget(Target):
    """Surfaces acting on themselves; the reference target."""

    name = "surfaces"

    def rename(self, x: Surface, renaming: Renaming) -> Surface:
        return x.rename(renaming)

    def compose(self, x: Surface, a: str, y: Surface, b: str) -> Surface:
        return compose(x, a, y, b)

    def contract(self, x: Surface, a: str, b: str) -> Surface:
        return self_glue(x, a, b)


class TerminalElement(NamedTuple):
    """An element of the one-point-per-signature target."""

    labels: frozenset[str]
    grade: int

    def __str__(self) -> str:
        inner = ", ".join(sorted(self.labels))
        return f"point({{{inner}}}; grade {self.grade})"


class TerminalTarget(Target):
    """The collapse target: only the label set and the grade survive."""

    name = "terminal"

    def rename(self, x: TerminalElement, renaming: Renaming) -> TerminalElement:
        table = renaming._map
        if not table.keys() >= x.labels:
            raise ValueError(f"renaming does not cover {sorted(x.labels.difference(table))}")
        return TerminalElement(frozenset(map(table.__getitem__, x.labels)), x.grade)

    def compose(self, x: TerminalElement, a: str, y: TerminalElement, b: str) -> TerminalElement:
        if a not in x.labels:
            raise ValueError(f"no marked point {a} on the left element")
        if b not in y.labels:
            raise ValueError(f"no marked point {b} on the right element")
        if x.labels & y.labels:
            raise ValueError("elements share marked points")
        return TerminalElement((x.labels - {a}) | (y.labels - {b}), x.grade + y.grade)

    def contract(self, x: TerminalElement, a: str, b: str) -> TerminalElement:
        if a == b:
            raise ValueError("contraction needs two distinct marked points")
        if a not in x.labels or b not in x.labels:
            raise ValueError("contraction points must be marked on the element")
        return TerminalElement(x.labels - {a, b}, x.grade + 1)


def terminal_inclusion(word: CyclicWord) -> TerminalElement:
    return TerminalElement(frozenset(word.labels), 0)


def evaluate_expression(target: Target, include: Callable[[CyclicWord], object], d: ChordDiagram) -> object:
    """Contract the included base word of ``d`` along its arcs, in stored order."""
    value = include(CyclicWord._of(d.base))
    for x, y in d.arcs:
        value = target.contract(value, x, y)
    return value


def induce(target: Target, include: Callable[[CyclicWord], object], q: Surface) -> object:
    """Value of ``q`` under the extension of ``include`` along contractions."""
    return evaluate_expression(target, include, canonical_diagram(q).diagram)


# ---------------------------------------------------------------------------
# reports


@dataclass
class Counterexample:
    family: str
    inputs: tuple[tuple[str, str], ...]
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "inputs": {k: v for k, v in self.inputs},
            "lhs": self.lhs,
            "rhs": self.rhs,
        }

    def __str__(self) -> str:
        parts = [f"    {k} = {v}" for k, v in self.inputs]
        return "\n".join([f"  counterexample for {self.family}:", *parts,
                          f"    lhs = {self.lhs}", f"    rhs = {self.rhs}"])


@dataclass
class FamilyResult:
    checked: int = 0
    failures: int = 0
    counterexample: Counterexample | None = None


@dataclass
class LawReport:
    title: str
    families: dict[str, FamilyResult] = field(default_factory=dict)

    def family(self, name: str) -> FamilyResult:
        return self.families.setdefault(name, FamilyResult())

    @property
    def total_checked(self) -> int:
        return sum(f.checked for f in self.families.values())

    @property
    def total_failures(self) -> int:
        return sum(f.failures for f in self.families.values())

    @property
    def passed(self) -> bool:
        return self.total_failures == 0

    def absorb(self, other: "LawReport", prefix: str = "") -> None:
        """Add ``other``'s counts per family (named ``prefix + name``); a family's own counterexample comes first."""
        for name, res in other.families.items():
            fam = self.family(prefix + name)
            fam.checked += res.checked
            fam.failures += res.failures
            if fam.counterexample is None:
                fam.counterexample = res.counterexample

    def _vacuous(self) -> list[str]:
        """The families no instance reached: they have shown nothing either way."""
        return [name for name, res in self.families.items() if not res.checked]

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checked": self.total_checked,
            "failures": self.total_failures,
            "vacuous": self._vacuous(),
            "families": {
                name: {
                    "checked": res.checked,
                    "failures": res.failures,
                    "counterexample": res.counterexample.to_json() if res.counterexample else None,
                }
                for name, res in self.families.items()
            },
        }

    def __str__(self) -> str:
        lines = [f"{self.title}"]
        width = max((len(n) for n in self.families), default=0)
        for name, res in self.families.items():
            verdict = "FAIL" if res.failures else "ok" if res.checked else "VACUOUS"
            lines.append(f"  {name.ljust(width)}  {res.checked:>7} checked  {res.failures:>3} failed  {verdict}")
            if res.counterexample is not None:
                lines.append(str(res.counterexample))
        vacuous = len(self._vacuous())
        lines.append(
            f"  total: {self.total_checked} checked, {self.total_failures} failed -> "
            + ("PASS" if self.passed else "FAIL")
            + (f" ({vacuous} of {len(self.families)} families vacuous)" if vacuous else "")
        )
        return "\n".join(lines)


class _LawViolation(Exception):
    pass


class _Law(NamedTuple):
    """A law's parameter names and ``sides(session, *args) -> (lhs, rhs)``."""

    params: str
    sides: Callable[..., tuple[object, object]]


class _Session:
    """Runs instances against a target with bookkeeping postconditions.

    Each operation an instance asks for is one target call, then the
    postcondition.  Counterexample inputs and sides are rendered with
    ``str``, and only for the first failure of a family.
    """

    def __init__(self, target: Target, report: LawReport):
        self.t = target
        self.report = report

    def _kept(self, op: str, out, labels: frozenset[str], grade: int):
        if out.labels != labels or out.grade != grade:
            raise _LawViolation(f"bookkeeping broke under {op}: got {out}")
        return out

    def rename(self, x, renaming: Renaming):
        return self._kept("rename", self.t.rename(x, renaming), frozenset(map(renaming, x.labels)), x.grade)

    def compose(self, x, a: str, y, b: str):
        labels = (x.labels - {a}) | (y.labels - {b})
        return self._kept("compose", self.t.compose(x, a, y, b), labels, x.grade + y.grade)

    def contract(self, x, a: str, b: str):
        return self._kept("contract", self.t.contract(x, a, b), x.labels - {a, b}, x.grade + 1)

    def after(self, second: Renaming, first: Renaming) -> Renaming:
        return second.after(first)

    def restrict(self, renaming: Renaming, labels: frozenset[str]) -> Renaming:
        return renaming.restrict(labels)

    def union(self, rho: Renaming, sigma: Renaming) -> Renaming:
        return rho.union(sigma)

    def run(self, family: str, instances: Iterable[tuple[_Law, tuple]], budget: int | None = None) -> None:
        """Check the first ``budget`` (all, if None) ``(law, args)`` instances of ``family``."""
        if budget is not None:
            _require_count(budget, "budget", 0, "budget must be nonnegative")
        fam = self.report.family(family)
        for law, args in islice(instances, budget):
            fam.checked += 1
            try:
                lhs, rhs = law.sides(self, *args)
                if lhs == rhs:
                    continue
                shown = (str(lhs), str(rhs))
            except _LawViolation as exc:
                shown = (str(exc), "(postcondition)")
            except ValueError as exc:
                # a rejected operation on a well-typed instance is itself a violation
                shown = (f"operation rejected: {exc}", "(precondition)")
            fam.failures += 1
            if fam.counterexample is None:
                inputs = tuple((name, str(v)) for name, v in zip(law.params.split(), args))
                fam.counterexample = Counterexample(family, inputs, *shown)


def _interned(op: Callable, firsts: dict, *args):
    """``op(*args)``, as the first equal value in ``firsts``, where it is kept when it is new."""
    out = op(*args)
    return firsts.setdefault(out, out)


class _SharingSession(_Session):
    """A session that computes each distinct operation once, for the exhaustive sweep.

    The target's ``rename``, ``compose`` and ``contract`` and the derived
    renamings ``after``, ``restrict`` and ``union`` are the plain session's,
    each behind its own ``functools.cache`` (a renaming is an operand like any
    value).  A failed operation is never cached, so it fails again on every
    instance that reaches it.  Every result passes through one intern table,
    seeded with the pool, so a result equal to a pool element or to an earlier
    result is that first copy.  ``check_axioms`` makes one per family: the
    caches and the table are dropped when that family's ``run`` returns.
    """

    def __init__(self, target: Target, report: LawReport, pool: Iterable):
        super().__init__(target, report)
        # the caches wrap a second session, never this one's methods: they would make a cycle
        plain = _Session(target, report)
        firsts = {x: x for x in pool}
        for name in ("rename", "compose", "contract", "after", "restrict", "union"):
            setattr(self, name, cache(partial(_interned, getattr(plain, name), firsts)))


# ---------------------------------------------------------------------------
# choice points: every option over a pool, or one random draw per point


def _fresh_names(n: int, avoid: frozenset[str], tag: str) -> list[str]:
    # at most len(avoid) of the first n + len(avoid) candidates are taken
    names = (f"{tag}{k}" for k in range(1, n + len(avoid) + 1))
    return [name for name in names if name not in avoid][:n]


def _onto(src: tuple[str, ...], names: tuple[str, ...]) -> tuple[Renaming, ...]:
    return tuple(Renaming._of(tuple(zip(src, image))) for image in permutations(names))


class _AllChoices:
    """Every option at each choice point, over a fixed pool of elements."""

    def __init__(self, elements: list):
        self.pool = elements
        self.groups: dict[frozenset[str], list] = {}
        for x in elements:
            self.groups.setdefault(x.labels, []).append(x)
        self.sets = sorted(self.groups, key=lambda ls: (len(ls), sorted(ls)))
        self.all_labels = frozenset().union(*self.groups)
        self._onto = cache(_onto)

    def elements(self, *min_labels: int):
        """Tuples of elements on pairwise disjoint labels, each with at least ``min_labels``.

        A lone element runs over the pool in its given order; a tuple runs
        over its label sets in (size, labels) order, then over their elements.
        """
        if len(min_labels) == 1:
            return ((x,) for x in self.pool if len(x.labels) >= min_labels[0])
        return (xs for sets in self._disjoint_sets(frozenset(), min_labels)
                for xs in product(*(self.groups[ls] for ls in sets)))

    def _disjoint_sets(self, used: frozenset[str], min_labels: tuple[int, ...]):
        if not min_labels:
            yield ()
            return
        for ls in self.sets:
            if len(ls) >= min_labels[0] and not ls & used:
                for rest in self._disjoint_sets(used | ls, min_labels[1:]):
                    yield (ls, *rest)

    def label(self, x):
        return sorted(x.labels)

    def label_pairs(self, x, excluded: frozenset[str] = frozenset(), ordered: bool = False):
        return (permutations if ordered else combinations)(sorted(x.labels - excluded), 2)

    def renamings(self, labels: frozenset[str], tag: str, fresh_only: bool = False):
        """Bijections from ``labels`` onto itself (unless ``fresh_only``), then onto fresh names.

        Fresh names are ``tag`` and a number, avoiding every pool label (tags ``u`` and ``v`` never collide).
        The bijections onto one tuple of names are built once per sweep: both tags share the permuted ones.
        """
        src = tuple(sorted(labels))
        fresh = self._onto(src, tuple(_fresh_names(len(src), self.all_labels, tag)))
        return fresh if fresh_only else self._onto(src, src) + fresh

    def branch(self, p: float):
        return (True, False)


class _RandomChoices:
    """One random option at each choice point; elements come from ``sampler``.

    A label pair is always drawn in order, and a renaming is onto permuted or
    onto fresh names with even odds, whatever restricts the exhaustive options.
    ``drawn`` holds the instance's labels so far: new elements and fresh names avoid them.
    """

    def __init__(self, sampler, rng: random.Random):
        self.sampler = sampler
        self.rng = rng
        self.drawn: frozenset[str] = frozenset()

    def elements(self, *min_labels: int):
        xs: list = []
        self.drawn = frozenset()
        for n in min_labels:
            xs.append(self.sampler(self.rng, self.drawn, n))
            self.drawn |= xs[-1].labels
        return [tuple(xs)]

    def label(self, x):
        return [self.rng.choice(sorted(x.labels))]

    def label_pairs(self, x, excluded: frozenset[str] = frozenset(), ordered: bool = False):
        return [tuple(self.rng.sample(sorted(x.labels - excluded), 2))]

    def renamings(self, labels: frozenset[str], tag: str, fresh_only: bool = False):
        """One bijection from ``labels`` onto itself or onto fresh names that avoid ``drawn``."""
        src = sorted(labels)
        image = list(src) if self.rng.random() < 0.5 else _fresh_names(len(src), self.drawn, tag)
        self.rng.shuffle(image)
        return [Renaming._of(tuple(zip(src, image)))]

    def branch(self, p: float):
        return [self.rng.random() < p]


# ---------------------------------------------------------------------------
# axiom families: each law once, and one instance generator per family


_AXIOMS: dict[str, Callable] = {}


def _axiom(family: str, *laws: _Law):
    """Register ``generate(choices, *laws)``, which yields ``(law, args)``, as an axiom family."""

    def register(generate):
        _AXIOMS[family] = lambda choices: generate(choices, *laws)
        return generate

    return register


@_axiom("compose_symmetry", _Law("x a y b", lambda s, x, a, y, b: (s.compose(x, a, y, b), s.compose(y, b, x, a))))
def _compose_symmetry(ch, law):
    for x, y in ch.elements(1, 1):
        for a in ch.label(x):
            for b in ch.label(y):
                yield law, (x, a, y, b)


@_axiom(
    "rename_functoriality",
    _Law("x renaming", lambda s, x, ident: (s.rename(x, ident), x)),
    _Law("x first second", lambda s, x, first, second: (
        s.rename(s.rename(x, first), second), s.rename(x, s.after(second, first)))),
)
def _rename_functoriality(ch, identity_law, composition_law):
    for (x,) in ch.elements(0):
        for identity in ch.branch(0.2):
            if identity:
                yield identity_law, (x, Renaming.identity(x.labels))
                continue
            for first in ch.renamings(x.labels, "u"):
                for second in ch.renamings(first.codomain, "v", fresh_only=True):
                    yield composition_law, (x, first, second)


@_axiom("compose_equivariance", _Law("x a y b rho sigma", lambda s, x, a, y, b, rho, sigma: (
    s.rename(s.compose(x, a, y, b), s.union(s.restrict(rho, x.labels - {a}), s.restrict(sigma, y.labels - {b}))),
    s.compose(s.rename(x, rho), rho(a), s.rename(y, sigma), sigma(b)))))
def _compose_equivariance(ch, law):
    for x, y in ch.elements(1, 1):
        for a in ch.label(x):
            for b in ch.label(y):
                for rho in ch.renamings(x.labels, "u"):
                    for sigma in ch.renamings(y.labels, "v"):
                        yield law, (x, a, y, b, rho, sigma)


@_axiom("contract_equivariance", _Law("x a b rho", lambda s, x, a, b, rho: (
    s.rename(s.contract(x, a, b), s.restrict(rho, x.labels - {a, b})),
    s.contract(s.rename(x, rho), rho(a), rho(b)))))
def _contract_equivariance(ch, law):
    for (x,) in ch.elements(2):
        for a, b in ch.label_pairs(x):
            for rho in ch.renamings(x.labels, "u"):
                yield law, (x, a, b, rho)


@_axiom("contract_commutativity", _Law("x a b c d", lambda s, x, a, b, c, d: (
    s.contract(s.contract(x, a, b), c, d), s.contract(s.contract(x, c, d), a, b))))
def _contract_commutativity(ch, law):
    for (x,) in ch.elements(4):
        for a, b in ch.label_pairs(x):
            for c, d in ch.label_pairs(x, frozenset({a, b})):
                yield law, (x, a, b, c, d)


@_axiom("contract_compose_exchange", _Law("x a c y b d", lambda s, x, a, c, y, b, d: (
    s.contract(s.compose(x, c, y, d), a, b), s.contract(s.compose(x, a, y, b), c, d))))
def _contract_compose_exchange(ch, law):
    for x, y in ch.elements(2, 2):
        for a, c in ch.label_pairs(x, ordered=True):
            for b, d in ch.label_pairs(y, ordered=True):
                yield law, (x, a, c, y, b, d)


@_axiom("contract_factor_left", _Law("x a c d y b", lambda s, x, a, c, d, y, b: (
    s.compose(s.contract(x, c, d), a, y, b), s.contract(s.compose(x, a, y, b), c, d))))
def _contract_factor_left(ch, law):
    for x, y in ch.elements(3, 1):
        for a in ch.label(x):
            for c, d in ch.label_pairs(x, frozenset({a})):
                for b in ch.label(y):
                    yield law, (x, a, c, d, y, b)


@_axiom("contract_factor_right", _Law("x a y b c d", lambda s, x, a, y, b, c, d: (
    s.compose(x, a, s.contract(y, c, d), b), s.contract(s.compose(x, a, y, b), c, d))))
def _contract_factor_right(ch, law):
    for x, y in ch.elements(1, 3):
        for a in ch.label(x):
            for b in ch.label(y):
                for c, d in ch.label_pairs(y, frozenset({b})):
                    yield law, (x, a, y, b, c, d)


@_axiom("compose_associativity", _Law("x a y b c z d", lambda s, x, a, y, b, c, z, d: (
    s.compose(x, a, s.compose(y, c, z, d), b), s.compose(s.compose(x, a, y, b), c, z, d))))
def _compose_associativity(ch, law):
    for x, y, z in ch.elements(1, 2, 1):
        for a in ch.label(x):
            for b, c in ch.label_pairs(y, ordered=True):
                for d in ch.label(z):
                    yield law, (x, a, y, b, c, z, d)


AXIOM_FAMILIES = tuple(_AXIOMS)


def check_axioms(target: Target, elements: Iterable, budget: int | None = None) -> LawReport:
    """Run every well-typed axiom instance drawn from ``elements``.

    Label choices, renamings (onto permuted and onto fresh names), and
    partner elements are enumerated exhaustively; ``budget`` caps the
    instance count per family when set.  Each family runs in its own
    ``_SharingSession``, so an operation repeated within a family is
    computed once, and nothing is kept from one family to the next.
    """
    report = LawReport(f"axiom check against target '{target.name}'")
    choices = _AllChoices(list(elements))
    for family, generate in _AXIOMS.items():
        _SharingSession(target, report, choices.pool).run(family, generate(choices), budget)
    return report


# ---------------------------------------------------------------------------
# randomized axiom driver


def _sampler(max_labels: int, make: Callable[[random.Random, list[str]], object]):
    """``sample(rng, avoid, min_labels)``: ``make`` on fresh labels avoiding ``avoid``."""

    def sample(rng: random.Random, avoid: frozenset[str], min_labels: int = 0):
        n = rng.randint(min_labels, max(min_labels, max_labels))
        return make(rng, _fresh_names(n, avoid, rng.choice("mnpq")))

    return sample


def surface_sampler(max_labels: int = 6, max_g: int = 3, max_extra_empty: int = 2):
    """Sampler of random surfaces for the randomized axiom driver."""
    return _sampler(max_labels, lambda rng, labels: census.random_surface(rng, labels, max_g, max_extra_empty))


def terminal_sampler():
    """Sampler of terminal-target elements on at most 6 labels, grade at most 6, for the randomized axiom driver."""
    return _sampler(6, lambda rng, labels: TerminalElement(frozenset(labels), rng.randint(0, 6)))


def terminal_pool(max_labels: int, max_g: int) -> list[TerminalElement]:
    """Terminal elements on each subset of the labels "1" .. ``max_labels``, each grade below 2 max_g + 2.

    It holds 2^L (2 max_g + 2) elements, and is limited as ``census.surface_pool`` is.
    """
    return census._pool(f"terminal pool of max_labels = {max_labels}, max_g = {max_g}", max_labels, max_g,
                        lambda k: 2 * max_g + 2,
                        lambda subset: [TerminalElement(frozenset(subset), g) for g in range(2 * max_g + 2)])


def check_axioms_random(target: Target, sampler, count: int, rng: random.Random) -> LawReport:
    """Run ``count`` randomized axiom instances, spread across the families.

    ``sampler(rng, avoid, min_labels)`` must return an element whose labels
    avoid the given set.  The report lists every family, reached or not; to
    add its counts to an exhaustive report, pass it to that report's ``absorb``.
    """
    _require_count(count, "count", 0, "count must be nonnegative")
    s = _Session(target, LawReport(f"randomized axiom check against target '{target.name}'",
                                   {name: FamilyResult() for name in AXIOM_FAMILIES}))
    choices = _RandomChoices(sampler, rng)
    for i in range(count):
        family = AXIOM_FAMILIES[i % len(AXIOM_FAMILIES)]
        s.run(family, _AXIOMS[family](choices))
    return s.report


# ---------------------------------------------------------------------------
# morphism checkers


def _renamed(ch, law):
    """Each element under each renaming of its labels, onto permuted and onto fresh names."""
    for (x,) in ch.elements(0):
        for rho in ch.renamings(x.labels, "u"):
            yield law, (x, rho)


def check_cyclic_morphism(
    target: Target,
    include: Callable[[CyclicWord], object],
    words: Iterable[CyclicWord],
    budget: int | None = None,
) -> LawReport:
    """Verify that ``include`` carries cyclic words into the target lawfully."""
    ch = _AllChoices(list(words))
    component = _Law("w", lambda s, w: ((include(w).labels, include(w).grade), (w.labels, 0)))
    spliced = _Law("x a y b", lambda s, x, a, y, b: (
        include(splice(x, a, y, b)), s.compose(include(x), a, include(y), b)))
    renamed = _Law("w rho", lambda s, w, rho: (include(w.rename(rho)), s.rename(include(w), rho)))

    s = _Session(target, LawReport(f"cyclic-side morphism check into target '{target.name}'"))
    s.run("component_preservation", ((component, xs) for xs in ch.elements(0)), budget)
    s.run("splice_compatibility", _compose_symmetry(ch, spliced), budget)
    s.run("rename_equivariance", _renamed(ch, renamed), budget)
    return s.report


def check_modular_morphism(
    target: Target,
    include: Callable[[CyclicWord], object],
    surfaces: Iterable[Surface],
    budget: int | None = None,
) -> LawReport:
    """Verify the induced surface-level map respects every operation."""
    ch = _AllChoices(list(surfaces))
    F = cache(lambda q: induce(target, include, q))
    signature = _Law("q", lambda s, q: ((F(q).labels, F(q).grade), (q.labels, q.grade)))
    renamed = _Law("q rho", lambda s, q, rho: (F(q.rename(rho)), s.rename(F(q), rho)))
    composed = _Law("q1 a q2 b", lambda s, q1, a, q2, b: (
        F(compose(q1, a, q2, b)), s.compose(F(q1), a, F(q2), b)))
    contracted = _Law("q a b", lambda s, q, a, b: (F(self_glue(q, a, b)), s.contract(F(q), a, b)))
    restricted = _Law("q", lambda s, q: (F(q), include(q.cycles[0])))

    def contractions(split: bool):
        return ((contracted, (q, a, b)) for (q,) in ch.elements(2) for a, b in ch.label_pairs(q)
                if (q.cycle_containing(a) is q.cycle_containing(b)) == split)

    s = _Session(target, LawReport(f"surface-level morphism check into target '{target.name}'"))
    s.run("signature_preservation", ((signature, xs) for xs in ch.elements(0)), budget)
    s.run("rename_compatibility", _renamed(ch, renamed), budget)
    s.run("compose_compatibility", _compose_symmetry(ch, composed), budget)
    s.run("contract_split_compatibility", contractions(True), budget)
    s.run("contract_merge_compatibility", contractions(False), budget)
    s.run("genus_zero_restriction", (
        (restricted, (q,)) for q in ch.pool if q.genus == 0 and q.boundary_count == 1
    ), budget)
    return s.report


@dataclass
class AgreementReport:
    """The distinct ``values`` of one surface's canonical expressions: they agree when there is one."""

    expressions: int
    values: tuple


def check_well_definedness(target: Target, include: Callable[[CyclicWord], object], q: Surface) -> AgreementReport:
    """Evaluate every canonical expression for ``q`` and compare the values."""
    exprs = all_canonical_diagrams(q)
    seen: list = []
    for expr in exprs:
        value = evaluate_expression(target, include, expr.diagram)
        if value not in seen:
            seen.append(value)
    return AgreementReport(expressions=len(exprs), values=tuple(seen))


def check_universal_property(max_labels: int = 3, max_g: int = 1, budget: int | None = None) -> LawReport:
    """Aggregate check: the induced map exists, is unique on values, and is lawful.

    Runs, for both the surface target and the terminal target: agreement of
    all canonical expressions per surface, the cyclic-side morphism laws,
    and the surface-level morphism laws, over every surface on at most
    ``max_labels`` labels with genus at most ``max_g`` (``census.surface_pool``)
    and every cyclic word on those labels (``census.word_pool``).  Both pools
    are limited to 6 labels and 1000 elements; a larger one is a ValueError
    before anything is built.
    """
    surfaces = census.surface_pool(max_labels, max_g)
    words = census.word_pool(max_labels)

    report = LawReport(
        f"universal-property check over {len(surfaces)} surfaces "
        f"(labels <= {max_labels}, genus <= {max_g})"
    )
    for target, include in ((SurfaceTarget(), to_surface), (TerminalTarget(), terminal_inclusion)):
        agreed = _Law("q", lambda s, q: itemgetter(0, -1)(check_well_definedness(s.t, include, q).values))
        _Session(target, report).run(f"{target.name}.well_definedness", ((agreed, (q,)) for q in surfaces), budget)
        report.absorb(check_cyclic_morphism(target, include, words, budget), f"{target.name}.")
        report.absorb(check_modular_morphism(target, include, surfaces, budget), f"{target.name}.")

    identity = _Law("q", lambda s, q: (induce(s.t, to_surface, q), q))
    _Session(SurfaceTarget(), report).run("surfaces.identity", ((identity, (q,)) for q in surfaces), budget)
    signature = _Law("q", lambda s, q: (induce(s.t, terminal_inclusion, q), TerminalElement(q.labels, q.grade)))
    _Session(TerminalTarget(), report).run(
        "terminal.signature_value", ((signature, (q,)) for q in surfaces), budget
    )
    return report


__all__ = [
    "Target",
    "SurfaceTarget",
    "TerminalTarget",
    "TerminalElement",
    "terminal_inclusion",
    "evaluate_expression",
    "induce",
    "LawReport",
    "AgreementReport",
    "check_axioms",
    "check_axioms_random",
    "check_cyclic_morphism",
    "check_modular_morphism",
    "check_well_definedness",
    "check_universal_property",
]
