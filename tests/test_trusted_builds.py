"""Values the library builds without checks, cross-checked against the public constructors."""

import random
import subprocess
import sys
from collections import Counter

import pytest

from surfops.canonical import all_canonical_diagrams
from surfops.census import enumerate_matchings, random_diagram, surface_pool
from surfops.diagram import ChordDiagram
from surfops.laws import SurfaceTarget, check_axioms, check_axioms_random, surface_sampler
from surfops.rewrite import neighbors
from surfops.surface import Surface
from surfops.words import CyclicWord, Renaming

VALUE_TYPES = (CyclicWord, Surface, ChordDiagram, Renaming)


@pytest.fixture
def cross_checked(monkeypatch):
    """Make every trusted build also call the public constructor, which must accept it and agree.

    Both have the same fields and the same hash, so a hash kept by either is the one the other computes.
    Yields the number of trusted builds per type.
    """
    built = Counter()
    for cls in VALUE_TYPES:
        def trusted(*args, cls=cls, build=cls._of):
            value = build(*args)
            public = cls(*args)
            assert vars(public) == vars(value), f"{cls.__name__}{args!r}: {public!r} != {value!r}"
            assert hash(public) == hash(value), f"{cls.__name__}{args!r}: the hashes differ"
            built[cls.__name__] += 1
            return value

        monkeypatch.setattr(cls, "_of", staticmethod(trusted))
    return built


@pytest.fixture
def build_counts(monkeypatch):
    """The number of trusted builds per type, counted without checking them."""
    built = Counter()
    for cls in VALUE_TYPES:
        def counted(*args, cls=cls, build=cls._of):
            built[cls.__name__] += 1
            return build(*args)

        monkeypatch.setattr(cls, "_of", staticmethod(counted))
    return built


def _pool():
    return surface_pool(3, 1)


def test_laws_sweep_build_counts(build_counts):
    """One exhaustive sweep of the benchmark's laws pool (labels <= 4, genus 0) does not rebuild more values.

    The renamings of a label set onto one tuple of names are built once per sweep (its permuted ones
    once for both tags), and each distinct composite, restriction and union
    of renamings once per family, like each distinct target operation with its operands; the counts of
    surfaces and words are those of one target operation per distinct operation in each family.
    """
    pool = surface_pool(4, 0)
    build_counts.clear()
    report = check_axioms(SurfaceTarget(), pool)
    assert len(pool) == 65 and report.passed and report.total_checked == 43959
    assert build_counts["Renaming"] == 2996, build_counts
    assert build_counts["Surface"] <= 10376 and build_counts["CyclicWord"] <= 18901, build_counts


def test_no_store_outlives_its_sweep(build_counts):
    """A second sweep of the same pool builds exactly what the first built: nothing was kept between them."""
    pool = surface_pool(3, 0)
    build_counts.clear()
    first = check_axioms(SurfaceTarget(), pool)
    built_first = Counter(build_counts)
    build_counts.clear()
    second = check_axioms(SurfaceTarget(), pool)
    assert str(first) == str(second) and first.passed
    assert build_counts == built_first and built_first["Renaming"] and built_first["Surface"], build_counts


def test_random_driver_builds_every_composite(monkeypatch):
    """The random driver shares nothing: each composition instance builds its composite, restrictions and union."""
    calls = Counter()
    for name in ("after", "restrict", "union", "identity"):
        def counted(*args, name=name, call=getattr(Renaming, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(Renaming, name, staticmethod(counted) if name == "identity" else counted)
    report = check_axioms_random(SurfaceTarget(), surface_sampler(max_labels=4, max_g=1), 900, random.Random(27))
    checked = {name: res.checked for name, res in report.families.items()}
    assert report.passed and calls["identity"] > 0
    assert calls["after"] == checked["rename_functoriality"] - calls["identity"] > 0
    assert calls["union"] == checked["compose_equivariance"] == 100
    assert calls["restrict"] == 2 * checked["compose_equivariance"] + checked["contract_equivariance"]


def test_laws_build_only_valid_values(cross_checked):
    report = check_axioms(SurfaceTarget(), _pool())
    assert report.passed and report.total_checked > 1000
    assert all(cross_checked[cls.__name__] for cls in (CyclicWord, Surface, Renaming)), cross_checked


def test_moves_build_only_valid_values(cross_checked):
    rng = random.Random(20261018)
    successors = 0
    for i in range(100):
        d = random_diagram(rng, max_labels=4, max_arcs=4, ensure_handle=i % 4 == 0)
        successors += len(list(neighbors(d)))
    assert cross_checked["ChordDiagram"] == successors > 1000


def test_matchings_and_layouts_build_only_valid_values(cross_checked):
    assert [len(enumerate_matchings(n)) for n in range(5)] == [1, 1, 3, 15, 105]
    layouts = sum(len(all_canonical_diagrams(q)) for q in _pool())
    assert cross_checked["ChordDiagram"] == 1 + 1 + 3 + 15 + 105 + layouts


def test_cross_check_catches_bad_trusted_arguments(cross_checked):
    with pytest.raises(AssertionError):
        ChordDiagram._of(("#1", "#2"), (("#2", "#1"),))  # arcs not in canonical form
    with pytest.raises(ValueError):
        Surface._of([CyclicWord(["a"]), CyclicWord(["a"])], 0)  # a repeated label


_DROP_A_LABEL = """
from surfops.surface import Surface, compose, self_glue
from surfops.words import CyclicWord

assert False, "asserts must be off"  # stripped by -O
q1, q2, q3 = (Surface.parse(t) for t in ("{ ( a x y ) }^0", "{ ( c z ) }^1", "{ ( a 1 b 2 ) }^0"))
build = Surface._build

def drop_a_label(self, words, genus):
    words = list(words)
    i = next(i for i, w in enumerate(words) if len(w))
    words[i] = CyclicWord._of(words[i].items[1:])
    build(self, words, genus)

Surface._build = drop_a_label
for name, call in (("compose", lambda: compose(q1, "a", q2, "c")), ("self_glue", lambda: self_glue(q3, "a", "b"))):
    try:
        call()
    except AssertionError as exc:
        print(name, "caught:", exc)
"""


def test_operations_catch_a_faulty_build_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _DROP_A_LABEL], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    caught = [line.split()[0] for line in proc.stdout.splitlines() if " caught: " in line]
    assert caught == ["compose", "self_glue"], proc.stdout
