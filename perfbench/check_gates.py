"""Shows that the benchmark's gates catch a broken program and that its caps fail fast.

Usage, from the root of a checkout:

    python3 perfbench/check_gates.py

Checks, each printed with its outcome:

1. the ``laws`` pass fails requests (fail_frac > 0) when the target is the
   merge contraction that drops its genus increment, the mutant of
   acceptance criterion 9, and passes with the honest target;
2. the ``census`` pass fails a request when its expected Harer-Zagier
   table is perturbed by one;
3. the ``moves`` pass fails requests when ``neighbors`` drops one move
   family (handle moves), and passes with the package's ``neighbors``;
4. a request one past each cap (census n, certificate depth, exhaustive
   pool size) fails at once with a message;
5. the numbers the gates rely on reproduce independently: the
   criterion-1 pool's per-family counts, and the n = 6 census.

Exits 0 when every check behaves, 1 otherwise.  Takes about 20 s.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

import oracle
import run
import tracing
import work_census
import work_laws
import work_moves
from common import CapExceeded

CRITERION_1_COUNTS = [3132, 88641, 52272, 23472, 432, 864, 648, 648, 1296]
HZ_6 = {0: 132, 1: 2310, 2: 6468, 3: 1485}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    sp = run.import_surfops()
    null = tracing.NullTracer()
    results = []

    def check(ok, what):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    inputs = work_laws.setup(sp, 1, null)
    honest = run.run_pass(work_laws, sp, inputs, null)
    check(honest.failed == 0, f"laws, honest target: {honest.failed} of {len(honest.latencies)} requests failed")
    inputs.target = work_laws.mutant_target(sp)
    mutant = run.run_pass(work_laws, sp, inputs, null)
    check(mutant.failed > 0, f"laws, mutant target: {mutant.failed} of {len(mutant.latencies)} requests failed")

    ladder, table = work_census.setup(sp, 1, null)
    perturbed = dict(table)
    perturbed[1] += 1
    res = run.run_pass(work_census, sp, (ladder, perturbed), null)
    check(res.failed > 0, f"census, perturbed table: {res.failed} of {len(res.latencies)} requests failed")

    diagrams, queries = work_moves.setup(sp, 1, null)
    honest = run.run_pass(work_moves, sp, (diagrams, queries), null)
    check(honest.failed == 0, f"moves, package neighbors: {honest.failed} of {len(honest.latencies)} requests failed")
    broken = types.SimpleNamespace(**vars(sp))
    broken.neighbors = lambda d: ((m, s) for m, s in sp.neighbors(d) if not isinstance(m, sp.HandleMove))
    res = run.run_pass(work_moves, broken, (diagrams, []), null)
    check(res.failed > 0,
          f"moves, neighbors without handle moves: {res.failed} of {len(res.latencies)} requests failed")

    source, target = queries[0][:2]
    past_caps = {
        "census n": lambda: work_census.census_request(sp, null, work_census.CENSUS_N_CAP + 1),
        "certificate depth": lambda: work_moves.certificate_query(
            sp.find_certificate, source, target, work_moves.CERT_DEPTH_CAP + 1
        ),
        "exhaustive pool": lambda: work_laws.pool(sp, work_laws.UNIVERSE + 1, 0),
    }
    for what, call in past_caps.items():
        t0 = perf_counter()
        try:
            call()
            message = "ran past the cap"
        except CapExceeded as exc:
            message = str(exc)
        elapsed = perf_counter() - t0
        ok = "exceeds the benchmark cap" in message and elapsed < 2.0
        check(ok, f"{what} past its cap, {elapsed:.2f} s: {message}")

    counts = list(oracle.axiom_counts(4, 2).values())
    check(counts == CRITERION_1_COUNTS, f"criterion-1 pool counts by formula: {counts}")
    check(oracle.axiom_counts(work_laws.UNIVERSE, work_laws.MAX_G) == work_laws.EXHAUSTIVE_COUNTS,
          "laws pool counts by formula equal the pinned ones")
    check(oracle.harer_zagier(6) == HZ_6, f"Harer-Zagier n = 6: {oracle.harer_zagier(6)}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
