"""surfops benchmark: four closed-loop workloads, end-to-end metrics and a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload laws|moves|census|text --seed N --seconds S --trace 0|1

One single-threaded caller sends each workload's requests one after another.
The request set is made from ``--seed``; a run repeats it until ``--seconds``
would be exceeded (at least once).  Every output is checked against
``oracle``; a wrong output or an unexpected exception fails the request.
Reported times are at a fixed reference speed, which takes the shared host's
swings out of them (see ``hostspeed``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, prints a per-module self-time table and writes the spans
to ``perfbench/out/``.  Metric names and units come from ``BENCHMARK.json``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import work_census  # noqa: E402
import work_laws  # noqa: E402
import work_moves  # noqa: E402
import work_text  # noqa: E402
from common import CapExceeded, Failure  # noqa: E402

WORKLOADS = {"laws": work_laws, "moves": work_moves, "census": work_census, "text": work_text}
SETUP_REPEATS = 3  # per pass


def import_surfops():
    """A fresh import of surfops and its CLI module (cached bytecode is reused)."""
    for name in [m for m in sys.modules if m == "surfops" or m.startswith("surfops.")]:
        del sys.modules[name]
    sp = importlib.import_module("surfops")
    importlib.import_module("surfops.cli")
    return sp


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []
        self.elapsed = 0.0  # including the output checks


def run_pass(workload, sp, inputs, tr) -> PassResult:
    """One pass over the request set; latencies are at the reference speed (see ``hostspeed``)."""
    gc.collect()  # every pass starts from a swept heap
    res = PassResult()
    spans = []
    started = perf_counter()
    with hostspeed.Sampler() as sampler:
        for rid, (kind, fn, check) in enumerate(workload.requests(sp, inputs, tr)):
            error = None
            spent = sampler.spent
            t0 = perf_counter()
            try:
                out = tr.request(rid, kind, fn)
            except Exception as exc:  # a request must never raise; record it as a failure
                error = f"{kind}: {type(exc).__name__}: {exc}"
                if not isinstance(exc, CapExceeded):
                    error += "\n" + traceback.format_exc(limit=4)
            t1 = perf_counter()
            spans.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
            if error is None:
                try:
                    res.items += check(out)
                except Failure as exc:
                    error = f"{kind}: {exc}"
                except Exception as exc:  # an output too broken to inspect
                    error = f"{kind}: output check raised {type(exc).__name__}: {exc}"
            if error is not None:
                res.failed += 1
                if len(res.errors) < 5:
                    res.errors.append(error)
    res.latencies = sampler.scaled(spans)
    res.elapsed = perf_counter() - started
    return res


def run_passes(seconds, one_pass):
    """Passes until the next one would end past ``seconds``; always at least one."""
    results = []
    started = perf_counter()
    while True:
        results.append(one_pass(len(results)))
        if perf_counter() - started + results[-1].elapsed > seconds:
            return results


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def request_latencies(passes):
    """Each request's median latency over the passes.

    Every pass sends the same request set, so latencies line up by position.
    """
    return [statistics.median(latencies) for latencies in zip(*(p.latencies for p in passes))]


def end_to_end(passes, setups, peak_rss_kib):
    best = request_latencies(passes)
    wall = sum(best)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    per_request = f"median of {len(passes)} passes per request, at the reference speed"
    metrics = {
        "wall_s": (wall, "s", f"{len(best)} requests, {per_request}"),
        "items_per_s": (passes[0].items / wall, "1/s", f"{passes[0].items} items, {per_request}"),
        "request_p50_ms": (1e3 * quantile(best, 0.50), "ms", f"n={len(best)}, {per_request}"),
        "request_p99_ms": (1e3 * quantile(best, 0.99), "ms", f"n={len(best)}, {per_request}"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups, at the reference speed"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB", "whole process, through the first pass"),
        "fail_frac": (failed / attempted, "fraction", f"{failed} of {attempted}"),
    }
    return metrics, attempted, failed


def layer_metrics(stats, counters):
    """Per-layer metrics of one traced pass, from span self times and boundary counters."""
    merged: dict[str, list] = {}
    for name, (calls, self_s) in stats.items():
        entry = merged.setdefault(name.split("@")[0], [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    out = {}
    for name, (calls, self_s) in merged.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(counters)
    tokenize_s = merged.get("lexer.tokenize", (0, 0.0))[1]
    out["lexer.tokens_per_s"] = counters.get("lexer.tokens", 0) / tokenize_s if tokenize_s else 0.0
    out["diagram.evaluate.ladder_s"] = stats.get("diagram.evaluate@ladder", (0, 0.0))[1]
    certificates = merged.get("rewrite.find_certificate", (0, 0.0))[0]
    out["rewrite.find_certificate.found_ratio"] = (
        counters.get("rewrite.find_certificate.found", 0) / certificates if certificates else 0.0
    )
    out["laws.ops_per_instance"] = work_laws.ops_per_instance(stats, counters)
    return out


def module_table(stats) -> str:
    by_module: Counter = Counter()
    for name, (_, self_s) in stats.items():
        module = name.split(".")[0]
        by_module["benchmark (request, unspanned)" if module == "request" else module] += self_s
    total = sum(by_module.values()) or 1.0
    lines = [f"  {'module':32} {'self_s':>10} {'share':>7}"]
    for module, self_s in by_module.most_common():
        lines.append(f"  {module:32} {self_s:10.4f} {100 * self_s / total:6.1f}%")
    return "\n".join(lines)


def traced_run(name, seed, seconds):
    workload = WORKLOADS[name]
    tr = tracing.Tracer()
    sp = import_surfops()
    inputs = workload.setup(sp, seed, tr)
    setup_stats = tr.self_times()
    null = tracing.NullTracer()
    untraced, traced, per_pass = [], [], []

    def one_pass(i):
        if i % 2 == 0:
            res = run_pass(workload, sp, inputs, null)
            untraced.append(res)
            return res
        lo, before = len(tr), Counter(tr.counters)
        res = run_pass(workload, sp, inputs, tr)
        stats = {**setup_stats, **tr.self_times(lo)}
        per_pass.append((stats, dict(tr.counters - before)))
        traced.append(res)
        return res

    passes = run_passes(seconds, one_pass)
    if not traced:
        passes.append(one_pass(1))
    metrics = {}
    for stats, counters in per_pass:
        for metric, value in layer_metrics(stats, counters).items():
            metrics.setdefault(metric, []).append(value)
    metrics = {
        metric: statistics.median_low(values) if all(isinstance(v, int) for v in values) else statistics.median(values)
        for metric, values in metrics.items()
    }
    metrics["trace.overhead_frac"] = (
        sum(request_latencies(traced)) / sum(request_latencies(untraced)) - 1
    )
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{name}-seed{seed}.csv")
    table = module_table(per_pass[-1][0])
    return metrics, passes, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "surfops" / "__init__.py").is_file():
        print(f"no surfops package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_surfops()  # untimed: loads the standard library modules and writes cached bytecode
    workload = WORKLOADS[args.workload]

    if args.trace:
        values, passes, table = traced_run(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        report = {name: (values.get(name, 0), units[name], "") for name in units}
    else:
        setups, peak_rss = [], []

        def set_up():
            sp = import_surfops()
            return sp, workload.setup(sp, args.seed, tracing.NullTracer())

        def one_pass(i):
            # Set-ups are spread over the run, SETUP_REPEATS before each pass, so that
            # they sample the same host conditions as the passes do.
            for _ in range(SETUP_REPEATS):
                sp = inputs = None  # the previous set-up is freed outside the timer
                gc.collect()
                (sp, inputs), elapsed = hostspeed.timed(set_up)
                setups.append(elapsed)
            res = run_pass(workload, sp, inputs, tracing.NullTracer())
            if i == 0:
                # Each fresh import of surfops leaves about 0.2 MiB behind, so later set-ups
                # would tie the peak to the number of passes, that is, to the host's speed.
                peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            return res

        passes = run_passes(args.seconds, one_pass)
        report, _, _ = end_to_end(passes, setups, peak_rss[0])
        wanted = spec["end_to_end"]
        table = None

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"
          f"  requests {attempted}  failed {failed}")
    for name, (value, unit, note) in report.items():
        print(f"  {name:40} {value:>14.6g} {unit:9} {note}")
    if table:
        print("per-module self time, last traced pass:")
        print(table)
    for p in passes:
        for error in p.errors:
            print(f"FAILED {error}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        value, unit, _ = report[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.items()},
                    **{k: result[k] for k in ("correct", "attempted", "failed")}}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
