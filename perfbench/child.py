"""One fresh interpreter of the benchmark: set-up only, or a measured run.

    python3 perfbench/child.py setup --workload W
    python3 perfbench/child.py run --workload W --seed N --seconds S --trace 0|1 [--limit K]

Prints one JSON object on stdout.  `run.py` starts this script; it is not
meant to be called by hand.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here, before spochar is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from tracing import Tracer  # noqa: E402

# Per-layer metrics: (metric name, unit, span name, field).  A field starting
# with "max_" keeps the largest value; every other field adds up.
LAYER_FIELDS = (
    ("laurent.exact_div.calls", "count", "laurent.exact_div", "calls"),
    ("laurent.exact_div.self_s", "s", "laurent.exact_div", "self_s"),
    ("laurent.exact_div.dividend_terms", "count", "laurent.exact_div", "dividend_terms"),
    ("laurent.exact_div.quotient_terms", "count", "laurent.exact_div", "quotient_terms"),
    ("laurent.exact_div.failed", "count", "laurent.exact_div", "failed"),
    ("laurent.mul.calls", "count", "laurent.mul", "calls"),
    ("laurent.mul.self_s", "s", "laurent.mul", "self_s"),
    ("laurent.mul.term_pairs", "count", "laurent.mul", "term_pairs"),
    ("laurent.rational_sum.calls", "count", "laurent.rational_sum", "calls"),
    ("laurent.rational_sum.self_s", "s", "laurent.rational_sum", "self_s"),
    ("rootdata.weyl_group.order", "count", "rootdata.weyl_group", "max_order"),
    ("rootdata.antisymmetrize.calls", "count", "rootdata.antisymmetrize", "calls"),
    ("rootdata.antisymmetrize.self_s", "s", "rootdata.antisymmetrize", "self_s"),
    ("charformulas.kac_character.self_s", "s", "charformulas.kac_character", "self_s"),
    ("charformulas.euler_character.self_s", "s", "charformulas.euler_character", "self_s"),
    ("charformulas.denominators.self_s", "s", "charformulas.denominators", "self_s"),
    ("charformulas.result_terms", "count", ("charformulas.kac_character", "charformulas.euler_character"),
     "result_terms"),
    ("jacobitrudi.power_table.self_s", "s", "jacobitrudi.power_table", "self_s"),
    ("jacobitrudi.jt_character.self_s", "s", "jacobitrudi.jt_character", "self_s"),
    ("jacobitrudi.jt_character_e.self_s", "s", "jacobitrudi.jt_character_e", "self_s"),
    ("linalg.det_bareiss_laurent.calls", "count", "linalg.det_bareiss_laurent", "calls"),
    ("linalg.det_bareiss_laurent.self_s", "s", "linalg.det_bareiss_laurent", "self_s"),
    ("linalg.nullspace.calls", "count", "linalg.nullspace", "calls"),
    ("linalg.nullspace.self_s", "s", "linalg.nullspace", "self_s"),
    ("linalg.nullspace.cells", "count", "linalg.nullspace", "cells"),
    ("superspace.degree_basis.dim", "count", "superspace.degree_basis", "max_dim"),
    ("superspace.kernel_basis.self_s", "s", "superspace.kernel_basis", "self_s"),
    ("superspace.singular_vectors.self_s", "s", "superspace.singular_vectors", "self_s"),
    ("superspace.cyclic_span_dim.self_s", "s", "superspace.cyclic_span_dim", "self_s"),
    ("superspace.irreducibility_report.self_s", "s", "superspace.irreducibility_report", "self_s"),
)
CLI_METRICS = (
    ("cli.main.hit_ms", "ms"),
    ("cli.main.miss_ms", "ms"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.hit_ratio", "ratio"),
    ("cli.cache.bytes_written", "bytes"),
)
RUN_METRICS = (("trace.overhead_s", "s"), ("mem.tracemalloc_peak_mb", "MB"))
PER_LAYER_UNITS = dict([(m[0], m[1]) for m in LAYER_FIELDS] + list(CLI_METRICS) + list(RUN_METRICS))


class PassResult:
    """One pass: corrected and raw times (seconds), problems found, cache use."""

    def __init__(self, latencies, raw_latencies, failed, problems, cli=None):
        self.latencies = latencies
        self.raw_latencies = raw_latencies
        self.wall_s = sum(latencies)
        self.raw_wall_s = sum(raw_latencies)
        self.failed = failed
        self.problems = problems
        self.cli = cli
        self.stats = None  # span statistics of a traced pass


def run_pass(program, workload, items, expected, gauge, tracer=None, tag=""):
    """Run every item once, timed; then check every output."""
    session = workloads.CliSession(program, tag) if workload == "cli_session" else None
    outputs, bounds, misses = [], [], []
    try:
        for item in items:
            gauge.tick()
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = program.run(item, session)
                else:
                    with tracer.span("item " + item):
                        out = program.run(item, session)
            except Exception as exc:  # an item that raises is a failed item, not a crash
                out = exc
            bounds.append((t0, perf_counter()))
            outputs.append(out)
            if session is not None:
                misses.append(session.last_was_miss)
        gauge.sample()
        raw = [t1 - t0 for t0, t1 in bounds]
        latencies = [(t1 - t0) * gauge.factor(t0, t1) for t0, t1 in bounds]
        failed, problems = 0, []
        for item, out in zip(items, outputs):
            if isinstance(out, Exception):
                found = [f"{item}: raised {type(out).__name__}: {out}"]
            else:
                found = program.check(item, out, expected.get(item))
                if session is not None:
                    found += session.check_repeat(item, out)
            failed += bool(found)
            problems += found
        cli = None
        if session is not None:
            cli = {
                "hit_s": [t for t, miss in zip(latencies, misses) if not miss],
                "miss_s": [t for t, miss in zip(latencies, misses) if miss],
                "bytes_written": session.bytes_written(),
            }
    finally:
        if session is not None:
            session.close()
    return PassResult(latencies, raw, failed, problems, cli)


def run_passes(program, workload, items, expected, gauge, seconds, tracer=None):
    """Whole passes until `seconds` have gone by (at least one pass).  With a
    tracer, each pass's span statistics, in corrected seconds, go to
    `pass.stats`."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.reset()
        p = run_pass(program, workload, items, expected, gauge, tracer, tag=str(len(passes)))
        if tracer is not None:
            p.stats = corrected(tracer.snapshot(), p.wall_s / p.raw_wall_s if p.raw_wall_s else 1.0)
        passes.append(p)
        if perf_counter() >= deadline:
            return passes


def corrected(stats, factor):
    """Span statistics with their times scaled by a speed factor."""
    return {name: {k: v * factor if k.endswith("_s") else v for k, v in st.items()} for name, st in stats.items()}


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _combine(field, values):
    return max(values) if field.startswith("max_") else sum(values)


def layer_metrics(setup_stats, pass_stats):
    """Per-layer values for the traced set-up plus one pass: counts and
    self times are the set-up's plus the median over traced passes."""
    out = {}
    for metric, _, spans, field in LAYER_FIELDS:
        spans = spans if isinstance(spans, tuple) else (spans,)

        def value(stats):
            return _combine(field, [stats.get(s, {}).get(field, 0) for s in spans])

        per_pass = statistics.median(value(st) for st in pass_stats)
        out[metric] = _combine(field, [value(setup_stats), per_pass])
    return out


def cli_metrics(passes):
    if passes[0].cli is None:
        return {name: 0 for name, _ in CLI_METRICS}
    hit_s = [t for p in passes for t in p.cli["hit_s"]]
    miss_s = [t for p in passes for t in p.cli["miss_s"]]
    hits = len(hit_s) / len(passes)
    misses = len(miss_s) / len(passes)
    return {
        "cli.main.hit_ms": 1e3 * statistics.median(hit_s) if hit_s else 0,
        "cli.main.miss_ms": 1e3 * statistics.median(miss_s) if miss_s else 0,
        "cli.cache.hits": hits,
        "cli.cache.misses": misses,
        "cli.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "cli.cache.bytes_written": statistics.median(p.cli["bytes_written"] for p in passes),
    }


def timing_metrics(passes, attr="latencies", wall="wall_s"):
    latencies = [t for p in passes for t in getattr(p, attr)]
    return {
        "wall_s": statistics.median(getattr(p, wall) for p in passes),
        "item_p50_ms": 1e3 * percentile(latencies, 50),
        "item_p90_ms": 1e3 * percentile(latencies, 90),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    program = workloads.Program()
    if tracer is not None:
        tracer.install()
    program.warm(args.workload)
    raw_setup_s = perf_counter() - T0
    gauge = SpeedGauge()
    for _ in range(5):
        gauge.sample()
    setup_factor = gauge.factor()
    if args.mode == "setup":
        print(json.dumps({"setup_s": raw_setup_s * setup_factor, "raw_setup_s": raw_setup_s}))
        return 0

    items = workloads.draw(args.workload, args.seed)[: args.limit]
    expected = workloads.load_fingerprints()
    result = {"items": len(items), "kernel_backend": program.kernel_backend()}
    if tracer is None:
        passes = run_passes(program, args.workload, items, expected, gauge, args.seconds)
        result["metrics"] = timing_metrics(passes)
        result["raw"] = timing_metrics(passes, "raw_latencies", "raw_wall_s")
        measured = plain = passes
    else:
        setup_stats = corrected(tracer.snapshot(), setup_factor)
        tracer.uninstall()
        plain = run_passes(program, args.workload, items, expected, gauge, args.seconds / 2)
        with tracer:
            traced = run_passes(program, args.workload, items, expected, gauge, args.seconds / 2, tracer)
        tracemalloc.start()
        peak = run_pass(program, args.workload, items, expected, gauge, tag="tracemalloc")
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        metrics = layer_metrics(setup_stats, [p.stats for p in traced])
        metrics.update(cli_metrics(plain))
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in plain))
        metrics["mem.tracemalloc_peak_mb"] = peak_bytes / 2**20
        result["metrics"] = metrics
        workloads.OUT_DIR.mkdir(exist_ok=True)
        spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
        measured = plain + traced + [peak]
    result.update(
        passes=len(plain),
        samples=sum(len(p.latencies) for p in plain),
        attempted=sum(len(p.latencies) for p in measured),
        failed=sum(p.failed for p in measured),
        problems=[s for p in measured for s in p.problems][:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        reference_ms={"median": 1e3 * statistics.median(gauge.samples), "min": 1e3 * min(gauge.samples),
                      "samples": len(gauge.samples)},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
