#!/usr/bin/env python3
"""The spochar benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout (it imports ``src/spochar``).
Each workload runs in a fresh single-threaded child interpreter
(`child.py`) that draws a fixed number of items from fixed pools with the
seed, repeats whole passes over them for ``--seconds``, and checks every
output against an oracle and the recorded fingerprints in
``fingerprints.json``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of one
pass over the item set), ``item_p50_ms`` and ``item_p90_ms`` (per-item
latency over every pass), ``setup_s`` (median of several cold set-ups:
import plus warming the per-algebra tables; on ``cli_session`` a cold
``python -m spochar.cli`` running the session's first line) and
``peak_rss_mb`` (ru_maxrss of the measuring child).  Times are corrected
for the host's momentary speed by a reference kernel timed alongside
(`speed.py`); the raw times are in the result record.  ``--trace 1`` spends
half the time untraced and half with every layer's public functions wrapped
(`tracing.py`), then one pass under tracemalloc, and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
the environment stamp goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from child import PER_LAYER_UNITS
from speed import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
RUN_LIMIT_S = 170  # one run of one workload must end well within 180 s
END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def src_loc():
    """Non-blank lines of the package's Python source."""
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted((ROOT / "src" / "spochar").rglob("*.py"))
    )


def _child(args, timeout):
    cmd = [sys.executable, str(HERE / "child.py")] + args
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {timeout:.0f} s: {' '.join(args)}") from None
    if res.returncode != 0 or not res.stdout.strip():
        raise BenchError(f"child failed ({res.returncode}): {' '.join(args)}\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def cold_cli(line, expected, tag, timeout):
    """Corrected and raw wall time of a cold `python -m spochar.cli <line>`
    with an empty cache, and the problems found in its output."""
    cache = workloads.OUT_DIR / f"cold-cache-{os.getpid()}-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "spochar.cli"] + line.split() + ["--cache-dir", str(cache)]
    gauge = SpeedGauge()
    try:
        for _ in range(3):
            gauge.sample()
        t0 = perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
        elapsed = perf_counter() - t0
        for _ in range(3):
            gauge.sample()
    except subprocess.TimeoutExpired:
        raise BenchError(f"cold CLI start timed out after {timeout:.0f} s") from None
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    timing = {"setup_s": elapsed * gauge.factor(), "raw_setup_s": elapsed}
    if res.returncode != 0:
        return timing, [f"cold {line}: exit code {res.returncode}: {res.stderr.decode()[-500:]}"]
    got = {"bytes": len(res.stdout), "digest": workloads.digest(res.stdout)}
    want = expected.get(line)
    return timing, [] if got == want else [f"cold {line}: fingerprint {got} != recorded {want}"]


def measure(workload, seed, seconds, trace, limit=None):
    """Run one workload; returns the result record (metrics plus stamp)."""
    start = perf_counter()
    repeats = SETUP_REPEATS if limit is None else 1
    attempted, failed, problems, setups = 0, 0, [], []
    if not trace:
        if workload == "cli_session":
            expected = workloads.load_fingerprints()
            first = workloads.draw(workload, seed)[0]
            for i in range(repeats):
                timing, found = cold_cli(first, expected, i, RUN_LIMIT_S / 4)
                setups.append(timing)
                attempted += 1
                failed += bool(found)
                problems += found
        else:
            for _ in range(repeats):
                setups.append(_child(["setup", "--workload", workload], RUN_LIMIT_S / 4))
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if limit is not None:
        args += ["--limit", str(limit)]
    res = _child(args, max(RUN_LIMIT_S - (perf_counter() - start), 1))
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(t["setup_s"] for t in setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        res["raw"]["setup_s"] = statistics.median(t["raw_setup_s"] for t in setups)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": workload,
        "correct": res["failed"] + failed == 0,
        "attempted": res["attempted"] + attempted,
        "failed": res["failed"] + failed,
        "problems": (problems + res["problems"])[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "stamp": {
            "python": platform.python_version(),
            "kernel_backend": res["kernel_backend"],
            "nproc": os.cpu_count(),
            "seed": seed,
            "repeats": res["passes"],
            "items_per_pass": res["items"],
            "latency_samples": res["samples"],
            "setup_repeats": len(setups),
            "src_loc": src_loc(),
            "trace": int(trace),
        },
        **({"spans_file": res["spans_file"]} if "spans_file" in res else {}),
        "raw": res.get("raw"),
        "reference_ms": res["reference_ms"],
    }


def report(record):
    """Human-readable lines for one workload."""
    name = record["workload"]
    lines = [f"{name}: fail_ratio = {record['failed']}/{record['attempted']}"]
    lines += [f"{name}: {key} = {m['value']:.6g} {m['unit']}" for key, m in record["metrics"].items()]
    lines += [f"{name}: problem: {p}" for p in record["problems"]]
    lines.append(f"{name}: stamp {json.dumps(record['stamp'], sort_keys=True)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description="spochar benchmark")
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="smoke test: at most this many items per pass and a single set-up")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spochar" / "__init__.py").is_file():
        print(f"error: no spochar source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, args.trace, args.limit)
            path = workloads.OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            print("\n".join(report(record)), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
