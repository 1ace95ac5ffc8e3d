#!/usr/bin/env python3
"""Benchmark the compiled term-arithmetic kernel against the pure-Python
fallback: micro-benchmarks on the raw kernel functions plus an end-to-end
character workload run in subprocesses (the kernel is chosen at import, so
each backend gets a fresh interpreter).

Usage: python benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import random
import statistics
import subprocess
import sys
import time


def make_terms(rng, nterms, rank=4, span=8):
    return {
        tuple(rng.randint(-span, span) for _ in range(rank)): rng.randint(-99, 99) or 1
        for _ in range(nterms)
    }


def bench_micro(repeat):
    from spochar.laurent import _kernel_py

    backends = [("python", _kernel_py)]
    try:
        from spochar.laurent import _kernel

        backends.append(("c", _kernel))
    except ImportError:
        print("compiled kernel not built; micro-benchmark covers the fallback only")

    rng = random.Random(42)
    a = make_terms(rng, 400)
    b = make_terms(rng, 400)
    print(f"{'kernel':<8} {'mul 400x400':>14} {'add':>10} {'axpy x100':>12}")
    for name, mod in backends:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            mod.mul_terms(a, b)
            times.append(time.perf_counter() - t0)
        mul_t = statistics.median(times)

        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            mod.add_terms(a, b)
            times.append(time.perf_counter() - t0)
        add_t = statistics.median(times)

        times = []
        shift = (1, -1, 0, 2)
        for _ in range(repeat):
            acc = dict(a)
            t0 = time.perf_counter()
            for _ in range(100):
                mod.axpy_terms(acc, 3, shift, b)
            times.append(time.perf_counter() - t0)
        axpy_t = statistics.median(times)
        print(f"{name:<8} {mul_t * 1e3:>12.2f}ms {add_t * 1e6:>8.1f}us {axpy_t * 1e3:>10.2f}ms")


WORKLOAD = """
import time
from spochar.laurent import kernel_backend
from spochar.rootdata import Algebra, Weight
from spochar.charformulas import euler_character, kac_character, levi_character, parabolic_removing
from spochar.jacobitrudi import jt_character

t0 = time.perf_counter()
alg = Algebra.parse("6|3")
p = parabolic_removing(alg, "d1-d2,d2-d3")
for lam in [(3,), (2, 2), (4, 1), (3, 2)]:
    w = Weight.from_coeffs(alg, list(lam) + [0] * (3 - len(lam)), [0])
    assert euler_character(p, levi_character(p, "one_dimensional", w)) == jt_character(lam, alg)
kac_character(alg, Weight.parse(alg, "4d1+3d2+2d3"))
print(f"{kernel_backend():<8} {time.perf_counter() - t0:6.2f}s  (Euler/Jacobi-Trudi workload, spo(6|3))")
"""


def bench_macro(repeat):
    import os

    for backend, env_extra in [("c", {}), ("python", {"SPOCHAR_PURE_PYTHON": "1"})]:
        env = dict(os.environ, **env_extra)
        for _ in range(repeat):
            res = subprocess.run([sys.executable, "-c", WORKLOAD], env=env, capture_output=True, text=True)
            if res.returncode:
                print(res.stderr, file=sys.stderr)
                sys.exit(f"end-to-end workload failed in the {backend} run (exit code {res.returncode})")
            print(res.stdout.strip())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    print("== micro: raw kernel functions ==")
    bench_micro(args.repeat)
    print("== macro: end-to-end character workload ==")
    bench_macro(min(args.repeat, 2))


if __name__ == "__main__":
    main()
