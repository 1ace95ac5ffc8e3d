"""Workload pools, seeded item draws, item execution and output checks.

Nothing here imports spochar at module level: drawing items needs only the
pools, and constructing a `Program` does the import, so that set-up time can
be measured from a cold interpreter.

An item is one public call (or one pair of calls whose results must agree):
one Kac character, one Euler/Jacobi-Trudi or Jacobi-Trudi/dual pair, one
irreducibility report, or one CLI line.  Item ids are plain strings
"<kind> <algebra> <argument>"; CLI items are the command line itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

WORKLOADS = ("kac_sweep", "euler_jt_grid", "laplacian_reports", "cli_session")


class Pool(NamedTuple):
    name: str
    items: tuple
    quota: int


def _parts(text):
    return tuple(int(x) for x in text.split(","))


# Every pool lists its items in ascending cost, as measured at the commit that
# added the benchmark, and `draw` takes one item from each of `quota` equal
# slices of that order: whatever the seed, a pass gets the same cost profile,
# so the seed changes the inputs without moving wall_s or the percentiles.
# Quotas put p50 and p90 inside one item's repeats, not on the gap between
# two items of different cost, whose reading would move with the number of
# passes: n items per pass ending in 5 does that (0.5n and 0.9n end in .5);
# on euler_jt_grid and cli_session the items on either side of the gap cost
# about the same.

# Kac characters of dominant integral weights (nonzero characters only).
# |W| = 16 on spo(4|3) and spo(2|5), sampled; |W| = 64 on spo(4|5) and 96 on
# spo(6|3), taken whole, with the weights costing over ~0.5 s left out so
# that a run holds several passes.
KAC_43 = (
    '1d1', '1d1+1d2', '1d1+1d2+1e1', '2d1+2d2', '2d1+1d2', '2d1', '1d1+1d2+2e1', '3d1', '3d1+1d2', '1d1+1d2+3e1',
    '2d1+2d2+1e1', '1d1+1d2+4e1', '3d1+2d2', '4d1+1d2', '2d1+1d2+1e1', '4d1', '2d1+2d2+2e1', '3d1+1d2+1e1',
    '3d1+3d2', '2d1+1d2+4e1', '2d1+2d2+3e1', '2d1+1d2+2e1', '4d1+2d2', '2d1+1d2+3e1', '3d1+2d2+1e1', '3d1+3d2+1e1',
    '4d1+1d2+1e1', '4d1+3d2', '2d1+2d2+4e1', '3d1+1d2+2e1', '3d1+2d2+2e1', '3d1+1d2+3e1', '4d1+2d2+1e1',
    '3d1+3d2+2e1', '4d1+4d2', '3d1+1d2+4e1', '4d1+1d2+2e1', '3d1+2d2+3e1', '4d1+3d2+1e1', '4d1+4d2+1e1',
    '3d1+3d2+3e1', '3d1+2d2+4e1', '4d1+1d2+3e1', '4d1+2d2+2e1', '4d1+3d2+2e1', '4d1+4d2+2e1', '4d1+1d2+4e1',
    '3d1+3d2+4e1', '4d1+2d2+3e1', '4d1+3d2+3e1', '4d1+4d2+3e1', '4d1+3d2+4e1', '4d1+4d2+4e1', '4d1+2d2+4e1',
)
KAC_25 = (
    '1d1', '2d1', '0', '3d1', '1d1+1e1', '2d1+1e1', '4d1', '2d1+1e1+1e2', '1d1+2e1', '2d1+2e1', '3d1+1e1',
    '4d1+1e1', '3d1+1e1+1e2', '2d1+2e1+1e2', '2d1+3e1', '1d1+3e1', '3d1+2e1', '4d1+1e1+1e2', '2d1+3e1+1e2',
    '4d1+2e1', '1d1+4e1', '2d1+2e1+2e2', '3d1+2e1+1e2', '2d1+4e1', '2d1+3e1+2e2', '3d1+3e1', '2d1+3e1+3e2',
    '4d1+2e1+1e2', '3d1+2e1+2e2', '2d1+4e1+1e2', '4d1+2e1+2e2', '3d1+3e1+1e2', '4d1+3e1', '2d1+4e1+2e2',
    '3d1+3e1+2e2', '3d1+3e1+3e2', '2d1+4e1+3e2', '2d1+4e1+4e2', '3d1+4e1+1e2', '4d1+3e1+1e2', '4d1+3e1+2e2',
    '4d1+4e1', '3d1+4e1', '3d1+4e1+2e2', '4d1+3e1+3e2', '3d1+4e1+4e2', '4d1+4e1+1e2', '3d1+4e1+3e2', '4d1+4e1+2e2',
    '4d1+4e1+3e2', '4d1+4e1+4e2',
)
KAC_45 = (
    '0', '2d1+1d2', '1d1', '2d1+2d2', '2d1+2d2+1e1+1e2', '2d1+1d2+1e1', '2d1+2d2+1e1', '2d1+2d2+2e1', '2d1+1d2+2e1',
)
KAC_63 = (
    '1d1+1d2+1d3', '1d1+1d2', '1d1+1d2+1d3+1e1', '1d1+1d2+1d3+2e1', '2d1+1d2', '2d1+1d2+1d3', '2d1+1d2+1d3+1e1',
    '2d1+2d2', '2d1+2d2+1d3', '2d1+1d2+1d3+2e1',
)

# Partitions with |lambda| <= 6.  Euler = Jacobi-Trudi on the delta-chain
# parabolic takes at most n-1 parts; the p-form/e-form pair needs the (n|m)
# hook.  The spo(6|3) Euler and spo(4|3) pair pools stop at |lambda| = 5:
# their size-6 items cost 0.3-1 s each, too many for a pass of a few seconds.
EULER_43 = (
    '1', '2', '3', '4', '5', '6',
)
EULER_63 = (
    '1', '2', '1,1', '3', '2,1', '4', '2,2', '3,1', '5', '3,2', '4,1',
)
PAIR_23 = (
    '1', '2', '1,1', '2,1', '1,1,1', '3', '3,1', '2,1,1', '1,1,1,1', '4', '3,1,1', '4,1', '2,1,1,1', '5',
    '1,1,1,1,1', '3,1,1,1', '4,1,1', '1,1,1,1,1,1', '6', '5,1', '2,1,1,1,1',
)
PAIR_43 = (
    '1', '1,1', '2', '2,1', '2,2', '1,1,1', '3', '3,1', '2,1,1', '1,1,1,1', '4', '3,2', '2,2,1', '1,1,1,1,1',
    '3,1,1', '2,1,1,1', '4,1', '5',
)

# (algebra, degree) of the Laplacian kernel report.  Light: domain dimension
# up to ~180 (5-180 ms).  Medium: 170-400 (0.15-0.55 s), taken whole.
# Larger degrees (spo(4|4) degree 6 and up, 1-4 s each) would leave too few
# items per run for a p90 with ten samples above it.
LAP_LIGHT = (
    ('2|4', 1), ('4|3', 1), ('4|4', 1), ('6|4', 1), ('4|6', 1), ('6|6', 1), ('2|4', 2), ('4|3', 2), ('4|4', 2),
    ('6|4', 2), ('2|4', 3), ('4|6', 2), ('4|3', 3), ('6|6', 2), ('4|4', 3), ('2|4', 4), ('6|4', 3), ('4|3', 4),
    ('4|6', 3), ('2|4', 5),
)
LAP_MEDIUM = (
    ('6|6', 3), ('4|4', 4), ('4|3', 5), ('2|4', 6), ('6|4', 4), ('4|4', 5),
)

# CLI lines on spo(2|3) and spo(4|3).  Every session opens with an opener
# line, so the cold-start set-up, which runs the session's first line, costs
# the same for every seed.  Light lines cost 3-9 ms when first sent, about a
# cache read; heavy ones 10-25 ms, so the misses above the p90 are compute.
CLI_OPEN = (
    'kac --algebra 2|3 --weight 1d1+1e1',
    'kac --algebra 2|3 --weight 2d1',
    'kac --algebra 2|3 --weight 2d1+1e1',
    'kac --algebra 2|3 --weight 2d1+2e1',
    'kac --algebra 2|3 --weight 3d1+1e1',
    'kac --algebra 2|3 --weight 1d1',
)
CLI_LIGHT = (
    'dim --algebra 2|3 --irr 2d1+1e1 --format json',
    'dim --algebra 2|3 --jt 3,1',
    'decompose --algebra 2|3 --kac 2d1+1e1',
    'decompose --algebra 2|3 --jt 3,1',
    'decompose --algebra 2|3 --kac 3d1+2e1',
    'dim --algebra 4|3 --kac 3d1+1d2 --closed-form',
    'dim --algebra 4|3 --jt 3,1',
    'decompose --algebra 2|3 --kac 4d1+2e1 --basis kac',
    'decompose --algebra 2|3 --tensor 2d1+1e1',
    'jt --algebra 2|3 --partition 4',
    'jt --algebra 4|3 --partition 2',
    'kac --algebra 2|3 --weight 2d1+1e1 --format latex',
    'kac --algebra 2|3 --weight 3d1+2e1',
    'euler --algebra 2|3 --parabolic remove=e1 --levi-module natural',
    'dim --algebra 2|3 --kac 2d1+1e1',
    'euler --algebra 2|3 --parabolic remove=d1-e1 --levi-module onedim:2d1',
    'decompose --algebra 2|3 --kac 3d1+1e1 --format json',
    'jt --algebra 4|3 --partition 2,1',
    'decompose --algebra 2|3 --jt 2,1,1',
    'jt --algebra 2|3 --partition 2,1',
    'euler --algebra 2|3 --parabolic remove=e1 --levi-module hook:3,1,1',
    'kac --algebra 2|3 --weight 4d1+3e1 --format json',
    'dim --algebra 2|3 --irr 3d1+2e1',
    'jt --algebra 4|3 --partition 3,1',
    'jt --algebra 4|3 --partition 2,2 --format latex',
)
CLI_HEAVY = (
    'euler --algebra 4|3 --parabolic remove=e1 --levi-module natural',
    'kac --algebra 4|3 --weight 1d1',
    'euler --algebra 4|3 --parabolic remove=d1-d2 --levi-module onedim:3d1',
    'kac --algebra 4|3 --weight 2d1+1d2',
    'jt --algebra 2|3 --partition 2,1,1 --format json',
    'dim --algebra 4|3 --kac 2d1+2d2+2e1',
    'jt --algebra 2|3 --partition 3,1,1',
    'euler --algebra 4|3 --parabolic remove=d1-d2 --levi-module onedim:2d1 --format json',
    'kac --algebra 4|3 --weight 3d1+1d2 --format json',
    'kac --algebra 4|3 --weight 2d1+2d2+1e1',
    'kac --algebra 4|3 --weight 2d1+1d2+2e1 --format latex',
)

POOLS = {
    "kac_sweep": (
        Pool("kac 4|3", tuple(f"kac 4|3 {w}" for w in KAC_43), 28),
        Pool("kac 2|5", tuple(f"kac 2|5 {w}" for w in KAC_25), 28),
        Pool("kac 4|5", tuple(f"kac 4|5 {w}" for w in KAC_45), len(KAC_45)),
        Pool("kac 6|3", tuple(f"kac 6|3 {w}" for w in KAC_63), len(KAC_63)),
    ),
    "euler_jt_grid": (
        Pool("euler 4|3", tuple(f"euler 4|3 {p}" for p in EULER_43), len(EULER_43)),
        Pool("euler 6|3", tuple(f"euler 6|3 {p}" for p in EULER_63), len(EULER_63)),
        Pool("jtpair 2|3", tuple(f"jtpair 2|3 {p}" for p in PAIR_23), 14),
        Pool("jtpair 4|3", tuple(f"jtpair 4|3 {p}" for p in PAIR_43), len(PAIR_43)),
    ),
    "laplacian_reports": (
        Pool("report light", tuple(f"report {a} {k}" for a, k in LAP_LIGHT), 19),
        Pool("report medium", tuple(f"report {a} {k}" for a, k in LAP_MEDIUM), len(LAP_MEDIUM)),
    ),
    "cli_session": (
        Pool("cli open", CLI_OPEN, 1),
        Pool("cli light", CLI_LIGHT, 6),
        Pool("cli heavy", CLI_HEAVY, 9),
    ),
}

# Each distinct CLI line is followed, somewhere later, by repeats: three of
# every four lines of a session are repeats, served from the cache.
CLI_REPEATS_PER_LINE = 3

# Per-algebra lru_cache tables warmed during set-up, per workload.
TABLES = {
    "kac_sweep": ("weyl_group", "denominators"),
    "euler_jt_grid": ("weyl_group", "denominators", "power_table"),
    "laplacian_reports": ("degree_basis",),
    "cli_session": ("weyl_group", "denominators", "power_table"),
}


def all_items(workload):
    return [item for pool in POOLS[workload] for item in pool.items]


def draw(workload, seed):
    """The run order of one pass: a fixed number of items from each pool."""
    rng = random.Random(f"{workload}/{seed}")
    picked = []
    for pool in POOLS[workload]:
        n = len(pool.items)
        for i in range(pool.quota):
            picked.append(rng.choice(pool.items[i * n // pool.quota:(i + 1) * n // pool.quota]))
    if workload != "cli_session":
        rng.shuffle(picked)
        return picked
    opener, rest = picked[0], picked[1:]
    rng.shuffle(rest)
    fresh = [opener] + rest
    # The opener comes first; every later slot holds the next fresh line or a
    # repeat of a line already sent, with exactly CLI_REPEATS_PER_LINE
    # repeats per fresh line overall.
    slots = len(fresh) * (1 + CLI_REPEATS_PER_LINE)
    fresh_at = {0} | set(rng.sample(range(1, slots), len(fresh) - 1))
    stream, sent = [], []
    for i in range(slots):
        if i in fresh_at:
            sent.append(fresh[len(sent)])
            stream.append(sent[-1])
        else:
            stream.append(rng.choice(sent))
    return stream


def algebras(workload):
    out = []
    for item in all_items(workload):
        alg = item.split()[2] if workload == "cli_session" else item.split()[1]
        if alg not in out:
            out.append(alg)
    return out


def load_fingerprints():
    with open(FINGERPRINTS) as fh:
        return json.load(fh)["items"]


# -- the program under test --------------------------------------------------------


class Program:
    """The spochar modules, imported on construction.  Every call goes through
    a module attribute at call time, so a tracer that re-binds those
    attributes sees it."""

    def __init__(self):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from spochar import charformulas, cli, jacobitrudi, laurent, rootdata, superspace

        self.charformulas = charformulas
        self.cli = cli
        self.jacobitrudi = jacobitrudi
        self.laurent = laurent
        self.rootdata = rootdata
        self.superspace = superspace

    def kernel_backend(self):
        fn = getattr(self.laurent, "kernel_backend", None)
        return fn() if fn else "python"

    def warm(self, workload):
        """Fill the per-algebra lru_cache tables the workload's items read."""
        tables = TABLES[workload]
        for text in algebras(workload):
            alg = self.rootdata.Algebra.parse(text)
            if "weyl_group" in tables:
                self.rootdata.weyl_group(alg)
            if "denominators" in tables:
                self.charformulas.denominators(alg)
            if "power_table" in tables:
                table = self.jacobitrudi.power_table(alg)
                table.p(0)
                table.e(0)
        if "degree_basis" in tables:
            for item in all_items(workload):
                _, text, k = item.split()
                alg = self.rootdata.Algebra.parse(text)
                self.superspace.degree_basis(alg, int(k))
                self.superspace.degree_basis(alg, int(k) - 2)

    # -- items ---------------------------------------------------------------

    def run(self, item, session=None):
        """Execute one item; returns the raw outputs that `check` reads."""
        if session is not None:
            return session.send(item)
        kind, text, arg = item.split(" ", 2)
        alg = self.rootdata.Algebra.parse(text)
        if kind == "kac":
            return self.charformulas.kac_character(alg, self.rootdata.Weight.parse(alg, arg))
        if kind == "euler":
            lam = _parts(arg)
            cf = self.charformulas
            p = cf.parabolic_removing(alg, [f"d{i + 1}-d{i + 2}" for i in range(alg.n - 1)])
            w = self.rootdata.Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)), [0] * alg.m)
            euler = cf.euler_character(p, cf.levi_character(p, "one_dimensional", w))
            return euler, self.jacobitrudi.jt_character(lam, alg)
        if kind == "jtpair":
            lam = _parts(arg)
            return self.jacobitrudi.jt_character(lam, alg), self.jacobitrudi.jt_character_e(lam, alg)
        if kind == "report":
            return self.superspace.irreducibility_report(alg, int(arg))
        raise ValueError(f"unknown item {item!r}")

    def fingerprint(self, item, out):
        """What the fingerprint file records for an item's output."""
        if isinstance(out, bytes):
            return {"bytes": len(out), "digest": digest(out)}
        kind = item.split()[0]
        if kind == "report":
            sing = [[w.format(), c] for w, c in out.singular_weights]
            body = [out.kernel_dim, out.classification, sing, out.has_trivial_submodule, out.top_cyclic_dim]
            return {"kernel_dim": out.kernel_dim, "classification": out.classification, "digest": digest(body)}
        return poly_fingerprint(out[0] if kind in ("euler", "jtpair") else out)

    def check(self, item, out, expected):
        """Problems with one output, as a list of strings (empty when correct)."""
        problems = []
        kind, text, arg = ("cli", "", "") if isinstance(out, bytes) else item.split(" ", 2)
        if kind in ("euler", "jtpair"):
            if canonical_terms(out[0]) != canonical_terms(out[1]):
                what = "Euler != Jacobi-Trudi" if kind == "euler" else "p-form != e-form"
                problems.append(f"{item}: {what}")
        elif kind == "kac":
            alg = self.rootdata.Algebra.parse(text)
            closed = self.charformulas.vdim_formula(alg, self.rootdata.Weight.parse(alg, arg), "classical")
            vdim = poly_fingerprint(out)["vdim"]
            if closed != vdim:
                problems.append(f"{item}: vdim {vdim} != closed form {closed}")
        elif kind == "report":
            alg = self.rootdata.Algebra.parse(text)
            k = int(arg)
            db = self.superspace.degree_basis
            want = len(db(alg, k)) - len(db(alg, k - 2))
            if out.kernel_dim != want:
                problems.append(f"{item}: kernel dim {out.kernel_dim} != dim(k) - dim(k-2) = {want}")
        got = self.fingerprint(item, out)
        if expected is None:
            problems.append(f"{item}: no recorded fingerprint")
        elif got != expected:
            problems.append(f"{item}: fingerprint {got} != recorded {expected}")
        return problems


class CliSession:
    """One closed-loop client sending lines to `spochar.cli.main` in-process,
    against a fresh cache directory.  Tells a cache hit from a miss from
    outside, by whether the call added a file to the cache."""

    def __init__(self, program, tag):
        self.program = program
        self.cache_dir = OUT_DIR / f"cli-cache-{os.getpid()}-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.first_output = {}
        self.last_was_miss = False
        self._files = 0

    def send(self, line):
        """Run one line; returns the bytes it wrote to stdout."""
        argv = line.split() + ["--cache-dir", str(self.cache_dir)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.program.cli.main(argv)
        files = len(os.listdir(self.cache_dir)) if self.cache_dir.exists() else 0
        self.last_was_miss = files > self._files
        self._files = files
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue().encode()

    def check_repeat(self, line, out):
        """A repeated line must return the bytes of its first answer."""
        first = self.first_output.setdefault(line, out)
        return [] if first == out else [f"{line}: cached bytes differ from the first answer"]

    def bytes_written(self):
        if not self.cache_dir.exists():
            return 0
        return sum(p.stat().st_size for p in self.cache_dir.iterdir())

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# -- canonical forms -----------------------------------------------------------------


def canonical_terms(poly):
    """Terms as sorted (exponent list, int coefficient) pairs, read from the
    JSON serialisation so the form does not depend on the in-memory layout."""
    return sorted((t["exp"], int(t["coef"])) for t in poly.to_json_dict()["terms"])


def poly_fingerprint(poly):
    terms = canonical_terms(poly)
    return {"terms": len(terms), "vdim": sum(c for _, c in terms), "digest": digest(terms)}


def digest(obj):
    data = obj if isinstance(obj, bytes) else json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:20]
