"""Command-line front end: exact character computations, decompositions,
block queries, Laplacian kernel reports, identity checks, and the built-in
golden-table reproduction, with a content-addressed result cache.

Exit codes: 0 success, 2 argument/validation error or a request above its
size bound, 3 mathematical assertion failure (exact-division or
consistency violations).  `batch` writes each line's code beside that
line's output and exits with the largest; a line's --help or --version
text goes in its own slot.  One argument parser serves every call and
every batch line of a process, and each distinct line is parsed and keyed
once per process (`_line`): a repeated line costs one table lookup and one
read of its cache entry.

A call or batch line whose first word names a command is parsed by that
command's subparser alone (`_parse_args`), with the Namespace, the exit
codes and the messages that the top-level parser gives; anything else
(-h, --version, no command or an unknown one) goes through the top-level
parser.  A character's --format json document (kac, euler, jt, irr) is
what json.dumps(indent=2, sort_keys=True) writes, but only the small
fields go through json; the terms are written from one sorted pass, one
%-template per term (`_char_json`).

Import rule: only what `kac` and `euler` run (charformulas, laurent,
rootdata) is imported at module level.  Every other command imports the
modules it runs when it runs (jacobitrudi, blocksdecomp, superspace,
acceptance), so a one-shot call compiles and loads only its own path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from . import __version__
from .charformulas import (
    LeviCharacter,
    Parabolic,
    borel,
    euler_character,
    kac_character,
    levi_character,
    parabolic_removing,
    vdim_formula,
)
from .laurent import LATEX_SYMBOLS, LaurentPoly, format_exponent
from .rootdata import Algebra, DimensionGuard, Weight, validate_partition


class MathFailure(Exception):
    pass


# -- argument helpers ---------------------------------------------------------------


def _algebra(args) -> Algebra:
    return Algebra.parse(args.algebra)


def _int(text, what, whole):
    """int(text); text that is not an integer is refused naming the whole
    option value it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"cannot parse {what} {whole!r}") from None


def _partition(text):
    text = (text or "").strip()
    if text in ("", "0", "-"):
        return ()
    return validate_partition(_int(x, "partition", text) for x in text.split(","))


def _parabolic(alg, text) -> Parabolic:
    text = text.strip()
    if text in ("borel", "all"):
        return borel(alg)
    if text.startswith("remove="):
        text = text[len("remove="):]
    return parabolic_removing(alg, text)


def _levi_module(p, text) -> LeviCharacter:
    text = text.strip()
    if ":" not in text:
        if text == "trivial":
            return levi_character(p, "trivial")
        if text == "natural":
            return levi_character(p, "natural")
        raise ValueError(f"cannot parse Levi module {text!r}")
    tag, arg = text.split(":", 1)
    if tag == "sym":
        return levi_character(p, "sym_power", _int(arg, "Levi module", text))
    if tag == "ext":
        return levi_character(p, "ext_power", _int(arg, "Levi module", text))
    if tag == "hook":
        return levi_character(p, "hook_schur", _partition(arg))
    if tag == "onedim":
        return levi_character(p, "one_dimensional", Weight.parse(p.alg, arg))
    if tag == "evensimple":
        return levi_character(p, "even_simple", Weight.parse(p.alg, arg))
    raise ValueError(f"unknown Levi module tag {tag!r}")


# -- formatting ----------------------------------------------------------------------


def _char_text(ch: LaurentPoly, limit=30):
    lines = [f"vdim = {ch.evaluate_at_one()}   ({len(ch)} monomials)"]
    if len(ch) <= limit:
        for e, c in reversed(ch.sorted_terms()):
            lines.append(f"  {c:+d} * e^({format_exponent(e, ch.n)})")
    return "\n".join(lines)


def _char_json(alg, kind, ch: LaurentPoly, **extra):
    """The JSON document of a character, byte for byte what
    json.dumps(indent=2, sort_keys=True) writes for it: everything but the
    terms is dumped with an empty terms list, and the terms, written from
    one sorted pass with one %-template per term (`_term_template`), are
    spliced in there.  Only "algebra" sorts before "character", so the
    first empty terms list is the character's."""
    payload = {"algebra": f"{2 * alg.n}|{alg.ell}", "kind": kind, **extra,
               "character": {"n": ch.n, "m": ch.m, "terms": []}, "vdim": ch.evaluate_at_one()}
    out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if ch.is_zero():
        return out
    template = _term_template(ch.n + ch.m)
    terms = ",\n".join([template % (c, *e) for e, c in ch.sorted_terms()])
    return out.replace('"terms": []', f'"terms": [\n{terms}\n    ]', 1)


@lru_cache(maxsize=16)
def _term_template(rank):
    """One term of a character's "terms" list as json.dumps(indent=2) writes
    it at its depth, with %d for the coefficient and each exponent."""
    exps = ",\n".join(["          %d"] * rank)
    return f'      {{\n        "coef": "%d",\n        "exp": [\n{exps}\n        ]\n      }}'


def _char_latex(alg, ch: LaurentPoly, limit=40):
    if ch.is_zero():
        return "0"
    if len(ch) > limit:
        return f"\\text{{{len(ch)} monomials, vdim {ch.evaluate_at_one()}}}"
    bits = []
    for e, c in reversed(ch.sorted_terms()):
        mono = "1" if not any(e) else f"e^{{{format_exponent(e, alg.n, LATEX_SYMBOLS, units=False)}}}"
        bits.append(f"{c:+d}{mono}")
    return "".join(bits)


def _decomposition_text(alg, dec):
    bits = [f"{c:+d}[L({w.format()})]" for w, c in dec.sorted_factors()]
    line = " ".join(bits) if bits else "0"
    if not dec.is_clean():
        line += f"   + remainder ({len(dec.remainder)} monomials)"
    return line


def _decomposition_latex(alg, dec):
    bits = []
    for w, c in dec.sorted_factors():
        label = f"[L({format_exponent(w.doubled, alg.n, LATEX_SYMBOLS, units=False)})]"
        if c == 1:
            bits.append(f"+{label}")
        elif c == -1:
            bits.append(f"-{label}")
        else:
            bits.append(f"{c:+d}{label}")
    s = "".join(bits) or "0"
    return s[1:] if s.startswith("+") else s


def _emit(args, payload, text, latex=None):
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.format == "latex":
        return (latex or text) + "\n"
    return text + "\n"


def _emit_character(args, alg, ch: LaurentPoly, head, kind, **extra):
    """`_emit` for a character command, which builds only the format asked
    for: the JSON document (`_char_json`), the text and the LaTeX each sort
    the terms."""
    if args.format == "json":
        return _char_json(alg, kind, ch, **extra)
    if args.format == "latex":
        return _emit(args, None, None, _char_latex(alg, ch))
    return _emit(args, None, f"{head}: {_char_text(ch)}")


# -- command handlers -----------------------------------------------------------------


def cmd_kac(args):
    alg = _algebra(args)
    w = Weight.parse(alg, args.weight)
    ch = kac_character(alg, w)
    return _emit_character(args, alg, ch, f"K({w.format()})", "kac", weight=w.format())


def cmd_euler(args):
    alg = _algebra(args)
    p = _parabolic(alg, args.parabolic)
    mod = _levi_module(p, args.levi_module)
    ch = euler_character(p, mod)
    return _emit_character(args, alg, ch, f"E[{p.describe()}]({mod.tag})", "euler",
                           parabolic=p.describe(), levi_module=mod.tag)


def cmd_jt(args):
    from .jacobitrudi import jt_character

    alg = _algebra(args)
    lam = _partition(args.partition)
    ch = jt_character(lam, alg)
    return _emit_character(args, alg, ch, f"D{list(lam)}", "jacobi_trudi", partition=list(lam))


def cmd_irr(args):
    from .blocksdecomp import irr_char

    alg = _algebra(args)
    w = Weight.parse(alg, args.weight)
    ch = irr_char(alg, w)
    return _emit_character(args, alg, ch, f"L({w.format()})", "irreducible", weight=w.format())


def cmd_dim(args):
    alg = _algebra(args)
    sources = [s for s in (args.irr, args.kac, args.jt) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --irr / --kac / --jt")
    if args.irr is not None:
        from .blocksdecomp import irr_char

        value = irr_char(alg, Weight.parse(alg, args.irr)).evaluate_at_one()
        what = f"dim L({args.irr})"
    elif args.kac is not None:
        w = Weight.parse(alg, args.kac)
        if args.closed_form:
            reading = "shifted" if args.vdim_denominator == "paper" else "classical"
            value = vdim_formula(alg, w, reading)
            value = int(value) if value.denominator == 1 else value
        else:
            value = kac_character(alg, w).evaluate_at_one()
        what = f"vdim K({args.kac})"
    else:
        from .jacobitrudi import jt_character

        value = jt_character(_partition(args.jt), alg).evaluate_at_one()
        what = f"vdim D({args.jt})"
    payload = {"algebra": args.algebra, "what": what, "value": str(value)}
    return _emit(args, payload, f"{what} = {value}")


def cmd_decompose(args):
    from .blocksdecomp import decompose, irr_char
    from .jacobitrudi import jt_character, sym_power_char

    alg = _algebra(args)
    sources = [s for s in (args.kac, args.jt, args.tensor) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --kac / --jt / --tensor")
    if args.kac is not None:
        chi = kac_character(alg, Weight.parse(alg, args.kac))
        what = f"K({args.kac})"
    elif args.jt is not None:
        chi = jt_character(_partition(args.jt), alg)
        what = f"D({args.jt})"
    else:
        w = Weight.parse(alg, args.tensor)
        chi = irr_char(alg, w) * sym_power_char(alg, 1)
        what = f"L({args.tensor}) x natural"
    dec = decompose(alg, chi, args.basis)
    payload = {"algebra": args.algebra, "input": what, **dec.to_json_dict()}
    return _emit(args, payload, f"{what} = {_decomposition_text(alg, dec)}", _decomposition_latex(alg, dec))


def cmd_tensor_table(args):
    from .blocksdecomp import tensor_table, tensor_with_natural

    alg = _algebra(args)
    if str(alg) != "spo(2|3)":
        raise ValueError("tensor tables are implemented for spo(2|3)")
    if args.weight:
        w = Weight.parse(alg, args.weight)
        (a,), (b,) = w.int_coeffs()
        table = {(a, b): tensor_with_natural(a, b)}
    else:
        table = tensor_table(args.amax, args.bmax)
    rows = []
    lines = []
    latexes = []
    for (a, b), dec in sorted(table.items()):
        rows.append({"weight": f"{a}d1+{b}e1", **dec.to_json_dict()})
        lines.append(f"L({a}|{b}) x L(1|0) = {_decomposition_text(alg, dec)}")
        latexes.append(f"[L({a}|{b}) \\otimes L(1|0)] = {_decomposition_latex(alg, dec)}")
    payload = {"algebra": args.algebra, "kind": "tensor_table", "rows": rows}
    return _emit(args, payload, "\n".join(lines), "\\\\\n".join(latexes))


def cmd_block(args):
    from .blocksdecomp import BlockQuery, same_central_character

    alg = _algebra(args)
    lam = Weight.parse(alg, args.weight)
    mu = Weight.parse(alg, args.other)
    res = same_central_character(alg, BlockQuery(lam, mu, args.depth))
    payload = {
        "algebra": args.algebra,
        "kind": "block",
        "weights": [lam.format(), mu.format()],
        "linked": res.linked,
        "inconclusive_at_depth": res.inconclusive_at_depth,
    }
    text = f"chi({lam.format()}) == chi({mu.format()}): {res.linked}"
    if res.inconclusive_at_depth is not None:
        text += f"   (inconclusive at depth {res.inconclusive_at_depth})"
    return _emit(args, payload, text)


def cmd_laplacian(args):
    from .superspace import format_monomial, irreducibility_report, kernel_dim_and_singular_vectors

    alg = _algebra(args)
    k = args.degree
    if args.report:
        rep = irreducibility_report(alg, k, args.bound)
        payload = {
            "algebra": args.algebra,
            "kind": "laplacian_report",
            "degree": k,
            "kernel_dim": rep.kernel_dim,
            "singular": [{"weight": w.format(), "count": c} for w, c in rep.singular_weights],
            "classification": rep.classification,
            "notes": rep.notes,
        }
        lines = [
            f"ker(Delta) on degree {k} of {alg}: dim {rep.kernel_dim}",
            f"singular vectors: " + ", ".join(f"{w.format()} (x{c})" for w, c in rep.singular_weights),
            f"classification: {rep.classification}",
        ]
        lines += [f"note: {s}" for s in rep.notes]
        return _emit(args, payload, "\n".join(lines))
    kdim, svs = kernel_dim_and_singular_vectors(alg, k, args.bound)
    lines = [f"ker(Delta) on degree {k} of {alg}: dim {kdim}"]
    sv_payload = []
    for w, vs in svs.items():
        for v in vs:
            terms = " + ".join(f"{c}*{format_monomial(alg, t)}" for t, c in sorted(v.terms.items()))
            lines.append(f"singular vector at {w.format()}: {terms}")
            sv_payload.append({"weight": w.format(), "vector": terms})
    payload = {
        "algebra": args.algebra,
        "kind": "laplacian",
        "degree": k,
        "kernel_dim": kdim,
        "singular_vectors": sv_payload,
    }
    return _emit(args, payload, "\n".join(lines))


def cmd_identities(args):
    from .jacobitrudi import identity_suite

    rep = identity_suite(args.n, args.truncation)
    payload = {"kind": "identities", "n": args.n, "truncation": args.truncation, "results": rep}
    text = "\n".join(f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in rep.items())
    if not all(rep.values()):
        raise MathFailure(text)
    return _emit(args, payload, text)


def cmd_conjecture(args):
    from .blocksdecomp import conjecture_check

    alg = _algebra(args)
    rep = conjecture_check(alg, bound=args.bound, pattern_min_ell=args.min_ell)
    payload = {
        "algebra": args.algebra,
        "kind": "conjecture_check",
        "bound": rep.bound,
        "euler_characters": rep.count,
        "rank": rep.rank,
        "linearly_independent": rep.independent,
        "entries": [
            {
                "partition": list(e["partition"]),
                "weight": f"{e['weight'][0]}d1+{e['weight'][1]}e1",
                "typical": e["typical"],
                "factors": [{"weight": f"{a}d1+{b}e1", "mult": c} for (a, b), c in sorted(e["factors"].items())],
                "pattern_checked": e["pattern_checked"],
                "pattern_match": e["pattern_match"],
            }
            for e in rep.entries
        ],
    }
    lines = [
        f"Euler characters for hook partitions of size <= {rep.bound}: {rep.count}",
        f"rank of the coordinate matrix: {rep.rank}  => linearly independent: {rep.independent}",
    ]
    for e in rep.entries:
        status = "-" if not e["pattern_checked"] else ("ok" if e["pattern_match"] else "MISMATCH")
        fac = " ".join(f"{c:+d}[L({a}|{b})]" for (a, b), c in sorted(e["factors"].items(), reverse=True))
        lines.append(f"  {str(list(e['partition'])):12} -> {fac}   pattern: {status}")
    if not rep.independent or not rep.all_patterns_match():
        raise MathFailure("\n".join(lines))
    return _emit(args, payload, "\n".join(lines))


def cmd_reproduce(args):
    from .acceptance import run_all

    results = run_all(only=args.criteria)
    lines = []
    payload_rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.number}: {r.title}")
        if args.verbose and r.details:
            lines.extend("    " + d for d in r.details)
        payload_rows.append({"criterion": r.number, "title": r.title, "passed": r.passed, "details": r.details})
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    payload = {"kind": "reproduce", "passed": ok, "criteria": payload_rows}
    out = _emit(args, payload, "\n".join(lines))
    if not ok:
        sys.stdout.write(out)
        raise MathFailure("golden-table reproduction failed")
    return out


def _batch_line(line):
    """(0, output) of one batch line, run as a single command would run, or
    (0, None) for a line with no words (blank, or a comment alone).  The line
    is split as a shell splits it, a `#` word starting a comment.  argparse's
    own exit is the line's: with code 0 (--help, --version) its printed text
    is the output, any other code becomes a ValueError, i.e. exit code 2 for
    that line."""
    argv = shlex.split(line, comments=True)
    if not argv:
        return 0, None
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args, key = _parsed(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return 0, out.getvalue()
        lines = err.getvalue().splitlines()
        raise ValueError(lines[-1] if lines else "invalid arguments") from None
    if args.command == "batch":
        raise ValueError("a batch line cannot run batch")
    return 0, _cached_run(args, key)


def cmd_batch(args):
    """Run each line of the file in order, as a single command would run (the
    same cache).  A failing line gets its error and exit code in its own slot
    and the batch carries on; the batch exits with the largest line code."""
    with open(args.file) as fh:
        lines = [line.strip() for line in fh]
    worst, slots = 0, []
    for line in lines:
        code, out, err = _outcome(lambda: _batch_line(line))
        if out is None:
            continue
        worst = max(worst, code)
        slots.append(f"$ {line}\n{out}" + (f"[exit {code}] {err}\n" if code else ""))
    return worst, "".join(slots)


# -- cache ---------------------------------------------------------------------------


def _cache_dir(args):
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("SPOCHAR_CACHE_DIR", ".spochar-cache")


@lru_cache(maxsize=1)
def _source_digest():
    """Digest of the package's Python source: any change to the code that
    computes an answer retires every cached answer."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cache_key(args):
    """Key of the source digest and the parsed arguments, so the order and
    spelling of the flags do not matter; where the cache lives does not
    enter."""
    params = {k: v for k, v in vars(args).items() if k not in ("cache_dir", "no_cache", "fn")}
    canon = json.dumps({"source": _source_digest(), "args": params}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _cached_run(args, key):
    """The output of args, read from the cache entry `key` or computed and
    stored there; computed alone when key is None (--no-cache).  A missing
    entry is a miss: the entry is opened once, with no existence check."""
    if key is None:
        return args.fn(args)
    cdir = _cache_dir(args)
    path = os.path.join(cdir, key + ".out")
    try:
        with open(path, "rb") as fh:
            return fh.read().decode()
    except FileNotFoundError:
        pass
    out = args.fn(args)
    os.makedirs(cdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cdir)
    with os.fdopen(fd, "wb") as fh:
        fh.write(out.encode())
    os.replace(tmp, path)  # atomic publish
    return out


# -- parser ---------------------------------------------------------------------------


def _add_common(sp, algebra=True):
    if algebra:
        sp.add_argument("--algebra", required=True, help="algebra as '2n|l', e.g. 2|3")
    sp.add_argument("--format", choices=["text", "json", "latex"], default="text")
    sp.add_argument("--cache-dir", default=None)
    sp.add_argument("--no-cache", action="store_true")


# Built on first use, once per process.  cmd_* look up the module-level names
# (kac_character, euler_character, ...) at call time, so patches of cli still
# apply; names from jacobitrudi, blocksdecomp and superspace are imported by
# each command that runs them.
@lru_cache(maxsize=1)
def _build_parser():
    """(the top-level parser, {command name: its subparser})."""
    ap = argparse.ArgumentParser(prog="spochar", description=__doc__)
    ap.add_argument("--version", action="version", version=f"spochar {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kac", help="Kac virtual character")
    _add_common(sp)
    sp.add_argument("--weight", required=True)
    sp.set_defaults(fn=cmd_kac)

    sp = sub.add_parser("euler", help="Euler character of a parabolic + Levi module")
    _add_common(sp)
    sp.add_argument("--parabolic", required=True, help="remove=<simple roots>, e.g. remove=e1 or remove=d1-d2,d2-d3")
    sp.add_argument("--levi-module", default="trivial",
                    help="trivial | natural | sym:k | ext:k | hook:parts | onedim:w | evensimple:w")
    sp.set_defaults(fn=cmd_euler)

    sp = sub.add_parser("jt", help="Jacobi-Trudi determinant character")
    _add_common(sp)
    sp.add_argument("--partition", required=True, help="comma list, e.g. 2,1")
    sp.set_defaults(fn=cmd_jt)

    sp = sub.add_parser("irr", help="irreducible character (typical, or any spo(2|3) weight)")
    _add_common(sp)
    sp.add_argument("--weight", required=True)
    sp.set_defaults(fn=cmd_irr)

    sp = sub.add_parser("dim", help="dimension / virtual dimension")
    _add_common(sp)
    sp.add_argument("--irr")
    sp.add_argument("--kac")
    sp.add_argument("--jt")
    sp.add_argument("--closed-form", action="store_true", help="use the closed-form product for --kac")
    sp.add_argument("--vdim-denominator", choices=["classical", "paper"], default="classical")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("decompose", help="decompose a virtual character into a basis")
    _add_common(sp)
    sp.add_argument("--kac")
    sp.add_argument("--jt")
    sp.add_argument("--tensor", help="weight w: decompose L(w) x natural")
    sp.add_argument("--basis", choices=["irr", "kac"], default="irr")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("tensor-table", help="L(a|b) x natural tables for spo(2|3)")
    _add_common(sp)
    sp.add_argument("--amax", type=int, default=5)
    sp.add_argument("--bmax", type=int, default=5)
    sp.add_argument("--weight")
    sp.set_defaults(fn=cmd_tensor_table)

    sp = sub.add_parser("block", help="central character linkage test")
    _add_common(sp)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--other", required=True)
    sp.add_argument("--depth", type=int, default=-1)
    sp.set_defaults(fn=cmd_block)

    sp = sub.add_parser("laplacian", help="Laplacian kernel on a degree component")
    _add_common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--report", action="store_true", help="full irreducibility classification")
    sp.add_argument("--bound", type=int, default=20000)
    sp.set_defaults(fn=cmd_laplacian)

    sp = sub.add_parser("identities", help="formal determinant/series identity suite")
    _add_common(sp, algebra=False)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--truncation", type=int, default=10)
    sp.set_defaults(fn=cmd_identities)

    sp = sub.add_parser("conjecture-check", help="Euler-character basis desk check for spo(2|3)")
    _add_common(sp)
    sp.add_argument("--bound", type=int, default=5)
    sp.add_argument("--min-ell", type=int, default=2)
    sp.set_defaults(fn=cmd_conjecture)

    sp = sub.add_parser("reproduce-paper", help="run the full golden-table verification suite")
    _add_common(sp, algebra=False)
    sp.add_argument("--criteria", default=None, help="comma list of criterion numbers")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_reproduce)

    sp = sub.add_parser("batch", help="run commands from a file (one per line)")
    sp.add_argument("--file", required=True)
    sp.set_defaults(fn=cmd_batch, format="text")

    return ap, sub.choices


def _parse_args(argv):
    """The Namespace that the top-level parser's parse_args(argv) returns,
    argv=None reading sys.argv.  A line whose first word names a command is
    parsed by that command's subparser alone, into a Namespace already
    holding the command, and its leftover arguments are refused by the
    top-level parser, as argparse does after the subparser has run.  -h,
    --version, no command or an unknown command go through the top-level
    parser."""
    top, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return top.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


@lru_cache(maxsize=256)
def _line(argv, digest):
    """(the parsed arguments of the argument tuple argv as a plain dict, the
    cache key of the line or None for --no-cache and batch), for the source
    digest `digest`.  The line table: each distinct line is parsed and keyed
    once per process.  Parse errors, -h and --version raise, and are not
    kept.  `_parse_args` and `_cache_key` are looked up when a line is
    first seen; the digest in the key keeps an entry from outliving the
    `_source_digest` it was keyed under."""
    args = _parse_args(argv)
    if args.command == "batch" or args.no_cache:
        return vars(args), None
    return vars(args), _cache_key(args)


def _parsed(argv):
    """(a fresh Namespace, the cache key) of the argument list argv, through
    the line table (`_line`), so a caller may change its Namespace freely."""
    params, key = _line(tuple(argv), _source_digest())
    return argparse.Namespace(**params), key


def _outcome(run):
    """(exit code, output, error message) of run(), which returns (exit code,
    output); an exception becomes its documented exit code."""
    try:
        return (*run(), "")
    except (ArithmeticError, MathFailure) as exc:
        return 3, "", f"mathematical assertion failed: {exc}"
    except (ValueError, KeyError, OSError, DimensionGuard) as exc:
        return 2, "", f"error: {exc}"


def main(argv=None):
    args, key = _parsed(sys.argv[1:] if argv is None else argv)  # exits 2 on parse errors
    if args.command == "batch":
        code, out, err = _outcome(lambda: cmd_batch(args))
    else:
        code, out, err = _outcome(lambda: (0, _cached_run(args, key)))
    sys.stdout.write(out)
    if err:
        print(err, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
