"""Outside-in layer tracing: wrap spochar's public functions, record spans.

`Tracer.install` replaces each target function with a timing wrapper in every
loaded spochar module that binds it, so names re-bound by `from ... import`
(``charformulas.exact_div``, ``linalg.exact_div``, ``superspace.nullspace``,
...) are wrapped too.  `Tracer.uninstall` puts every original back.  A
target the program no longer has is skipped, and its metrics read 0.

Spans are (name, start, end, parent index) rows kept in memory; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter


def _size(obj):
    try:
        return len(obj)
    except TypeError:
        return 0


def _mul_pairs(args, result):
    a, b = args[0], args[1]
    return {"term_pairs": _size(a) * _size(b)} if type(a) is type(b) else {}


def _nullspace_cells(args, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


# (span name, module, attribute or "Class.method", counter extractor).
# Several targets may share one span name; their numbers add up.  Counters
# add up over calls, except "max_*" counters, which keep the largest value.
TARGETS = (
    ("laurent.exact_div", "spochar.laurent", "exact_div",
     lambda a, r: {"dividend_terms": _size(a[0]), "quotient_terms": _size(r)}),
    ("laurent.mul", "spochar.laurent", "LaurentPoly.__mul__", _mul_pairs),
    ("laurent.rational_sum", "spochar.laurent", "rational_sum", None),
    ("rootdata.weyl_group", "spochar.rootdata", "weyl_group", lambda a, r: {"max_order": _size(r)}),
    ("rootdata.antisymmetrize", "spochar.rootdata", "antisymmetrize", None),
    ("charformulas.kac_character", "spochar.charformulas", "kac_character", lambda a, r: {"result_terms": _size(r)}),
    ("charformulas.euler_character", "spochar.charformulas", "euler_character",
     lambda a, r: {"result_terms": _size(r)}),
    ("charformulas.denominators", "spochar.charformulas", "denominators", None),
    ("jacobitrudi.power_table", "spochar.jacobitrudi", "power_table", None),
    ("jacobitrudi.power_table", "spochar.jacobitrudi", "PowerTable.p", None),
    ("jacobitrudi.power_table", "spochar.jacobitrudi", "PowerTable.e", None),
    ("jacobitrudi.jt_character", "spochar.jacobitrudi", "jt_character", None),
    ("jacobitrudi.jt_character_e", "spochar.jacobitrudi", "jt_character_e", None),
    ("linalg.det_bareiss_laurent", "spochar.linalg", "det_bareiss_laurent", None),
    ("linalg.nullspace", "spochar.linalg", "nullspace", _nullspace_cells),
    ("superspace.degree_basis", "spochar.superspace", "degree_basis", lambda a, r: {"max_dim": _size(r)}),
    ("superspace.kernel_basis", "spochar.superspace", "kernel_basis", None),
    ("superspace.singular_vectors", "spochar.superspace", "singular_vectors", None),
    ("superspace.cyclic_span_dim", "spochar.superspace", "cyclic_span_dim", None),
    ("superspace.irreducibility_report", "spochar.superspace", "irreducibility_report", None),
)


class Stat:
    """Per-span-name totals since the last `Tracer.reset`."""

    __slots__ = ("calls", "self_s", "failed", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stats = {}
        self._stack = []  # [span index, child seconds]
        self._patches = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self, name, failed=False, counts=None):
        end = perf_counter()
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.self_s += duration - child_s
        st.failed += failed
        if counts:
            for key, value in counts.items():
                old = st.counts.get(key, 0)
                st.counts[key] = max(old, value) if key.startswith("max_") else old + value

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (one item)."""
        self._enter(name)
        try:
            yield
        except BaseException:
            self._exit(name, failed=True)
            raise
        self._exit(name)

    def reset(self):
        self.stats = {}

    # -- patching ----------------------------------------------------------------

    def _wrap(self, name, fn, extract):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, failed=True)
                raise
            tracer._exit(name, counts=extract(args, result) if extract else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets=TARGETS):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "spochar" and m is not None]
        for name, module_name, attr, extract in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(name, original, extract)
                # __rmul__ = __mul__ style aliases share the wrapper
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._patches.append((cls, key, original))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, extract)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output --------------------------------------------------------------------

    def snapshot(self):
        """{span name: {"calls", "self_s", "failed", counters...}}."""
        return {
            name: {"calls": st.calls, "self_s": st.self_s, "failed": st.failed, **st.counts}
            for name, st in self.stats.items()
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
