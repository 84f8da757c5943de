"""Span tracing of the chebcurve layers, installed from the benchmark.

install() wraps every function in TRACED both in its defining module and in
each chebcurve module that bound it by name (arrangement, hilbert and cli
hold their own `buchberger`, for example), and replaces the hot scalar
operations in COUNTED by bare call counters.  Spans are held in memory with
their parent's index; summary() turns them into per-function call counts
and self times, where self time is a span's duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Mapping

TRACED = (
    ("cli", "main"),
    ("polyring", "parse"),
    ("chebyshev", "build"),
    ("chebyshev", "verify_nodes"),
    ("numberfield", "real_cyclotomic_field"),
    ("interp", "evaluation_thresholds"),
    ("interp", "grid_matrix"),
    ("interp", "node_evaluation_surjective"),
    ("syzygy", "verify_resolution"),
    ("syzygy", "jacobian_degree_matrix"),
    ("syzygy", "syzygy_dim"),
    ("syzygy", "nontrivial_syzygy"),
    ("syzygy", "relation_module_kernel_dim"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("hilbert", "milnor_profile"),
    ("hilbert", "hilbert_numerator"),
    ("arrangement", "rationality_test"),
    ("arrangement", "is_reduced"),
    ("arrangement", "count_distinct_singular_points"),
    ("upoly", "gcd_poly"),
    ("linalg", "rank"),
    ("linalg", "solve_unique"),
)

# (module, class, methods that share one counter, counter name)
COUNTED = (
    ("numberfield", "AlgNum", ("__mul__", "__rmul__"), "mul"),
    ("numberfield", "AlgNum", ("inverse",), "inverse"),
    ("polyring", "MPoly", ("__mul__",), "mul"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, note]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so that each call records a span.

        before(args) may return replacement args and a note; after(result)
        may return a note.  Both run outside the timed interval.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = None
            if before is not None:
                args, note = before(args)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, note]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                record[4] = after(result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def summary(self) -> dict[str, float]:
        """Flat `<module>.<function>.<stat>` statistics of this process."""
        spans = self.spans
        out: dict[str, float] = {}

        def bump(key, value):
            out[key] = out.get(key, 0) + value

        for name, parent, start, end, note in spans:
            duration = end - start
            bump(f"{name}.calls", 1)
            bump(f"{name}.self_s", duration)
            if parent >= 0:
                bump(f"{spans[parent][0]}.self_s", -duration)
            if name == "linalg.rank":
                rows, nnz, field = note
                bump("linalg.rank.field_calls", int(field))
                bump("linalg.rank.nnz_total", nnz)
                out["linalg.rank.rows_max"] = max(out.get("linalg.rank.rows_max", 0), rows)
            elif name == "groebner.buchberger":
                key = "groebner.buchberger.basis_len_max"
                out[key] = max(out.get(key, 0), note)
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != (
                    "arrangement.count_distinct_singular_points"
                ):
                    ancestor = spans[ancestor][1]
                if ancestor >= 0:
                    bump("arrangement.count_distinct_singular_points.buchberger_calls", 1)
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        return out


def _rank_shape(args):
    """Materialize the matrix (rank accepts any iterable of rows) and note its
    row count, nonzero count and whether it has field (AlgNum) entries."""
    from chebcurve.numberfield import AlgNum

    rows = list(args[0])
    nnz = 0
    field = False
    for row in rows:
        for v in row.values() if isinstance(row, Mapping) else row:
            if v:
                nnz += 1
                field = field or isinstance(v, AlgNum)
    return (rows, *args[1:]), (len(rows), nnz, field)


def _basis_len(result):
    return len(result.elements)


HOOKS = {
    "linalg.rank": (_rank_shape, None),
    "groebner.buchberger": (None, _basis_len),
}


def install() -> Tracer:
    """Import every traced module, wrap the traced functions and return the tracer."""
    import importlib

    tracer = Tracer()
    loaded = {mod: importlib.import_module(f"chebcurve.{mod}") for mod, _ in TRACED}
    modules = [m for n, m in sys.modules.items() if n == "chebcurve" or n.startswith("chebcurve.")]
    for mod, fn_name in TRACED:
        original = getattr(loaded[mod], fn_name)
        name = f"{mod}.{fn_name}"
        wrapped = tracer.span(name, original, *HOOKS.get(name, (None, None)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    for mod, cls_name, methods, stat in COUNTED:
        cls = getattr(loaded[mod], cls_name)
        original = cls.__dict__[methods[0]]
        wrapped = tracer.counter(f"{mod}.{cls_name}.{stat}", original)
        for method in methods:
            if cls.__dict__.get(method) is original:
                setattr(cls, method, wrapped)
    return tracer
