"""Spans around lpkit's public functions, installed from outside the package.

``traced(tracer)`` replaces each function named in ``SPANS`` by a wrapper
that opens a span, in every lpkit module (and module-level dict) that holds
a reference to it, so calls made through ``from .x import f`` are caught as
well.  ``Matrix.__matmul__`` and ``Poly.__call__`` get counting wrappers;
each count goes to the innermost open span.  Everything is restored when
the ``with`` block ends.  lpkit's own files are never modified.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

# module -> public functions that get a span named "<module>.<function>"
SPANS = {
    "instances": ("parse_instance", "serialize_instance", "gen_random"),
    "exactmath": ("char_poly_oracle", "poly_roots_in_field", "solve_affine", "rank"),
    "system": ("compute_spectrum", "dual_a", "realize_matrices"),
    "cosine": ("u_polys", "cosine_sequence", "constant_row_sum", "rebase_to_row_sum"),
    "delta": ("build_delta", "path_order"),
    "leaf": ("leaf_by_subspace", "leaf_by_recurrence", "leaf_by_ratio", "appendix_a",
             "appendix_b"),
    "qpoly": ("is_q_polynomial", "solve_witness", "verify_aw2"),
    "cli": ("main",),
}

# (class, method, counter name); counted, not timed
COUNTERS = (("Matrix", "__matmul__", "matmul"), ("Poly", "__call__", "poly_eval"))


class Tracer:
    """Nested spans with per-name totals; self time excludes time in child spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []            # open spans: [name, start, child time]
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()       # (owning span or "", counter) -> n

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        if self.stack:
            self.stack[-1][2] += duration
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def count(self, counter: str, n: int = 1) -> None:
        owner = self.stack[-1][0] if self.stack else ""
        self.counts[(owner, counter)] += n

    def counter_total(self, counter: str) -> int:
        return sum(n for (_, c), n in self.counts.items() if c == counter)


def _span_name(module: str, func: str, args, kwargs) -> str:
    if func == "is_q_polynomial":  # split by route: qpoly.direct / qpoly.theorem
        return "qpoly." + kwargs.get("route", args[2] if len(args) > 2 else "direct")
    return f"{module}.{func}"


def _record_yield(tracer: Tracer, func: str, result) -> None:
    if func == "poly_roots_in_field":
        tracer.count("roots", len(result))
    elif func == "leaf_by_ratio" and result.confirmed:
        tracer.count("confirmed")
    elif func == "rebase_to_row_sum":
        tracer.count("ok")


def _span_wrapper(tracer: Tracer, module: str, func: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(_span_name(module, func, args, kwargs))
        try:
            result = fn(*args, **kwargs)
            _record_yield(tracer, func, result)
            return result
        finally:
            tracer.exit()
    return wrapper


def _count_wrapper(tracer: Tracer, counter: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the span and counter wrappers for the duration of the block."""
    import lpkit  # noqa: F401  (loads every lpkit module)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "lpkit" or name.startswith("lpkit.")}
    wrappers = {}
    for module, funcs in SPANS.items():
        owner = modules[f"lpkit.{module}"]
        for func in funcs:
            fn = getattr(owner, func)
            wrappers[id(fn)] = _span_wrapper(tracer, module, func, fn)
    undo = []  # (container, key, original), replayed in reverse on exit
    try:
        for mod in modules.values():
            space = vars(mod)
            for key, value in list(space.items()):
                if key.startswith("__"):  # skips __builtins__, a dict of its own
                    continue
                if id(value) in wrappers:
                    undo.append((space, key, value))
                    space[key] = wrappers[id(value)]
                elif isinstance(value, dict):  # e.g. the CLI's method table
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            undo.append((value, k, v))
                            value[k] = wrappers[id(v)]
        exactmath = modules["lpkit.exactmath"]
        for cls_name, method, counter in COUNTERS:
            cls = getattr(exactmath, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, _count_wrapper(tracer, counter, original))
        yield tracer
    finally:
        for container, key, original in reversed(undo):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original


# count attributed to one span, reported as "<span>.<counter>"
_ATTRIBUTED = (("exactmath.poly_roots_in_field", "poly_eval"),
               ("system.compute_spectrum", "matmul"),
               ("system.dual_a", "matmul"),
               ("delta.build_delta", "matmul"))


def layer_metrics(tracer: Tracer, traced_ops: int, busy_traced: float,
                  busy_plain: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}, span figures averaged per traced call.

    ``qpoly.is_q_polynomial`` sums the two route spans ``qpoly.direct`` and
    ``qpoly.theorem``.  ``trace.self_share`` is the sum of all self times over
    the traced wall time; ``trace.overhead_share`` compares traced with
    untraced wall time on twin inputs.
    """
    per_op = 1.0 / max(traced_ops, 1)
    stats = tracer.stats
    zero = [0, 0.0, 0.0]
    out = {}
    names = [f"{m}.{f}" for m, funcs in SPANS.items() for f in funcs]
    names += ["qpoly.direct", "qpoly.theorem"]
    for name in names:
        if name == "qpoly.is_q_polynomial":
            calls, total, self_ = (a + b for a, b in zip(stats.get("qpoly.direct", zero),
                                                         stats.get("qpoly.theorem", zero)))
        else:
            calls, total, self_ = stats.get(name, zero)
        out[f"{name}.calls"] = (calls * per_op, "calls/op")
        out[f"{name}.total_s"] = (total * per_op, "s/op")
        out[f"{name}.self_s"] = (self_ * per_op, "s/op")
    for _, _, counter in COUNTERS:
        out[f"exactmath.{counter}.calls"] = (tracer.counter_total(counter) * per_op, "calls/op")
    for owner, counter in _ATTRIBUTED:
        out[f"{owner}.{counter}"] = (tracer.counts[(owner, counter)] * per_op, "calls/op")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    roots = "exactmath.poly_roots_in_field"
    out[f"{roots}.yield"] = (ratio(tracer.counts[(roots, "roots")],
                                   tracer.counts[(roots, "poly_eval")]), "roots/eval")
    for name, counter in (("leaf.leaf_by_ratio", "confirmed"), ("cosine.rebase_to_row_sum", "ok")):
        out[f"{name}.yield"] = (ratio(tracer.counts[(name, counter)],
                                      stats.get(name, zero)[0]), "share")
    out["trace.overhead_share"] = (ratio(busy_traced, busy_plain) - 1.0, "share")
    out["trace.self_share"] = (ratio(sum(s[2] for s in stats.values()), busy_traced), "share")
    out["trace.op_wall_s"] = (busy_traced * per_op, "s/op")
    return out
