"""Spans around the program's layer boundaries, recorded from outside.

``install`` replaces each boundary function below under every name any
``superchar`` module holds it by (``superchar.table.enumerate_dual_orbits``,
``superchar.cli.build_table``, ``superchar.tower.sch_closed``, ...) with a
wrapper that records a span: name, start, end and parent span.  Spans stay
in memory until the pass ends.  A span's self time is its duration minus
the time its child spans cover.  Private helpers (the tower size scans,
``_pairing_hist``, the BFS loops) and small public helpers are not wrapped;
their time lands in the nearest wrapped caller.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

NOTE = (
    "private helpers (BFS loops, tower size scans, _pairing_hist) and small "
    "public helpers are not wrapped; their time lands in the nearest wrapped caller"
)


def _states(result) -> int:
    """BFS states behind a returned orbit set or list of orbits."""
    if isinstance(result, list):
        return sum(o.size for o in result)
    return len(result)


# (module, attribute, count taken from the result)
BOUNDARIES = (
    ("gf", "field_construct", None),
    ("partitions", "enumerate_labels", ("partitions.labels", len)),
    ("nilpotent", "parse_matrix", None),
    ("orbits", "enumerate_superclasses", ("orbits.states", _states)),
    ("orbits", "superclass_orbit", ("orbits.states", _states)),
    ("orbits", "canonical_form", None),
    ("dual", "enumerate_dual_orbits", ("dual.states", _states)),
    ("dual", "dual_orbit", ("dual.states", _states)),
    ("dual", "dual_canonical", None),
    ("table", "build_table", None),
    ("table", "sch_closed", None),
    ("table", "sch_bruteforce", None),
    ("table", "verify_theory", None),
    ("table", "inner_product", None),
    ("table", "plancherel", None),
    ("table", "table_to_json", None),
    ("table", "table_to_csv", None),
    ("tower", "fsc_diagnostic", None),
    ("tower", "plancherel_profile", None),
    ("tower", "convergence_report", None),
    ("cli", "main", None),
)

# per-layer time metric: the spans whose self times it sums
TIME_METRICS = {
    "table.verify_self_s": ("table.verify_theory",),
    "table.inner_product_s": ("table.inner_product",),
    "orbits.enumerate_s": ("orbits.enumerate_superclasses",),
    "dual.enumerate_s": ("dual.enumerate_dual_orbits",),
    "table.closed_s": ("table.sch_closed",),
    "partitions.labels_s": ("partitions.enumerate_labels",),
    "table.crosscheck_s": ("table.sch_bruteforce",),
    "table.plancherel_s": ("table.plancherel",),
    "table.serialize_s": ("table.table_to_json", "table.table_to_csv"),
    "dual.canonical_s": ("dual.dual_canonical",),
    "dual.orbit_s": ("dual.dual_orbit",),
    "orbits.canonical_form_s": ("orbits.canonical_form",),
    "orbits.orbit_s": ("orbits.superclass_orbit",),
    "gf.construct_s": ("gf.field_construct", "gf.FiniteField"),
    "tower.fsc_s": ("tower.fsc_diagnostic",),
    "tower.profile_s": ("tower.plancherel_profile",),
    "tower.convergence_s": ("tower.convergence_report",),
    "cli.self_s": ("cli.main",),
    "nilpotent.parse_s": ("nilpotent.parse_matrix",),
}

# per-layer exact count: the spans whose calls it counts
CALL_METRICS = {
    "table.inner_products": ("table.inner_product",),
    "table.closed_cells": ("table.sch_closed",),
    "table.crosscheck_cells": ("table.sch_bruteforce",),
    "orbits.canonical_form_calls": ("orbits.canonical_form",),
    "dual.canonical_calls": ("dual.dual_canonical",),
    "gf.fields_built": ("gf.FiniteField",),
    "tower.reports": (
        "tower.fsc_diagnostic", "tower.plancherel_profile", "tower.convergence_report",
    ),
}

# counts added by the wrappers or by the worker from the operations' outputs
OTHER_COUNTS = (
    "table.constancy_evals",
    "cyclotomic.values_built",
    "orbits.states",
    "dual.states",
    "partitions.labels",
    "gf.table_cells",
    "cli.bytes_out",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, count=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack,
        )
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import superchar
        from superchar import cyclotomic, gf

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "superchar"]
        for mod_name, attr, count in BOUNDARIES:
            original = getattr(getattr(superchar, mod_name), attr)
            wrapper = self.span(f"{mod_name}.{attr}", original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        counts = self.counts
        field_init = self.span("gf.FiniteField", gf.FiniteField.__init__)

        def init_field(field, *args, **kwargs):
            field_init(field, *args, **kwargs)
            if getattr(field, "_mul", None) is not None:  # O(q^2) tables built
                counts["gf.table_cells"] += field.order**2

        gf.FiniteField.__init__ = init_field
        cyclo_init = cyclotomic.Cyclotomic.__init__

        def init_cyclotomic(value, *args, **kwargs):
            counts["cyclotomic.values_built"] += 1
            cyclo_init(value, *args, **kwargs)

        cyclotomic.Cyclotomic.__init__ = init_cyclotomic

    # -- summaries ----------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> tuple[dict, dict, dict]:
        """Per span name: total self time, total inclusive time and call count
        of spans lo..hi, which must hold every child of a span they hold."""
        hi = len(self.names) if hi is None else hi
        duration = {i: self.ends[i] - self.starts[i] for i in range(lo, hi)}
        child = dict.fromkeys(duration, 0.0)
        for idx in duration:
            parent = self.parents[idx]
            if parent >= lo:
                child[parent] += duration[idx]
        self_t: Counter = Counter()
        incl: Counter = Counter()
        calls: Counter = Counter()
        for idx in duration:
            name = self.names[idx]
            self_t[name] += duration[idx] - child[idx]
            calls[name] += 1
            parent = self.parents[idx]
            # inclusive time counts outermost spans of a name only
            while parent >= lo and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < lo:
                incl[name] += duration[idx]
        return dict(self_t), dict(incl), dict(calls)

    def layer_metrics(self) -> dict:
        self_t, _, calls = self.self_times()
        out = {m: sum(self_t.get(s, 0.0) for s in spans) for m, spans in TIME_METRICS.items()}
        for m, spans in CALL_METRICS.items():
            out[m] = sum(calls.get(s, 0) for s in spans)
        for m in OTHER_COUNTS:
            out[m] = self.counts.get(m, 0)
        return out

    def spans(self) -> list:
        return [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]
