"""Spans and counters around levitanaka's public functions, installed from outside.

Only traced benchmark children import this module.  ``install`` replaces
each traced function by a wrapper that records a span (name, start, end,
parent) and rebinds every name under which a levitanaka module holds the
original, so callers that imported it by name are caught too.  Spans stay
in memory; ``Tracer.dump`` writes them once, when the child exits.
``layer_metrics`` turns one child's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name); a dotted path names a method
SPANNED = [
    ("quadric", "HermitianFormSystem.joint_kernel", "quadric.regularity"),
    ("quadric", "HermitianFormSystem.real_dependency", "quadric.regularity"),
    ("quadric", "HermitianFormSystem.build_m_minus", "quadric.build_m"),
    ("prolongation", "prolong", "prolongation.prolong"),
    ("prolongation", "transitivity_check", "prolongation.transitivity"),
    ("elimination", "row_echelon", "elimination.row_echelon"),
    ("elimination", "kernel_basis", "elimination.backsub"),
    ("elimination", "solve", "elimination.backsub"),
    ("graded", "GradedLieAlgebra.validate", "graded.validate"),
    ("graded", "GradedLieAlgebra.characteristic_element", "graded.characteristic_element"),
    ("graded", "GradedLieAlgebra.radical", "graded.radical"),
    ("graded", "GradedLieAlgebra.nilradical", "graded.nilradical"),
    ("graded", "GradedLieAlgebra.center", "graded.center"),
    ("graded", "GradedLieAlgebra.levi_decomposition", "graded.levi"),
    ("graded", "GradedLieAlgebra.simple_ideals", "graded.simple_ideals"),
    ("matrices", "ExactMatrix.rank", "matrices"),
    ("matrices", "ExactMatrix.kernel_vectors", "matrices"),
    ("matrices", "ExactMatrix.solve", "matrices"),
    ("matrices", "ExactMatrix.det", "matrices"),
    ("classify", "w0_reverses_E", "classify.w0_oracle"),
    ("classify", "in_kind1_list", "classify.list_check"),
    ("classify", "in_kind2_list", "classify.list_check"),
    ("classify", "theorem_membership", "classify.list_check"),
    ("rootdata", "root_system", "rootdata.root_system"),
]

# entry points: the first call marks the end of interpreter start and imports
ENTRIES = [("cli", "main"), ("corpus", "run_checks")]

TIME_METRICS = [
    "quadric.regularity_s", "quadric.build_m_s",
    "prolongation.prolong_s", "prolongation.prolong_self_s",
    "prolongation.transitivity_s",
    "elimination.busy_s", "elimination.backsub_s",
    "graded.radical_s", "graded.levi_s", "graded.characteristic_element_s",
    "graded.validate_s", "graded.self_s",
    "graded.nilradical_s", "graded.center_s", "graded.simple_ideals_s",
    "matrices.s",
    "classify.enumerate_s", "classify.w0_oracle_s", "classify.list_check_s",
    "rootdata.root_system_s",
    "cli.import_s",
]
COUNT_METRICS = [
    "prolongation.dim",
    "elimination.calls", "elimination.rows_in", "elimination.pivots",
    "elimination.combines", "elimination.max_bits",
    "graded.radical_calls", "graded.bracket_calls",
    "matrices.calls",
    "classify.descriptors",
    "rootdata.root_system_builds",
]
# counts that must repeat exactly for one input; cli.import_s etc. are times
EXACT_COUNTS = [
    "elimination.rows_in", "elimination.pivots", "elimination.combines",
    "elimination.max_bits", "graded.radical_calls", "graded.bracket_calls",
    "prolongation.dim", "classify.descriptors",
]


def _max_bits(rows):
    return max((abs(v).bit_length() for _, vals in rows for v in vals), default=0)


class Tracer:
    def __init__(self, spawn_time: float):
        self.spawn_time = spawn_time
        self.entered = None
        self.spans = []  # [name, start, end, parent index or -1, info dict]
        self.stack = []
        self.counts = {"bracket_calls": 0, "combines": 0, "descriptors": 0,
                       "prolong_dim": 0}

    def span(self, name, fn, args=(), kwargs=None, info=None):
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else -1, {} if info is None else info]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return wrapper

    def echelon(self, fn):
        """Span around row_echelon that also counts rows, pivots, combines and bits."""
        @functools.wraps(fn)
        def wrapper(rows, *args, **kwargs):
            info = {"rows": 0, "bits": 0}

            def counted():
                for cols, vals in rows:
                    info["rows"] += 1
                    info["bits"] = max(info["bits"], _max_bits([(cols, vals)]))
                    yield cols, vals

            before = self.counts["combines"]
            out = self.span("elimination.row_echelon", fn, (counted(),) + args,
                            kwargs, info)
            info["pivots"] = len(out[0])
            info["bits"] = max(info["bits"], _max_bits(out[1]))
            info["combines"] = self.counts["combines"] - before
            return out
        return wrapper

    def counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def entry(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.entered is None:
                self.entered = time.time()
            return fn(*args, **kwargs)
        return wrapper

    def enumerate_wrapper(self, fn):
        """Time each step of the descriptor generator as its own span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.span("classify.enumerate", next, (it,))
                except StopIteration:
                    return
                self.counts["descriptors"] += 1
                yield item
        return wrapper

    def prolong_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span("prolongation.prolong", fn, args, kwargs)
            self.counts["prolong_dim"] += result.algebra.dim
            return result
        return wrapper

    def dump(self, path, root_system_builds):
        with open(path, "w") as fh:
            json.dump({"spawn": self.spawn_time, "entered": self.entered,
                       "spans": self.spans, "counts": self.counts,
                       "root_system_builds": root_system_builds}, fh)


def _rebind(original, replacement):
    """Point every levitanaka module-level name bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "levitanaka" or name.startswith("levitanaka."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced functions; returns the undecorated root_system cache."""
    mods = {name: importlib.import_module(f"levitanaka.{name}")
            for name in ("cli", "corpus", "quadric", "prolongation", "elimination",
                         "graded", "matrices", "classify", "rootdata")}
    root_system = mods["rootdata"].root_system
    for mod, path, span_name in SPANNED:
        owner = mods[mod]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, attr)
        if path == "row_echelon":
            wrapped = tracer.echelon(original)
        elif path == "prolong":
            wrapped = tracer.prolong_wrapper(original)
        else:
            wrapped = tracer.spanned(span_name, original)
        if cls:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    graded_cls = mods["graded"].GradedLieAlgebra
    graded_cls.bracket = tracer.counted("bracket_calls", graded_cls.bracket)
    elim = mods["elimination"]
    elim.combine = tracer.counted("combines", elim.combine)
    enum = mods["classify"].enumerate_descriptors
    _rebind(enum, tracer.enumerate_wrapper(enum))
    for mod, attr in ENTRIES:
        original = getattr(mods[mod], attr)
        _rebind(original, tracer.entry(original))
    return root_system


# -- turning one child's spans into layer metrics -----------------------------

def _union(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layer_metrics(record):
    """Per-layer metrics of one traced child, from its dumped record."""
    spans = [s for s in record["spans"] if s[2] is not None]
    everything = record["spans"]

    def has_ancestor(span, prefix):
        p = span[3]
        while p != -1:
            if everything[p][0].startswith(prefix):
                return True
            p = everything[p][3]
        return False

    def covered(pred):
        return _union([(s[1], s[2]) for s in spans if pred(s)])

    def named(*names):
        return covered(lambda s: s[0] in names)

    elim = ("elimination.row_echelon", "elimination.backsub")
    echelons = [s for s in spans if s[0] == "elimination.row_echelon"]
    rows_in = sum(s[4].get("rows", 0) for s in echelons)
    pivots = sum(s[4].get("pivots", 0) for s in echelons)
    counts = record["counts"]
    return {
        "quadric.regularity_s": named("quadric.regularity"),
        "quadric.build_m_s": named("quadric.build_m"),
        "prolongation.prolong_s": named("prolongation.prolong"),
        "prolongation.prolong_self_s": named("prolongation.prolong") - covered(
            lambda s: s[0] in elim and has_ancestor(s, "prolongation.prolong")),
        "prolongation.transitivity_s": named("prolongation.transitivity"),
        "prolongation.dim": counts["prolong_dim"],
        "elimination.calls": len(echelons),
        "elimination.rows_in": rows_in,
        "elimination.pivots": pivots,
        "elimination.pivot_yield": pivots / rows_in if rows_in else 0.0,
        "elimination.combines": sum(s[4].get("combines", 0) for s in echelons),
        "elimination.max_bits": max((s[4].get("bits", 0) for s in echelons), default=0),
        "elimination.busy_s": named("elimination.row_echelon"),
        "elimination.backsub_s": named("elimination.backsub") - covered(
            lambda s: s[0] == "elimination.row_echelon"
            and has_ancestor(s, "elimination.backsub")),
        "graded.radical_s": named("graded.radical"),
        "graded.radical_calls": sum(1 for s in spans if s[0] == "graded.radical"),
        "graded.levi_s": named("graded.levi"),
        "graded.characteristic_element_s": named("graded.characteristic_element"),
        "graded.validate_s": named("graded.validate"),
        "graded.self_s": covered(lambda s: s[0].startswith("graded.")) - covered(
            lambda s: s[0] in elim and has_ancestor(s, "graded.")),
        "graded.bracket_calls": counts["bracket_calls"],
        "graded.nilradical_s": named("graded.nilradical"),
        "graded.center_s": named("graded.center"),
        "graded.simple_ideals_s": named("graded.simple_ideals"),
        "matrices.calls": sum(1 for s in spans if s[0] == "matrices"),
        "matrices.s": named("matrices"),
        "classify.enumerate_s": named("classify.enumerate"),
        "classify.w0_oracle_s": named("classify.w0_oracle"),
        "classify.list_check_s": named("classify.list_check"),
        "classify.descriptors": counts["descriptors"],
        "rootdata.root_system_s": named("rootdata.root_system"),
        "rootdata.root_system_builds": record["root_system_builds"],
        "cli.import_s": (record["entered"] - record["spawn"]
                         if record["entered"] is not None else 0.0),
    }


def echelon_by_caller(record):
    """Eliminator busy time and rows, attributed to the nearest non-eliminator span."""
    everything = record["spans"]
    out = {}
    for s in everything:
        if s[0] != "elimination.row_echelon" or s[2] is None:
            continue
        p = s[3]
        while p != -1 and everything[p][0].startswith("elimination."):
            p = everything[p][3]
        caller = everything[p][0] if p != -1 else "(top level)"
        agg = out.setdefault(caller, {"calls": 0, "busy_s": 0.0, "rows_in": 0})
        agg["calls"] += 1
        agg["busy_s"] += s[2] - s[1]
        agg["rows_in"] += s[4].get("rows", 0)
    return out
