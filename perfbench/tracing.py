"""Layer tracing from outside the package.

`install()` replaces every public function of each layer module (plus the
few private functions that carry a per-layer metric) by a wrapper that
records a span: name, start, end and the span that was open when it began.
Callers bind these functions in three ways, and all three must see the
wrapper:

* through the module attribute at call time (`covers.tau_max(g)` in `cli`
  and `atlas`);
* through a name imported into another module (`betti` imports
  `homology_dims`, `independence_complex` and `induced_subgraph`; `atlas`
  imports `is_chordal` and friends);
* through a module global resolved at call time (`atlas._atlas_level`
  calls `canonical_bits` and itself).

So each original function object is replaced wherever it is bound in any
`edgeideals` module namespace, the package namespace included. Only the
traced worker process calls `install()`; the untraced run patches nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("gio", "graphs", "atlas", "covers", "homology", "betti",
          "spectrum", "cli")

# Private functions that carry a per-layer metric of their own.
PRIVATE = {
    "atlas": ("_atlas_level",),
    "homology": ("_rank_gf2", "_rank_mod_p", "_rank_bareiss"),
}

PREDICATES = ("graphs.is_chordal", "graphs.is_gap_free",
              "graphs.is_bipartite", "graphs.is_connected",
              "graphs.isolated_vertices")
PARSERS = ("gio.parse_graph", "gio.from_graph6", "gio.from_edge_list")
EMITTERS = ("gio.emit_graph", "gio.to_graph6", "gio.to_edge_list")
SUBSET_SUMS = ("betti.betti_table", "betti.pd_and_reg",
               "betti.dual_regularity")


def _faces(cx) -> int:
    return sum(len(faces) for faces in cx.faces_by_dim.values())


def _matrix_cells(cx) -> int:
    """Entries of the boundary matrices homology_dims builds: f_k * f_{k-1}
    for k = 0..dim. Computed from the complex, not counted in the kernels."""
    f = cx.faces_by_dim
    return sum(len(f[k]) * len(f.get(k - 1, ())) for k in f if k >= 0)


# Extra per-span payload, computed from the arguments or the result.
_INFO = {
    "atlas._atlas_level": lambda args, result: len(result),
    "covers.cover_report": lambda args, result: result.num_minimal_covers,
    "homology.independence_complex": lambda args, result: _faces(result),
    "homology.homology_dims": lambda args, result: _matrix_cells(args[0]),
    "homology._rank_mod_p": lambda args, result: args[1],
    "betti.betti_table": lambda args, result: 1 << args[0].n,
    "betti.pd_and_reg": lambda args, result: 1 << args[0].n,
    "betti.dual_regularity": lambda args, result: 1 << args[0].n,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced


def _targets():
    """(qualified name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"edgeideals.{layer}"]
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if inspect.isgeneratorfunction(fn):
                continue  # a span would close before the work is done
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            out.append((f"{layer}.{attr}", fn))
    return out


def install() -> Tracer:
    import edgeideals  # noqa: F401  (loads every layer module)
    tracer = Tracer()
    wrapped = {id(fn): tracer.wrap(name, fn) for name, fn in _targets()}
    for modname, mod in list(sys.modules.items()):
        if modname != "edgeideals" and not modname.startswith("edgeideals."):
            continue
        for attr, value in list(vars(mod).items()):
            new = wrapped.get(id(value))
            if new is not None:
                setattr(mod, attr, new)
    return tracer


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced timed phase."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def dur(i):
        return spans[i][2] - spans[i][1]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def ids(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def total(*names):
        return sum((dur(i) for i in ids(*names)), 0.0)

    def outer(*names):
        """Time covered by the named spans, not counting one that runs
        inside another of them twice."""
        group = set(names)
        return sum((dur(i) for i in ids(*names)
                    if parent_name(i) not in group), 0.0)

    def self_time(layer):
        prefix = layer + "."
        return sum((dur(i) - child_time[i] for i in range(n)
                    if spans[i][0].startswith(prefix)), 0.0)

    def under_betti(i):
        return parent_name(i).startswith("betti.")

    canon = ids("atlas.canonical_bits")
    memo_lookups = [i for i in canon if under_betti(i)]
    homology_calls = [i for i in ids("homology.homology_dims")
                      if under_betti(i)
                      and parent_name(i) != "betti.dual_regularity"]
    levels = [i for i in ids("atlas._atlas_level")
              if any(spans[c][3] == i for c in canon)]
    classes = sum(spans[i][4] for i in levels)
    rank_p = ids("homology._rank_mod_p")

    return {
        "atlas.canonical_calls": len(canon),
        "atlas.canonical_s": total("atlas.canonical_bits"),
        "atlas.classes": classes,
        "atlas.classes_per_canonical_call":
            classes / len(canon) if canon else 0.0,
        "atlas.enumerate_s": sum((dur(i) - child_time[i]
                                  for i in ids("atlas._atlas_level")), 0.0),
        "betti.memo_lookups": len(memo_lookups),
        "betti.homology_calls": len(homology_calls),
        "betti.memo_hit_ratio":
            1 - len(homology_calls) / len(memo_lookups)
            if memo_lookups else 0.0,
        "betti.memo_key_s": sum((dur(i) for i in memo_lookups), 0.0),
        "betti.subsets": sum(spans[i][4] for i in ids(*SUBSET_SUMS)),
        "betti.self_s": self_time("betti"),
        "homology.complexes": len(ids("homology.independence_complex")),
        "homology.complex_s": total("homology.independence_complex"),
        "homology.faces": sum(spans[i][4] for i in
                              ids("homology.independence_complex")),
        "homology.rank_s.gf2": total("homology._rank_gf2"),
        "homology.rank_s.gf3": sum((dur(i) for i in rank_p
                                    if spans[i][4] == 3), 0.0),
        "homology.rank_s.q": total("homology._rank_bareiss"),
        "homology.matrix_cells": sum(spans[i][4] for i in
                                     ids("homology.homology_dims")),
        "covers.matching_s": total("covers.matching_number"),
        "covers.induced_matching_s": total("covers.induced_matching_number"),
        "covers.cover_report_s": total("covers.cover_report"),
        "covers.minimal_covers": sum(spans[i][4] for i in
                                     ids("covers.cover_report")),
        "covers.tau_max_s": total("covers.tau_max"),
        "graphs.induced_subgraph_calls": len(ids("graphs.induced_subgraph")),
        "graphs.induced_subgraph_s": total("graphs.induced_subgraph"),
        "graphs.predicates_s": outer(*PREDICATES),
        "gio.parse_s": outer(*PARSERS),
        "gio.emit_s": outer(*EMITTERS),
        "cli.self_s": self_time("cli"),
        "spectrum.build_s": outer(*(name for name in by_name
                                    if name.startswith("spectrum."))),
        "trace.spans": n,
    }
