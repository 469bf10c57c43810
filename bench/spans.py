"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced public function with a timing wrapper
at every module attribute through which a caller looks it up (for example
``histq.engine.prepare``, which ``evaluate`` calls by its global name, and
``histq.rewrite.PASSES``, through which ``apply_passes`` finds the passes).
``uninstall`` puts the originals back; an untraced run never installs
anything.

Each call becomes one span: name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans stay in memory until ``write``.
A function's self time is its span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import histq.circuit
import histq.cli
import histq.engine
import histq.parser
import histq.rewrite
import histq.statevector


def _internal(c) -> int:
    return sum(e.internal for e in c.ends.values())


# (layer.function, the modules whose attribute is replaced, function name,
# counts taken from the call).  A function listed under several modules gets
# one wrapper.
TARGETS = (
    ("parser.parse", ("parser", "cli"), "parse_circuit",
     lambda a, kw, out: {"bytes": len(a[0])}),
    ("parser.emit", ("parser", "cli"), "emit_circuit",
     lambda a, kw, out: {"bytes": len(out)}),
    ("circuit.validate", ("circuit", "cli"), "validate", None),
    ("circuit.classify", ("circuit", "engine", "rewrite", "cli"), "classify_wires", None),
    ("circuit.resolve", ("circuit", "engine", "statevector"), "resolve_boundary", None),
    ("circuit.lower", ("circuit", "parser"), "lower_sequential", None),
    ("engine.prepare", ("engine",), "prepare", None),
    ("engine.evaluate", ("engine", "cli"), "evaluate",
     lambda a, kw, out: {"histories": out.histories, "accepted": out.accepted}),
    ("engine.dist", ("engine", "cli"), "output_distribution", None),
    ("statevector.order", ("statevector",), "sequential_order", None),
    ("statevector.amplitude", ("statevector", "cli"), "amplitude_canonical", None),
    ("rewrite.canonicalize", ("rewrite",), "canonicalize", None),
    ("rewrite.propagate", ("rewrite",), "propagate_constants",
     lambda a, kw, out: {"iterations": out[1].details["iterations"]}),
    ("rewrite.drop_dead", ("rewrite",), "drop_dead_controlled_gates", None),
    ("rewrite.short_xor", ("rewrite",), "short_xor_constant", None),
    ("rewrite.constants", ("rewrite",), "compute_constants", None),
    ("rewrite.apply", ("rewrite", "cli"), "apply_passes",
     lambda a, kw, out: {"wires_removed": _internal(a[0]) - _internal(out[0])}),
    ("rewrite.equivalent", ("rewrite",), "equivalent", None),
    ("cli.main", ("cli",), "main", None),
)

_MODULES = {"parser": histq.parser, "cli": histq.cli, "circuit": histq.circuit,
            "engine": histq.engine, "statevector": histq.statevector,
            "rewrite": histq.rewrite}


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index or -1, query id, counts or None]
        self.spans: list[list] = []
        self.query: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []   # (namespace, name, original)

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*a, **kw):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*a, **kw)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(a, kw, out)
            return out
        return traced

    def install(self) -> None:
        passes = histq.rewrite.PASSES
        for name, modules, attr, counts in TARGETS:
            orig = getattr(_MODULES[modules[0]], attr)
            traced = self._wrap(orig, name, counts)
            places = [(vars(_MODULES[m]), attr) for m in modules]
            places += [(passes, key) for key, fn in passes.items() if fn is orig]
            for owner, key in places:
                self._saved.append((owner, key, owner[key]))
                owner[key] = traced

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            owner[key] = orig
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and inclusive seconds, summed counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, parent, _, counts) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["incl"] += t1 - t0
            rec["self"] += t1 - t0 - child[i]
            if parent >= 0 and self.spans[parent][0] == "engine.dist" and name == "engine.evaluate":
                rec["calls_in_dist"] += 1
            for k, v in (counts or {}).items():
                rec[k] += v
        return out


def layer_metrics(t: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics that come straight from the spans."""

    def g(name, key):
        return t[name][key] if name in t else 0.0

    sum_s = g("engine.evaluate", "self")
    histories = g("engine.evaluate", "histories")
    dist_calls = g("engine.dist", "calls")
    return {
        "engine.sum_s": sum_s,
        "engine.sum_histories_per_s": histories / sum_s if sum_s else 0.0,
        "engine.histories": histories,
        "engine.accepted": g("engine.evaluate", "accepted"),
        "engine.accept_ratio": g("engine.evaluate", "accepted") / histories if histories else 0.0,
        "engine.prepare_s": g("engine.prepare", "self"),
        "engine.prepare_calls": g("engine.prepare", "calls"),
        "engine.dist_s": g("engine.dist", "incl"),
        "engine.dist_calls": dist_calls,
        "engine.evals_per_dist": (g("engine.evaluate", "calls_in_dist") / dist_calls
                                  if dist_calls else 0.0),
        "circuit.classify_s": g("circuit.classify", "self"),
        "circuit.resolve_s": g("circuit.resolve", "self"),
        "circuit.resolve_calls": g("circuit.resolve", "calls"),
        "circuit.validate_s": g("circuit.validate", "self"),
        "circuit.lower_s": g("circuit.lower", "self"),
        "statevector.order_s": g("statevector.order", "self"),
        "statevector.order_calls": g("statevector.order", "calls"),
        "statevector.apply_s": g("statevector.amplitude", "self"),
        "statevector.amp_calls": g("statevector.amplitude", "calls"),
        "rewrite.constants_s": g("rewrite.constants", "self"),
        "rewrite.constants_calls": g("rewrite.constants", "calls"),
        "rewrite.canonicalize_s": g("rewrite.canonicalize", "self"),
        "rewrite.propagate_s": g("rewrite.propagate", "self"),
        "rewrite.drop_dead_s": g("rewrite.drop_dead", "self"),
        "rewrite.short_xor_s": g("rewrite.short_xor", "self"),
        "rewrite.iterations": g("rewrite.propagate", "iterations"),
        "rewrite.wires_removed": g("rewrite.apply", "wires_removed"),
        "rewrite.equivalent_s": g("rewrite.equivalent", "self"),
        "parser.busy_s": g("parser.parse", "self") + g("parser.emit", "self"),
        "parser.calls": g("parser.parse", "calls") + g("parser.emit", "calls"),
        "parser.bytes": g("parser.parse", "bytes") + g("parser.emit", "bytes"),
        "cli.main_s": g("cli.main", "self"),
        "cli.calls": g("cli.main", "calls"),
    }
