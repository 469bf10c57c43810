"""The benchmark's per-layer tracer must find every function it wraps.

``bench/spans.py`` replaces library functions at the module attributes
callers look them up by; a refactor that renames or drops one of them makes
``--trace 1`` fail.  This catches that here instead of at benchmark time.
"""

import importlib.util
from pathlib import Path

import histq.rewrite as R
from histq import parse_circuit
from histq.examples import TELEPORTATION_TEXT

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    before = {(m, attr): getattr(spans._MODULES[m], attr)
              for _, modules, attr, _ in spans.TARGETS for m in modules}
    passes = dict(R.PASSES)
    t = spans.Tracer()
    try:
        t.install()
        R.apply_passes(parse_circuit(TELEPORTATION_TEXT), list(R.DEFAULT_PASSES))
    finally:
        t.uninstall()
    names = {s[0] for s in t.spans}
    assert {"rewrite.apply", "rewrite.canonicalize", "rewrite.propagate",
            "rewrite.constants", "circuit.classify"} <= names
    assert all(getattr(spans._MODULES[m], attr) is fn for (m, attr), fn in before.items())
    assert R.PASSES == passes
