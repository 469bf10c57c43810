"""The benchmark must still find every library name it calls.

``bench/spans.py`` replaces library functions at the module attributes
callers look them up by, and the workloads, the self-test and the trace
probe call the library directly; a refactor that renames, moves or drops one
of those names makes the benchmark fail.  This catches that here instead of
at benchmark time, and so do one short traced rewrite run and one
many-queries round, for a parser, lowering or pass change that breaks a
workload's inputs or checks.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import histq.rewrite as R
from histq import parse_circuit
from histq.examples import TELEPORTATION_TEXT

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_bench_selftest_and_a_traced_run_pass():
    # both write only under the checkout's .bench_work/, as the benchmark does
    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=300)

    selftest = run("bench/selftest.py")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    traced = run("bench/run.py", "--workload", "wide-sum", "--seed", "1",
                 "--seconds", "0.01", "--trace", "1")
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert json.loads(traced.stdout.splitlines()[-1])["correct"]
    # one round of the rewrite workload: parse, lower, validate and the
    # default passes on every input, each answer checked, untraced and then
    # traced; the span wrappers read ``ends`` on every answer
    rewrite = run("bench/run.py", "--workload", "rewrite", "--seed", "1",
                  "--seconds", "0.01", "--trace", "1")
    assert rewrite.returncode == 0, rewrite.stdout + rewrite.stderr
    assert json.loads(rewrite.stdout.splitlines()[-1])["correct"] is True


def test_one_round_of_many_queries_passes():
    # every many-queries circuit queried by run, compare, dist and the command
    # line, each answer checked against the dense engine, and the bundled
    # teleport and superdense queries against their exact probabilities
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "many-queries",
                           "--seed", "1", "--seconds", "0.01", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
