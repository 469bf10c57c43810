"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that a seed always gives byte-identical inputs, that every output
check rejects an injected wrong answer (and accepts the right one), and that
``run.py`` refuses to run, with no result line, where the library sources
are missing.  Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import histq.engine as E  # noqa: E402
import histq.statevector as S  # noqa: E402
from histq.circuit import GateInstance  # noqa: E402
from histq.engine import Distribution  # noqa: E402
from histq.gates import phase_gate  # noqa: E402
from histq.parser import parse_circuit  # noqa: E402
from workloads import WORKLOADS, Record, warmup  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def load(workload: str, seed: int = 7):
    d = WORK / workload
    shutil.rmtree(d, ignore_errors=True)
    manifest = json.loads(gen.write_inputs(workload, seed, d).read_text())
    wl = WORKLOADS[workload](d, manifest)
    wl.circuits = wl.load()
    wl.bind()
    return wl


def rejects(wl, rec: Record, what: str) -> None:
    expect(wl.check(rec) is not None, f"{what} is caught")


def test_inputs_repeat() -> None:
    for workload in gen.GENERATORS:
        trees = []
        for run, seed in enumerate((3, 3, 4)):
            d = WORK / f"repeat-{run}"
            shutil.rmtree(d, ignore_errors=True)
            gen.write_inputs(workload, seed, d)
            trees.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        expect(trees[0] == trees[1], f"{workload}: the same seed gives byte-identical inputs")
        expect(trees[0] != trees[2], f"{workload}: another seed gives other inputs")


def test_wide_sum_check() -> None:
    wl = load("wide-sum")
    refs = ((i, S.amplitude_canonical(wl.circuits[op["inst"]], wl.queries[i]))
            for i, op in enumerate(wl.ops) if op["op"] == "interference")
    i, ref = next((i, ref) for i, ref in refs if abs(ref) > 1e-6)
    good = Record(i, "interference", 0.0, SimpleNamespace(value=ref))
    expect(wl.check(good) is None, "wide-sum: the dense answer passes")
    rejects(wl, Record(i, "interference", 0.0, SimpleNamespace(value=-ref)),
            "wide-sum: a flipped sign")


def test_many_queries_checks() -> None:
    wl = load("many-queries")

    def first(kind, bundled=None):
        for i, op in enumerate(wl.ops):
            name = wl.files[op["inst"]].stem
            if op["op"] == kind and (bundled is None or (name == bundled)):
                c, q = wl.circuits[op["inst"]], wl.queries[i]
                if kind == "dist" or abs(S.amplitude_canonical(c, q)) > 1e-6:
                    return i, c, q
        raise LookupError(kind)

    for kind in ("run", "cli"):
        i, c, q = first(kind)
        ref = S.amplitude_canonical(c, q)
        expect(wl.check(Record(i, kind, 0.0, ref)) is None,
               f"many-queries {kind}: the dense answer passes")
        rejects(wl, Record(i, kind, 0.0, -ref), f"many-queries {kind}: a flipped sign")

    i, c, q = first("compare")
    ref = S.amplitude_canonical(c, q)
    expect(wl.check(Record(i, "compare", 0.0, (ref, ref))) is None,
           "many-queries compare: agreement passes")
    rejects(wl, Record(i, "compare", 0.0, (-ref, ref)), "many-queries compare: a flipped sign")

    i, c, q = first("run", bundled="teleport")
    amp = S.amplitude_canonical(c, q)
    rejects(wl, Record(i, "run", 0.0, amp * (1 + 1e-12)),
            "teleport: a probability off 0.25 by rounding")

    i, c, q = first("dist")
    d = E.output_distribution(c, q)
    expect(wl.check(Record(i, "dist", 0.0, d)) is None,
           "many-queries dist: the true distribution passes")
    dropped = dict(d.probs)
    dropped.pop(next(iter(dropped)))
    rejects(wl, Record(i, "dist", 0.0, Distribution(dropped)),
            "many-queries dist: a dropped pattern")
    scaled = {k: 0.5 * p for k, p in d.probs.items()}
    rejects(wl, Record(i, "dist", 0.0, Distribution(scaled)), "many-queries dist: a total of 0.5")
    shifted = {k: p + (1e-3 if n % 2 else -1e-3) for n, (k, p) in enumerate(d.probs.items())}
    rejects(wl, Record(i, "dist", 0.0, Distribution(shifted)),
            "many-queries dist: patterns off by 1e-3 with the total kept")


def test_rewrite_checks() -> None:
    import histq.rewrite as R
    from histq.circuit import Wire
    wl = load("rewrite")

    def first(kind):
        i = next(i for i, op in enumerate(wl.ops) if op["op"] == kind)
        out, reports = R.apply_passes(wl.circuits[wl.ops[i]["inst"]], list(R.DEFAULT_PASSES))
        expect(wl.check(Record(i, kind, 0.0, (out, reports))) is None,
               f"rewrite {kind}: the real rewrite passes")
        return i, out, reports

    i, out, reports = first("small")
    minus = out.replace(gates=out.gates + (GateInstance(phase_gate(math.pi, 0), ()),))
    rejects(wl, Record(i, "small", 0.0, (minus, reports)), "rewrite small: a flipped sign")

    i, out, reports = first("rewrite200")
    inner = next(w for w in out.wires if out.ends[w.name].internal)
    opened = out.replace(wires=[Wire(w.name, out_bound=True) if w is inner else w
                                for w in out.wires])
    rejects(wl, Record(i, "rewrite200", 0.0, (opened, reports)), "rewrite large: an extra free end")
    grown = parse_circuit(wl.files[wl.ops[i]["inst"]].read_text() + "apply H q0\napply H q0\n")
    rejects(wl, Record(i, "rewrite200", 0.0, (grown, reports)), "rewrite large: w that grew")


def test_warmup_check() -> None:
    d = WORK / "warmup"
    shutil.rmtree(d, ignore_errors=True)
    gen.write_inputs("wide-sum", 7, d)
    attempted, fails = warmup(d)
    expect(attempted > 0 and not fails, "warm-up: the exact answers pass")
    orig = E.evaluate

    def off(*a, **kw):
        r = orig(*a, **kw)
        return E.EvalResult(E.Amplitude(r.amplitude.value * 1.01, r.amplitude.norm_exponent),
                            r.internal_wires, r.histories, r.accepted)

    E.evaluate = off
    try:
        _, fails = warmup(d)
    finally:
        E.evaluate = orig
    expect(bool(fails), "warm-up: amplitudes off by 1% are caught")


def test_refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide-sum", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    expect(p.returncode != 0 and "{" not in p.stdout,
           "run.py exits nonzero without a result where src/histq is missing")


def main() -> int:
    for test in (test_inputs_repeat, test_wide_sum_check, test_many_queries_checks,
                 test_rewrite_checks, test_warmup_check, test_refuses_without_sources):
        test()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
