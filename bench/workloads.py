"""The three workloads: load their files, run a closed loop of operations,
check every answer afterwards.

Each workload is one client in one process: the next operation starts only
after the last one returned, and every timed call runs on one thread (the
library default).  Operations come in rounds of a fixed mix (one query of
each wide-sum family; one pass over the many-queries circuits; one rewrite
round) and the loop stops at the first round boundary after the time is
up, so every run holds the same mix.  Latencies are reported per operation
class as medians, which a short slow spell on a shared machine moves less
than it would move a mean.

Operations call the library through module attributes (``E.evaluate``), so
the wrappers the tracer installs there see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import histq.circuit as Cm
import histq.cli as C
import histq.engine as E
import histq.parser as P
import histq.rewrite as R
import histq.statevector as S
from histq.errors import ValidationError

import gen

AMP_TOL = 1e-10
TOTAL_TOL = 1e-9
SETUP_REPEATS = 5
DIST_SAMPLES = 3              # dist patterns checked against the dense engine


@dataclass
class Record:
    index: int                # position in the manifest's operation list
    cls: str
    seconds: float
    answer: object = None
    error: str | None = None
    failure: str | None = None   # set by the checks


@dataclass
class Outcome:
    records: list[Record]
    loop_s: float
    failures: list[str] = field(default_factory=list)


def query(c: Cm.Circuit, ins: str, outs: str) -> Cm.BoundaryAssignment:
    """A query from command-line style bit strings; ``-`` binds nothing."""
    return Cm.BoundaryAssignment(
        {w.name: int(b) for w, b in zip(c.input_wires, ins) if b != "-"},
        {w.name: int(b) for w, b in zip(c.output_wires, outs) if b != "-"})


def positional(bits: int, ins: tuple[str, ...], outs: tuple[str, ...]) -> Cm.BoundaryAssignment:
    """The free ends bound by position, inputs first, most significant bit
    first: the way ``equivalent`` matches a circuit with its rewrite."""
    top = len(ins) + len(outs) - 1
    return Cm.BoundaryAssignment(
        {w: (bits >> (top - k)) & 1 for k, w in enumerate(ins)},
        {w: (bits >> (top - len(ins) - k)) & 1 for k, w in enumerate(outs)})


def internal_wires(c: Cm.Circuit) -> int:
    return sum(1 for w in c.wires if c.ends[w.name].internal)


def free_ends(c: Cm.Circuit) -> int:
    ins, outs = R.interface(c)
    return len(ins) + len(outs)


def median_ms(xs: list[float]) -> float:
    return statistics.median(xs) * 1e3


def timed(fn) -> tuple[float, object, str | None]:
    t0 = perf_counter()
    try:
        answer, error = fn(), None
    except Exception as e:   # a failing operation is counted, not fatal
        answer, error = None, f"{type(e).__name__}: {e}"
    return perf_counter() - t0, answer, error


class Workload:
    classes: tuple[str, ...] = ()
    round_len = 1

    def __init__(self, workdir: Path, manifest: dict):
        self.files = [workdir / f for f in manifest["files"]]
        self.ops = manifest["ops"]
        self.circuits: list[Cm.Circuit] = []

    # -- setup ---------------------------------------------------------------
    def load(self) -> list[Cm.Circuit]:
        """Read, parse and validate every file: the timed set-up."""
        out = []
        for path in self.files:
            c = P.parse_circuit(path.read_text(encoding="utf-8"))
            diags = Cm.validate(c)
            if diags:
                raise ValidationError(f"{path.name}: " + "; ".join(diags))
            out.append(c)
        return out

    def setup(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.circuits = self.load()
            times.append(perf_counter() - t0)
        self.bind()
        return times

    def bind(self) -> None:
        """Turn each operation's bit strings into a query (untimed)."""
        self.queries = [query(self.circuits[op["inst"]], op["ins"], op["outs"])
                        if "ins" in op else None for op in self.ops]

    # -- the closed loop ------------------------------------------------------
    def run_op(self, i: int) -> Record:
        raise NotImplementedError

    def loop(self, seconds: float | None = None, count: int | None = None,
             tracer=None) -> Outcome:
        """Run operations in manifest order, cycling, until ``seconds`` have
        passed (rounded up to whole rounds) or ``count`` operations are done."""
        records = []
        t0 = perf_counter()
        i = 0
        while True:
            if tracer is not None:
                tracer.query = i
            records.append(self.run_op(i % len(self.ops)))
            i += 1
            if count is not None:
                if i >= count:
                    break
            elif i % self.round_len == 0 and perf_counter() - t0 >= seconds:
                break
        loop_s = perf_counter() - t0
        if tracer is not None:
            tracer.query = None
        return Outcome(records, loop_s)

    # -- checks and report ----------------------------------------------------
    def check(self, rec: Record) -> str | None:
        raise NotImplementedError

    def check_all(self, out: Outcome) -> None:
        for rec in out.records:
            rec.failure = rec.error or self.check(rec)
            if rec.failure:
                out.failures.append(f"op {rec.index} ({rec.cls}): {rec.failure}")

    def class_medians_ms(self, out: Outcome) -> dict[str, float]:
        by = {k: [r.seconds for r in out.records if r.cls == k] for k in self.classes}
        return {k: median_ms(v) for k, v in by.items() if v}

    def class_p50_gmean_ms(self, out: Outcome) -> float:
        """The workload's speed in one number: the geometric mean over its
        operation classes of each class's median latency, so every class
        counts the same however long its operations take."""
        meds = self.class_medians_ms(out).values()
        return math.exp(sum(map(math.log, meds)) / len(meds))

    def report(self, out: Outcome) -> dict[str, tuple[float, str]]:
        """The workload's own metrics, by the names the docs use."""
        return {}

    def instances(self, out: Outcome) -> list[dict]:
        """Per-instance properties for the report."""
        return [dict(name=path.stem, lines=len(c.input_wires), gates=len(c.gates),
                     w=internal_wires(c), free_ends=free_ends(c))
                for path, c in zip(self.files, self.circuits)]

    # -- probes for the traced run ---------------------------------------------
    def scaling_queries(self) -> list[tuple[Cm.Circuit, Cm.BoundaryAssignment]]:
        """Queries for engine.scaling_2t and engine.peak_alloc_bytes."""
        raise NotImplementedError


def warmup(workdir: Path) -> tuple[int, list[str]]:
    """Run every kind of operation once on the bundled teleport and
    superdense circuits and check the exact answers.

    Returns (operations attempted, failures).  The traced run traces this
    too, so every layer shows some work on every workload.
    """
    fails = []

    def want(ok, what):
        if not ok:
            fails.append(f"warm-up: {what}")

    for name, prob in gen.EXACT.items():
        ins, outs = gen.BUNDLED[name]
        path = workdir / f"warmup-{name}.circuit"
        try:
            c = P.parse_circuit(path.read_text(encoding="utf-8"))
            q = query(c, ins, outs)
            p = abs(E.evaluate(c, q).value) ** 2
            want(p == prob, f"{name} run probability {p!r} != {prob}")
            p = abs(S.amplitude_canonical(c, q)) ** 2
            want(abs(p - prob) <= 1e-12, f"{name} dense probability {p!r}")
            d = E.output_distribution(c, query(c, ins, "-" * len(outs)))
            want(abs(d.total - 1.0) <= TOTAL_TOL, f"{name} dist total {d.total!r}")
            want(d.probs.get(outs) == prob, f"{name} dist[{outs}] {d.probs.get(outs)!r} != {prob}")
            p = abs(run_cli(path, ins, outs)) ** 2
            want(p == prob, f"{name} cli probability {p!r}")
            ok, worst = R.equivalent(c, R.apply_passes(c, list(R.DEFAULT_PASSES))[0])
            want(ok, f"{name} rewrite changed an amplitude by {worst!r}")
        except Exception as e:   # counted like any failed operation
            want(False, f"{name}: {type(e).__name__}: {e}")
    return 5 * len(gen.EXACT), fails


def run_cli(path: Path, ins: str, outs: str) -> complex:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = C.main(["run", str(path), f"--in={ins}", f"--out={outs}"])
        except SystemExit as e:       # argparse rejected the command line
            code = e.code
    if code != 0:
        raise RuntimeError(f"histq run exited {code}")
    kv = dict(line.split("=", 1) for line in buf.getvalue().splitlines())
    return complex(float(kv["amplitude_re"]), float(kv["amplitude_im"]))


def amp_failure(got: complex, ref: complex) -> str | None:
    if abs(got - ref) > AMP_TOL:
        return f"amplitude {got!r} differs from the dense {ref!r}"
    return None


# ---------------------------------------------------------------------------

class WideSum(Workload):
    """``evaluate`` on 8-line circuits with 2^21 and 2^25 histories."""
    classes = ("interference", "pruned")
    round_len = 2             # one interference and one pruned query

    def run_op(self, i):
        op = self.ops[i]
        c, q = self.circuits[op["inst"]], self.queries[i]
        dt, ans, err = timed(lambda: E.evaluate(c, q))
        return Record(i, op["op"], dt, ans, err)

    def check(self, rec):
        op = self.ops[rec.index]
        ref = S.amplitude_canonical(self.circuits[op["inst"]], self.queries[rec.index])
        return amp_failure(rec.answer.value, ref)

    def report(self, out):
        m = {}
        for cls, name in (("interference", "histories_per_s"),
                          ("pruned", "pruned_histories_per_s")):
            recs = [r for r in out.records if r.cls == cls and r.answer is not None]
            if recs:
                rate = sum(r.answer.histories for r in recs) / sum(r.seconds for r in recs)
                m[name] = (rate, "1/s")
        for cls, v in self.class_medians_ms(out).items():
            m[f"{cls}_p50_ms"] = (v, "ms")
        ratios = self.accept_ratios(out)
        if ratios:
            m["share_accept_below_1e-3"] = (sum(v < 1e-3 for v in ratios.values()) / len(ratios),
                                            "ratio")
        return m

    def accept_ratios(self, out):
        return {self.ops[r.index]["inst"]: r.answer.accepted / r.answer.histories
                for r in out.records if r.answer is not None}

    def instances(self, out):
        rows = super().instances(out)
        for k, ratio in self.accept_ratios(out).items():
            rows[k]["accept_ratio"] = ratio
        return rows

    def scaling_queries(self):
        firsts = {}
        for i, op in enumerate(self.ops):
            firsts.setdefault(op["op"], (self.circuits[op["inst"]], self.queries[i]))
        return [firsts[k] for k in self.classes]


class ManyQueries(Workload):
    """A stream of small queries on circuits loaded once."""
    classes = ("run", "compare", "dist", "cli")
    round_len = gen.MQ_PASS_LEN

    def run_op(self, i):
        op = self.ops[i]
        c, q = self.circuits[op["inst"]], self.queries[i]
        kind = op["op"]
        if kind == "run":
            fn = lambda: E.evaluate(c, q).value
        elif kind == "compare":
            fn = lambda: (E.evaluate(c, q).value, S.amplitude_canonical(c, q))
        elif kind == "dist":
            fn = lambda: E.output_distribution(c, q)
        else:
            path = self.files[op["inst"]]
            fn = lambda: run_cli(path, op["ins"], op["outs"])
        dt, ans, err = timed(fn)
        return Record(i, kind, dt, ans, err)

    def check(self, rec):
        op = self.ops[rec.index]
        c, q = self.circuits[op["inst"]], self.queries[rec.index]
        if op["op"] == "dist":
            return self.check_dist(rec, c, q)
        got = rec.answer[0] if op["op"] == "compare" else rec.answer
        ref = rec.answer[1] if op["op"] == "compare" else S.amplitude_canonical(c, q)
        fail = amp_failure(got, ref)
        name = self.files[op["inst"]].stem
        if fail is None and name in gen.EXACT and abs(got) ** 2 != gen.EXACT[name]:
            fail = f"{name} probability {abs(got) ** 2!r} is not exactly {gen.EXACT[name]}"
        return fail

    def check_dist(self, rec, c, q):
        d = rec.answer
        free = E.free_output_ends(c, q)
        if len(d.probs) != 2 ** len(free):
            return f"dist has {len(d.probs)} patterns, want {2 ** len(free)}"
        if abs(d.total - 1.0) > TOTAL_TOL:
            return f"dist total {d.total!r}"
        rng = random.Random(rec.index)
        for _ in range(DIST_SAMPLES):
            bits = "".join(str(rng.getrandbits(1)) for _ in free)
            if bits not in d.probs:
                return f"dist pattern {bits} missing"
            out_bits = dict(q.out_bits)
            out_bits.update(zip(free, map(int, bits)))
            ref = abs(S.amplitude_canonical(c, Cm.BoundaryAssignment(q.in_bits, out_bits))) ** 2
            if abs(d.probs[bits] - ref) > AMP_TOL:
                return f"dist[{bits}] = {d.probs[bits]!r}, dense {ref!r}"
        return None

    def report(self, out):
        m = {f"{k}_p50_ms": (v, "ms") for k, v in self.class_medians_ms(out).items()}
        runs = sorted(r.seconds for r in out.records if r.cls == "run")
        if len(runs) >= 100:      # p90 needs at least ten samples beyond it
            m["run_p90_ms"] = (statistics.quantiles(runs, n=10)[-1] * 1e3, "ms")
        m["queries_per_s"] = (len(out.records) / out.loop_s, "1/s")
        return m

    def scaling_queries(self):
        # the widest run query: w <= 14 fits in one chunk, so threads cannot help
        best = max((i for i, op in enumerate(self.ops) if op["op"] == "run"),
                   key=lambda i: internal_wires(self.circuits[self.ops[i]["inst"]]))
        return [(self.circuits[self.ops[best]["inst"]], self.queries[best])]


class Rewrite(Workload):
    """``apply_passes(c, DEFAULT_PASSES)`` on small, 200- and 400-gate circuits."""
    classes = ("small", "rewrite200", "rewrite400")
    round_len = gen.RW_SMALL + len(gen.RW_LARGE)

    def run_op(self, i):
        op = self.ops[i]
        c = self.circuits[op["inst"]]
        dt, ans, err = timed(lambda: R.apply_passes(c, list(R.DEFAULT_PASSES)))
        return Record(i, op["op"], dt, ans, err)

    def check(self, rec):
        op = self.ops[rec.index]
        c = self.circuits[op["inst"]]
        out = rec.answer[0]
        ins0, outs0 = R.interface(c)
        ins1, outs1 = R.interface(out)
        if (len(ins0), len(outs0)) != (len(ins1), len(outs1)):
            return f"interface changed: {(ins0, outs0)} -> {(ins1, outs1)}"
        if internal_wires(out) > internal_wires(c):
            return f"w grew from {internal_wires(c)} to {internal_wires(out)}"
        if op["op"] != "small":
            return None
        for bits in range(2 ** (len(ins0) + len(outs0))):
            ref = S.amplitude_canonical(c, positional(bits, ins0, outs0))
            fail = amp_failure(E.evaluate(out, positional(bits, ins1, outs1)).value, ref)
            if fail:
                return "rewritten " + fail
        return None

    def w_counts(self, out):
        """(w before, w after) summed over the operations of a run."""
        before = after = 0
        for r in out.records:
            if r.answer is not None:
                before += internal_wires(self.circuits[self.ops[r.index]["inst"]])
                after += internal_wires(r.answer[0])
        return before, after

    def report(self, out):
        meds = self.class_medians_ms(out)
        before, after = self.w_counts(out)
        return {
            "small_p50_s": (meds["small"] / 1e3, "s"),
            "rewrite200_p50_s": (meds["rewrite200"] / 1e3, "s"),
            "rewrite400_p50_s": (meds["rewrite400"] / 1e3, "s"),
            "rewrite_w_ratio": (after / max(before, 1), "ratio"),
        }

    def scaling_queries(self):
        # the engine does no timed work here: probe the first small instance,
        # rewritten, the way the checks evaluate it
        i = next(i for i, op in enumerate(self.ops) if op["op"] == "small")
        c = self.circuits[self.ops[i]["inst"]]
        out, _ = R.apply_passes(c, list(R.DEFAULT_PASSES))
        ins, outs = R.interface(out)
        return [(out, Cm.BoundaryAssignment(dict.fromkeys(ins, 0), dict.fromkeys(outs, 0)))]


WORKLOADS = {"wide-sum": WideSum, "many-queries": ManyQueries, "rewrite": Rewrite}
