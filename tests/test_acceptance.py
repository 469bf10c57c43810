"""Acceptance gate: ten end-to-end checks, one verdict line each.

The verdict lines print past pytest's capture, so a plain run shows all
ten as the criteria finish.
"""

import math
import random
import time

import pytest

from histq import (BUILTIN, BoundaryAssignment, SeqDescription, SeqLine,
                   SeqOp, amplitude_canonical, canonicalize, cli, equivalent,
                   evaluate, lower_sequential, memory_probe,
                   output_distribution, parse_circuit)
from histq.examples import EXAMPLES, SUPERDENSE_TEXT, TELEPORTATION_TEXT
from histq.rewrite import PASSES

from conftest import evaluate_at, random_circuit, random_ops, random_query

TOL = 1e-10


_capture = None


@pytest.fixture(autouse=True)
def _verdicts_reach_terminal(capsys):
    global _capture
    _capture = capsys
    yield
    _capture = None


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    if _capture is None:
        print(line)
    else:
        with _capture.disabled():
            print(line)
    assert ok, detail


def corpus_circuit(rng):
    """n <= 4 lines, <= 8 built-in gates, every boundary end left free."""
    n = rng.randint(1, 4)
    names = [f"q{i}" for i in range(n)]
    ops = random_ops(rng, names, g_max=8, phase_taps=False)
    return lower_sequential(SeqDescription(tuple(SeqLine(nm) for nm in names),
                                           ops))


def test_criterion_1_engine_equivalence():
    rng = random.Random(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        c = corpus_circuit(rng)
        q = random_query(rng, c)
        worst = max(worst, abs(evaluate(c, q).value - amplitude_canonical(c, q)))
    elapsed = time.monotonic() - t0
    verdict(1, worst <= TOL and elapsed <= 60.0,
            f"200 circuits, max |Δ| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_history_count_reduction(tmp_path, capsys):
    outputs = {}
    for name, want in (("three-stage", "internal_wires=6 histories=64\n"),
                       ("three-stage-middle", "internal_wires=4 histories=16\n")):
        p = tmp_path / f"{name}.circuit"
        p.write_text(EXAMPLES[name])
        rc = cli.main(["count", str(p)])
        outputs[name] = (rc, capsys.readouterr().out, want)
    ok = all(rc == 0 and got == want for rc, got, want in outputs.values())
    verdict(2, ok, "; ".join(f"{n}: {got.strip()}" for n, (_, got, _)
                             in outputs.items()))


def test_criterion_3_teleportation():
    c = parse_circuit(TELEPORTATION_TEXT)
    t0 = time.monotonic()
    worst_good = 0.0
    leaked = 0.0
    for x in (0, 1):
        for p in (0, 1):
            for q in (0, 1):
                good = BoundaryAssignment({"x0": x}, {"x1": p, "b2": q, "c3": x})
                bad = BoundaryAssignment({"x0": x}, {"x1": p, "b2": q, "c3": 1 - x})
                for amp in (evaluate(c, good).value, amplitude_canonical(c, good)):
                    worst_good = max(worst_good, abs(abs(amp) ** 2 - 0.25))
                leaked += abs(evaluate(c, bad).value) ** 2
                leaked += abs(amplitude_canonical(c, bad)) ** 2
    elapsed = time.monotonic() - t0
    verdict(3, worst_good <= TOL and leaked <= TOL and elapsed <= 1.0,
            f"branch error {worst_good:.3e}, leakage {leaked:.3e}, {elapsed:.2f}s")


def test_criterion_4_superdense():
    c = parse_circuit(SUPERDENSE_TEXT)
    worst = 0.0
    for m1 in (0, 1):
        for m2 in (0, 1):
            q = BoundaryAssignment({"b10": m1, "b20": m2},
                                   {"b10": m1, "b20": m2, "d4": m2, "e2": m1})
            for amp in (evaluate(c, q).value, amplitude_canonical(c, q)):
                worst = max(worst, abs(abs(amp) ** 2 - 1.0))
    verdict(4, worst <= TOL, f"worst |p-1| = {worst:.3e}")


def test_criterion_5_rewrite_preservation():
    rng = random.Random(505)
    t0 = time.monotonic()
    circuits = []
    while len(circuits) < 30:
        c = random_circuit(rng)
        free = sum(1 for w in c.input_wires if w.in_value is None) + \
            sum(1 for w in c.output_wires if w.out_value is None)
        if free <= 3:
            circuits.append(c)
    worst = 0.0
    idempotent = True
    for c in circuits:
        for name, fn in PASSES.items():
            out, _ = fn(c)
            ok, dev = equivalent(c, out)
            worst = max(worst, dev)
        c1 = canonicalize(c)
        idempotent &= canonicalize(c1).structural_key() == c1.structural_key()
    elapsed = time.monotonic() - t0
    verdict(5, worst <= TOL and idempotent and elapsed <= 120.0,
            f"30 circuits x {len(PASSES)} passes, max |Δ| = {worst:.3e}, "
            f"idempotent={idempotent}, {elapsed:.1f}s")


def test_criterion_6_disjoint_gate_swaps():
    rng = random.Random(606)
    worst = 0.0
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        names = [f"q{i}" for i in range(n)]
        ops = list(random_ops(rng, names, g_max=8))
        pairs = [i for i in range(len(ops) - 1)
                 if not set(ops[i].qubits) & set(ops[i + 1].qubits)]
        if not pairs:
            continue
        i = rng.choice(pairs)
        swapped = ops[:]
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        lines = tuple(SeqLine(nm) for nm in names)
        a = lower_sequential(SeqDescription(lines, tuple(ops)))
        b = lower_sequential(SeqDescription(lines, tuple(swapped)))
        ok, dev = equivalent(a, b, rng=random.Random(done))
        worst = max(worst, dev)
        done += 1
    verdict(6, worst <= TOL, f"50 swaps, max |Δ| = {worst:.3e}")


def test_criterion_7_classical_pruning():
    rng = random.Random(707)
    pools = ["X", "CNOT", "TOFFOLI", "SWAP"]
    failures = []
    for trial in range(20):
        n = rng.randint(1, 4)
        names = [f"q{i}" for i in range(n)]
        bits = {nm: rng.getrandbits(1) for nm in names}
        ops = []
        for _ in range(rng.randint(1, 8)):
            g = rng.choice([p for p in pools
                            if len(BUILTIN[p].qubit_slots) <= n])
            qs = rng.sample(names, len(BUILTIN[g].qubit_slots))
            ops.append(SeqOp(BUILTIN[g], tuple(qs)))
        # classical forward evaluation gives the unique consistent output
        vals = dict(bits)
        for op in ops:
            qs = op.qubits
            if op.gate.name == "X":
                vals[qs[0]] ^= 1
            elif op.gate.name == "CNOT":
                vals[qs[1]] ^= vals[qs[0]]
            elif op.gate.name == "TOFFOLI":
                vals[qs[2]] ^= vals[qs[0]] & vals[qs[1]]
            else:
                vals[qs[0]], vals[qs[1]] = vals[qs[1]], vals[qs[0]]
        desc = SeqDescription(
            tuple(SeqLine(nm, in_value=bits[nm]) for nm in names), tuple(ops))
        c = lower_sequential(desc)
        # line names are two characters; the rest of a wire name is its cut index
        q = BoundaryAssignment(
            {}, {w.name: vals[w.name[:2]] for w in c.output_wires})
        got = evaluate(c, q).accepted
        # the parity form of the same netlist must prune identically
        got_canon = evaluate(canonicalize(c), q).accepted
        if got != 1 or got_canon != 1:
            failures.append((trial, got, got_canon))
    verdict(7, not failures, f"20 circuits, accepted counts {failures or 'all 1'}")


def test_criterion_8_interference_cancellation():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0 out=1\n"
                      "apply H a\napply H a\n")
    amp = evaluate(c, BoundaryAssignment()).value
    verdict(8, abs(amp) <= 1e-15, f"|A| = {abs(amp):.3e}")


def test_criterion_9_streaming_memory():
    def hline(k):
        ops = tuple(SeqOp(BUILTIN["H"], ("a",)) for _ in range(k))
        return lower_sequential(SeqDescription((SeqLine("a"),), ops))

    t0 = time.monotonic()
    small = hline(13)   # 12 internal wires
    big = hline(23)     # 22 internal wires, ~4.2M histories
    q_small = BoundaryAssignment({"a0": 0}, {"a13": 0})
    q_big = BoundaryAssignment({"a0": 0}, {"a23": 0})
    # both split at low 12: at most 2^12 lanes are held at once for w=12 and
    # for w=22 alike, so any allocation that grows with the history count
    # shows up in the ratio
    with memory_probe() as probe_small:
        evaluate_at(12, small, q_small, threads=1)
    with memory_probe() as probe_big:
        r = evaluate_at(12, big, q_big, threads=1)
    elapsed = time.monotonic() - t0
    # odd Hadamard count: the line is one Hadamard in the aggregate
    amp_ok = abs(r.value - 1 / math.sqrt(2)) < 1e-9
    ratio = probe_big.peak / probe_small.peak
    ok = (r.histories == 1 << 22 and amp_ok and ratio < 2.0
          and elapsed <= 180.0)
    verdict(9, ok, f"2^22 histories in {elapsed:.1f}s, peak {probe_big.peak} vs "
                   f"{probe_small.peak} bytes (x{ratio:.2f}) at 1024x the histories")


def test_criterion_10_distribution_normalization():
    rng = random.Random(101)  # the criterion-1 corpus
    worst = 0.0
    for _ in range(200):
        c = corpus_circuit(rng)
        ins = {w.name: rng.getrandbits(1) for w in c.input_wires}
        d = output_distribution(c, BoundaryAssignment(ins, {}))
        worst = max(worst, abs(d.total - 1.0))
    verdict(10, worst <= 1e-9, f"200 distributions, max |total-1| = {worst:.3e}")
