"""Seeded inputs for the benchmark: circuit files plus the operations run on them.

Everything here is a pure function of the workload name and the seed.
``write_inputs`` writes one circuit file per instance and a ``manifest.json``
holding the operation stream, so the same seed always gives byte-identical
inputs.  The program under test only ever sees these files and the query bit
strings.

Bit strings follow the command-line convention: one character per boundary
end in declaration order, ``-`` for an end the query leaves to the file (or,
for ``dist`` outputs, leaves free).  Qubit lines are named ``q<k>``, as in
the test suite.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from histq.examples import EXAMPLES

N_WIDE_LINES = 8
INTERFERENCE_W = 21
INTERFERENCE_PHASES = 40      # sized so each family takes about half the time
PRUNED_W = 25
PRUNED_H_SHARE = 0.5          # share of pruned-family gates that are H
WIDE_ROUNDS = 16              # one instance of each family per round

MQ_LINES = tuple(range(3, 11))
MQ_W = (2, 8, 14)             # one random circuit per (lines, w)
BUNDLED = {                   # name: (input bits, output bits) of its fixed query
    "teleport": ("1--", "001"),
    "superdense": ("10--", "1001"),
    "three-stage": ("000", "011"),
    "three-stage-middle": ("010", "010"),
}
# The exact probability of those queries.  Every workload warms up on these
# two circuits, written as warmup-<name>.circuit.
EXACT = {"teleport": 0.25, "superdense": 1.0}
# One pass queries every circuit the same number of times, in random order:
# twice by run, once each by compare and the command line, plus one dist per
# size in MQ_DIST_FREE.  dist leaves every output end free, on the w=2
# circuit with that many lines.
MQ_PASS = (("run", 2), ("compare", 1), ("cli", 1))
MQ_DIST_FREE = tuple(range(4, 11))
MQ_PASSES = 60
MQ_PASS_LEN = ((len(BUNDLED) + len(MQ_LINES) * len(MQ_W)) * sum(k for _, k in MQ_PASS)
               + len(MQ_DIST_FREE))

RW_ROUNDS = 12               # one round: RW_SMALL small instances, then 200 and 400 gates
RW_SMALL = 4
RW_LARGE = (200, 400)

ANGLES = ("pi/4", "pi/2", "-pi/4", "0.7", "-1.2")
ARITY = {"CNOT": 2, "CZ": 2, "SWAP": 2, "TOFFOLI": 3, "CCZ": 3}   # lines per gate; others take 1


def _lines(n: int) -> list[str]:
    return [f"q{i}" for i in range(n)]


def _text(lines: list[str], ops: list[str], pins: dict[str, int] | None = None) -> str:
    pins = pins or {}
    head = ["version 1", "mode seq"]
    head += [f"qubit {q} in={pins[q]}" if q in pins else f"qubit {q}" for q in lines]
    return "\n".join(head + ops) + "\n"


def _bits(rng: random.Random, n: int) -> str:
    return "".join(str(rng.getrandbits(1)) for _ in range(n))


def _phase(rng: random.Random, lines: list[str]) -> str:
    k = rng.randint(1, min(3, len(lines)))
    return f"phase {rng.choice(ANGLES)} " + " ".join(rng.sample(lines, k))


def _targets(rng: random.Random, lines: list[str], w: int) -> list[str]:
    """The line each gate cuts: every line once plus ``w`` more at random.

    A line cut k times has k+1 segments, of which the first and last touch
    the boundary, so this gives exactly ``w`` internal wires.
    """
    targets = lines + [rng.choice(lines) for _ in range(w)]
    rng.shuffle(targets)
    return targets


# ---------------------------------------------------------------------------
# wide-sum

def interference_circuit(rng: random.Random, w: int) -> str:
    """H gates and phase taps only: no tensor has a zero entry, so no lane is pruned."""
    lines = _lines(N_WIDE_LINES)
    ops = [f"apply H {t}" for t in _targets(rng, lines, w)]
    ops += [_phase(rng, lines) for _ in range(INTERFERENCE_PHASES)]
    rng.shuffle(ops)
    return _text(lines, ops)


def pruned_circuit(rng: random.Random, w: int) -> tuple[str, str, str]:
    """X, CNOT and TOFFOLI with some H: most histories hit a zero entry.

    Returns the file text and a query whose output pattern is reachable,
    found by following one random classical path through the gates.
    """
    lines = _lines(N_WIDE_LINES)
    in_bits = _bits(rng, N_WIDE_LINES)
    state = dict(zip(lines, map(int, in_bits)))
    ops = []
    for t in _targets(rng, lines, w):
        others = [q for q in lines if q != t]
        r = rng.random()
        if r < PRUNED_H_SHARE:
            ops.append(f"apply H {t}")
            state[t] = rng.getrandbits(1)
        elif r < PRUNED_H_SHARE + 0.1:
            ops.append(f"apply X {t}")
            state[t] ^= 1
        elif r < PRUNED_H_SHARE + 0.3:
            a = rng.choice(others)
            ops.append(f"apply CNOT {a} {t}")
            state[t] ^= state[a]
        else:
            a, b = rng.sample(others, 2)
            ops.append(f"apply TOFFOLI {a} {b} {t}")
            state[t] ^= state[a] & state[b]
    return _text(lines, ops), in_bits, "".join(str(state[q]) for q in lines)


def wide_sum(rng: random.Random) -> tuple[list[dict], list[dict]]:
    inst, ops = [], []
    for r in range(WIDE_ROUNDS):
        text = interference_circuit(rng, INTERFERENCE_W)
        ops.append(dict(inst=len(inst), op="interference",
                        ins=_bits(rng, N_WIDE_LINES), outs=_bits(rng, N_WIDE_LINES)))
        inst.append(dict(name=f"interference-{r:02d}", text=text))
        text, ins, outs = pruned_circuit(rng, PRUNED_W)
        ops.append(dict(inst=len(inst), op="pruned", ins=ins, outs=outs))
        inst.append(dict(name=f"pruned-{r:02d}", text=text))
    return inst, ops


# ---------------------------------------------------------------------------
# many-queries

# Gate kinds of the many-queries circuits, in a fixed cycle: a circuit with g
# gates takes the first g, so every circuit of one shape has the same mix.
MQ_KINDS = ("H", "CNOT", "X", "CZ", "S", "CNOT", "T", "TOFFOLI", "Y", "CZ", "Z", "CCZ")


def random_small_circuit(rng: random.Random, n: int, w: int) -> tuple[str, dict[str, int]]:
    """Mixed gates on ``n`` lines with exactly ``w`` internal wires.

    One gate per cut, so the circuit always has w+n gates, whose kinds are
    fixed by (n, w), plus n//2 phase taps.  Some inputs are pinned in the
    file; outputs are all left to the query.
    """
    lines = _lines(n)
    targets = _targets(rng, lines, w)
    kinds = [MQ_KINDS[k % len(MQ_KINDS)] for k in range(len(targets))]
    rng.shuffle(kinds)
    ops = []
    for t, kind in zip(targets, kinds):
        controls = rng.sample([q for q in lines if q != t], ARITY.get(kind, 1) - 1)
        ops.append(f"apply {kind} " + " ".join(controls + [t]))
    for _ in range(n // 2):
        ops.insert(rng.randint(0, len(ops)), _phase(rng, lines))
    pins = {q: rng.getrandbits(1) for q in lines if rng.random() < 0.3}
    return _text(lines, ops, pins), pins


def many_queries(rng: random.Random) -> tuple[list[dict], list[dict]]:
    inst = [dict(name=name, text=EXAMPLES[name]) for name in BUNDLED]
    shapes = {}                  # instance index -> (lines, pinned inputs) of a random circuit
    dist_circuit = {}            # lines -> instance index of its w=2 circuit
    for n in MQ_LINES:
        for w in MQ_W:
            text, pins = random_small_circuit(rng, n, w)
            shapes[len(inst)] = n, pins
            if w == MQ_W[0]:
                dist_circuit[n] = len(inst)
            inst.append(dict(name=f"random-{n}-{w:02d}", text=text))

    def query(i, op):
        if i not in shapes:
            ins, outs = BUNDLED[inst[i]["name"]]
            return dict(inst=i, op=op, ins=ins, outs=outs)
        n, pins = shapes[i]
        ins = "".join("-" if f"q{k}" in pins else str(rng.getrandbits(1)) for k in range(n))
        outs = "-" * n if op == "dist" else _bits(rng, n)
        return dict(inst=i, op=op, ins=ins, outs=outs)

    one_pass = [(i, op) for i in range(len(inst)) for op, k in MQ_PASS for _ in range(k)]
    one_pass += [(dist_circuit[n], "dist") for n in MQ_DIST_FREE]
    ops = []
    for _ in range(MQ_PASSES):
        rng.shuffle(one_pass)
        ops += [query(i, op) for i, op in one_pass]
    return inst, ops


# ---------------------------------------------------------------------------
# rewrite

# The large instances shuffle whole copies of this block, so every one has the
# same gate mix (and the same number of CNOTs, which the passes turn into
# parity gates); small instances draw from it.
RW_BLOCK = ("H", "X", "Y", "Z", "S", "T", "H", "X", "T",
            "CNOT", "CZ", "SWAP", "CNOT", "CZ", "SWAP", "CNOT",
            "TOFFOLI", "CCZ", "phase", "phase")


def rewrite_circuit(rng: random.Random, n: int, kinds: list[str]) -> str:
    """The given gates on random lines of ``n``, every input pinned, so
    constants abound."""
    lines = _lines(n)
    ops = [_phase(rng, lines) if k == "phase" else
           f"apply {k} " + " ".join(rng.sample(lines, ARITY.get(k, 1))) for k in kinds]
    return _text(lines, ops, {q: rng.getrandbits(1) for q in lines})


def rewrite(rng: random.Random) -> tuple[list[dict], list[dict]]:
    inst, ops = [], []
    for r in range(RW_ROUNDS):
        for s in range(RW_SMALL):
            kinds = rng.sample(RW_BLOCK, rng.randint(6, 16))
            ops.append(dict(inst=len(inst), op="small"))
            inst.append(dict(name=f"small-{r:02d}-{s}",
                             text=rewrite_circuit(rng, rng.randint(3, 4), kinds)))
        for g in RW_LARGE:
            kinds = list(RW_BLOCK) * (g // len(RW_BLOCK))
            rng.shuffle(kinds)
            ops.append(dict(inst=len(inst), op=f"rewrite{g}"))
            inst.append(dict(name=f"g{g}-{r:02d}", text=rewrite_circuit(rng, N_WIDE_LINES, kinds)))
    return inst, ops


GENERATORS = {"wide-sum": wide_sum, "many-queries": many_queries, "rewrite": rewrite}


def generate(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(instances, operations) for one workload; a string seed hashes the same
    in every process, and gives each workload its own stream."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def write_inputs(workload: str, seed: int, outdir: Path) -> Path:
    """Write one file per instance plus ``manifest.json``; return the manifest path."""
    outdir.mkdir(parents=True, exist_ok=True)
    instances, ops = generate(workload, seed)
    files = []
    for inst in instances:
        path = outdir / f"{inst['name']}.circuit"
        path.write_text(inst["text"], encoding="utf-8")
        files.append(path.name)
    for name in EXACT:
        (outdir / f"warmup-{name}.circuit").write_text(EXAMPLES[name], encoding="utf-8")
    mpath = outdir / "manifest.json"
    mpath.write_text(json.dumps(dict(workload=workload, seed=seed, files=files, ops=ops),
                                indent=0) + "\n", encoding="utf-8")
    return mpath
