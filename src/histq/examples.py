"""Bundled example circuits.

Each example is kept only as circuit-file text (the same bytes the
``examples`` subcommand writes out); callers parse it, so the file format is
the single source of truth.
"""

from __future__ import annotations

# Coherent state transfer: lines b and c start in a Bell pair (first three
# gates), the trailing CZ and CNOT replay the usual corrections without
# measuring, so for any input on x the same state appears on c, and each
# (x, b) output pattern carries probability 1/4.
TELEPORTATION_TEXT = """\
version 1
mode seq
qubit x
qubit b in=0
qubit c in=0
apply H b
apply CNOT b c
apply CNOT b x
apply H b
apply CZ b c
apply CNOT x c
"""

# Two classical bits ride one shared Bell pair: after the middle two gates
# encode (b1, b2) and the pair is disentangled again, d reads b2 and e reads
# b1 with certainty.
SUPERDENSE_TEXT = """\
version 1
mode seq
qubit b1
qubit b2
qubit d in=0
qubit e in=0
apply H e
apply CNOT e d
apply CNOT b2 d
apply CZ b1 d
apply CNOT e d
apply H e
"""

# Two gates feeding each other: neither can run first, so there is no gate
# schedule at all — yet the history sum is perfectly well defined (it traces
# the loop; the value here is 2).
BENT_WIRE_TEXT = """\
version 1
mode net
wire m
wire n
gate H m n
gate H n m
"""


def _cycle_rows(k: int) -> list[str]:
    d = 2 ** k
    rows = []
    for r in range(d):
        rows.append(" ".join("1:0" if r == (col + 1) % d else "0:0" for col in range(d)))
    return rows

_CYCLE8 = "\n".join(_cycle_rows(3))

# Three gates on three lines where only the middle line is cut twice: the
# outer permutations hand a and c straight through to each other, so just
# four wires stay internal (16 histories).
THREE_STAGE_MIDDLE_TEXT = f"""\
version 1
mode seq
matrix P3 3
{_CYCLE8}
qubit a
qubit b
qubit c
apply P3 a b c
apply H b
apply P3 a b c
"""

# The same skeleton with a third three-line permutation in the middle: every
# line is cut twice, six internal wires (64 histories).
THREE_STAGE_TEXT = f"""\
version 1
mode seq
matrix P3 3
{_CYCLE8}
qubit a
qubit b
qubit c
apply P3 a b c
apply P3 a b c
apply P3 a b c
"""

EXAMPLES = {
    "teleport": TELEPORTATION_TEXT,
    "superdense": SUPERDENSE_TEXT,
    "bent-wire": BENT_WIRE_TEXT,
    "three-stage": THREE_STAGE_TEXT,
    "three-stage-middle": THREE_STAGE_MIDDLE_TEXT,
}

