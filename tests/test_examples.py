from itertools import product

import pytest

from histq import (BoundaryAssignment, NonSequential, amplitude_canonical,
                   classify_wires, evaluate, parse_circuit, validate)
from histq.examples import EXAMPLES, SUPERDENSE_TEXT, TELEPORTATION_TEXT


def test_examples_parse_clean():
    for name, text in EXAMPLES.items():
        c = parse_circuit(text)
        assert validate(c) == [], name


def test_teleportation_delivers_the_data_bit():
    c = parse_circuit(TELEPORTATION_TEXT)
    for x in (0, 1):
        for p in (0, 1):
            for q in (0, 1):
                good = BoundaryAssignment({"x0": x}, {"x1": p, "b2": q, "c3": x})
                bad = BoundaryAssignment({"x0": x}, {"x1": p, "b2": q, "c3": 1 - x})
                for amp in (evaluate(c, good).value, amplitude_canonical(c, good)):
                    assert abs(abs(amp) ** 2 - 0.25) < 1e-12
                for amp in (evaluate(c, bad).value, amplitude_canonical(c, bad)):
                    assert abs(amp) < 1e-12


def test_superdense_recovers_both_bits():
    c = parse_circuit(SUPERDENSE_TEXT)
    for m1 in (0, 1):
        for m2 in (0, 1):
            q = BoundaryAssignment(
                {"b10": m1, "b20": m2},
                {"b10": m1, "b20": m2, "d4": m2, "e2": m1})
            for amp in (evaluate(c, q).value, amplitude_canonical(c, q)):
                assert abs(abs(amp) ** 2 - 1.0) < 1e-12


def _decodes_all_messages(text: str) -> bool:
    """(d, e) read (b2, b1) with certainty for all four messages (b1, b2)."""
    c = parse_circuit(text)
    for b1, b2 in product((0, 1), repeat=2):
        q = BoundaryAssignment({"b10": b1, "b20": b2},
                               {"b10": b1, "b20": b2, "d4": b2, "e2": b1})
        if abs(abs(amplitude_canonical(c, q)) - 1.0) > 1e-12:
            return False
    return True


def test_superdense_encoding_is_the_first_that_decodes():
    # put each ordered pair of controlled gates from distinct message bits
    # onto d in the two encoding lines; the text's own pair decodes first
    lines = SUPERDENSE_TEXT.splitlines(keepends=True)
    own = ["apply CNOT b2 d\n", "apply CZ b1 d\n"]
    encoding = [lines.index(line) for line in own]
    singles = [f"apply {g} {ctl} d\n" for g in ("CNOT", "CZ") for ctl in ("b1", "b2")]
    for pair in product(singles, repeat=2):
        if pair[0].split()[2] == pair[1].split()[2]:
            continue
        for i, line in zip(encoding, pair):
            lines[i] = line
        if _decodes_all_messages("".join(lines)):
            assert list(pair) == own
            return
    pytest.fail("no two-gate encoding decodes all four messages")


def test_bent_wire_is_a_trace():
    c = parse_circuit(EXAMPLES["bent-wire"])
    # H then H around the loop: trace(HH) with two 1/sqrt(2) factors pending
    r = evaluate(c, BoundaryAssignment())
    assert r.value == 2.0
    assert r.amplitude.norm_exponent == 2
    with pytest.raises(NonSequential):
        amplitude_canonical(c, BoundaryAssignment())


def test_three_stage_wire_counts():
    full = parse_circuit(EXAMPLES["three-stage"])
    assert len(classify_wires(full)[0]) == 6
    middle = parse_circuit(EXAMPLES["three-stage-middle"])
    assert len(classify_wires(middle)[0]) == 4


def test_three_stage_variants_share_counting_only():
    # same wiring texture, different middle gate: both evaluate cleanly
    full = parse_circuit(EXAMPLES["three-stage"])
    q = BoundaryAssignment({"a0": 0, "b0": 0, "c0": 0},
                           {"a3": 0, "b3": 1, "c3": 1})
    r = evaluate(full, q)
    assert abs(r.value - 1.0) < 1e-12
    assert r.histories == 64
