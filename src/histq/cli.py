"""Command-line front end.

Exit codes: 0 success, 1 the two engines disagree under ``compare``,
2 parse/validation/usage problems, 3 the circuit has no gate schedule where
one is required, 4 the internal-wire guard tripped or memory ran out.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .circuit import BoundaryAssignment, Circuit, classify_wires, validate
from .engine import evaluate, free_output_ends, output_distribution
from .errors import (InterfaceMismatch, MaxWiresExceeded, NonSequential,
                     ParseError, UnboundWire, ValidationError)
from .examples import EXAMPLES
from .parser import emit_circuit, parse_circuit
from .rewrite import DEFAULT_PASSES, apply_passes
from .statevector import amplitude_canonical

COMPARE_TOL = 1e-10
_BITS = re.compile(r"[01-]+")


def _load(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"cannot read {path}: not UTF-8 at byte {e.start}") from None
    c = parse_circuit(text)
    diags = validate(c)
    if diags:
        raise ValidationError(f"{path}: " + "; ".join(diags))
    return c


def _bits_for(kind: str, names: list[str], bits: str | None) -> dict[str, int]:
    if bits is None:
        return {}
    if len(bits) != len(names):
        raise ValidationError(
            f"--{kind} needs {len(names)} characters for ends "
            f"{','.join(names) or '(none)'}, got {len(bits)}")
    out = {}
    for ch, name in zip(bits, names):
        if ch in "01":
            out[name] = int(ch)
        elif ch != "-":
            raise ValidationError(f"--{kind} characters must be 0, 1 or -")
    return out


def _query(c: Circuit, in_bits: str | None, out_bits: str | None) -> BoundaryAssignment:
    return BoundaryAssignment(
        _bits_for("in", [w.name for w in c.input_wires], in_bits),
        _bits_for("out", [w.name for w in c.output_wires], out_bits))


def _emit_report(args, report: dict) -> None:
    if args.json:
        print(json.dumps(report))
    else:
        for k, v in report.items():
            print(f"{k}={v}")


def cmd_run(args) -> int:
    c = _load(args.file)
    q = _query(c, getattr(args, "in"), args.out)
    if args.engine == "canonical":
        a = amplitude_canonical(c, q, max_wires=args.max_wires)
        report = {"engine": "canonical",
                  "amplitude_re": a.real, "amplitude_im": a.imag,
                  "probability": abs(a) ** 2}
    else:
        r = evaluate(c, q, max_wires=args.max_wires)
        a = r.value
        report = {"engine": "soh",
                  "amplitude_re": a.real, "amplitude_im": a.imag,
                  "probability": abs(a) ** 2,
                  "norm_exponent": r.amplitude.norm_exponent,
                  "internal_wires": len(r.internal_wires),
                  "histories": r.histories, "accepted": r.accepted}
    _emit_report(args, report)
    return 0


def cmd_dist(args) -> int:
    c = _load(args.file)
    q = _query(c, getattr(args, "in"), None)
    d = output_distribution(c, q, engine=args.engine, max_wires=args.max_wires)
    free = free_output_ends(c, q)
    if args.json:
        print(json.dumps({"ends": free, "probs": d.probs, "total": d.total}))
    else:
        print(f"ends={','.join(free)}")
        for bits, p in d.probs.items():
            print(f"{bits}={p!r}")
        print(f"total={d.total!r}")
    return 0


def cmd_compare(args) -> int:
    c = _load(args.file)
    q = _query(c, getattr(args, "in"), args.out)
    soh = evaluate(c, q, max_wires=args.max_wires).value
    canonical = amplitude_canonical(c, q, max_wires=args.max_wires)
    delta = abs(soh - canonical)
    _emit_report(args, {
        "soh_re": soh.real, "soh_im": soh.imag,
        "canonical_re": canonical.real, "canonical_im": canonical.imag,
        "delta": delta})
    return 0 if delta <= args.tol else 1


def cmd_rewrite(args) -> int:
    c = _load(args.file)
    names = [p.strip() for p in args.passes.split(",") if p.strip()]
    try:
        out, reports = apply_passes(c, names)
    except ValueError as e:
        raise ValidationError(str(e)) from None
    lines = [line for r in reports for line in r.lines()]
    if args.emit == "-":
        print(emit_circuit(out), end="")
        for line in lines:
            print(line, file=sys.stderr)
    else:
        for line in lines:
            print(line)
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(emit_circuit(out))
            print(f"wrote {args.emit}")
    return 0


def cmd_count(args) -> int:
    c = _load(args.file)
    internal, _ = classify_wires(c)
    print(f"internal_wires={len(internal)} histories={2 ** len(internal)}")
    return 0


def cmd_examples(args) -> int:
    if not args.name:
        for name in EXAMPLES:
            print(name)
        return 0
    if args.name not in EXAMPLES:
        raise ValidationError(
            f"unknown example {args.name!r} (have: {', '.join(EXAMPLES)})")
    path = args.out or f"{args.name}.circuit"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EXAMPLES[args.name])
    print(f"wrote {path}")
    return 0


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return tol


def _add_engine_args(p: argparse.ArgumentParser, with_engine: bool = True):
    if with_engine:
        p.add_argument("--engine", choices=("soh", "canonical"), default="soh")
    p.add_argument("--max-wires", type=_positive_int, default=None,
                   help="internal-wire guard (default: HISTQ_MAX_WIRES or 40)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="histq",
        description="Evaluate circuit amplitudes by summing histories of wire bits.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one boundary amplitude")
    p.add_argument("file")
    p.add_argument("--in", default=None, metavar="BITS",
                   help="input-end bits in declaration order; - defers to the file")
    p.add_argument("--out", default=None, metavar="BITS")
    _add_engine_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("dist", help="probabilities of the free output ends")
    p.add_argument("file")
    p.add_argument("--in", default=None, metavar="BITS")
    _add_engine_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("compare", help="history sum against the dense simulator")
    p.add_argument("file")
    p.add_argument("--in", default=None, metavar="BITS")
    p.add_argument("--out", default=None, metavar="BITS")
    p.add_argument("--tol", type=_tolerance, default=COMPARE_TOL)
    _add_engine_args(p, with_engine=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("rewrite", help="apply rewrite passes")
    p.add_argument("file")
    p.add_argument("--passes", default=",".join(DEFAULT_PASSES),
                   help="comma-separated: canonicalize, drop-dead, short-xor, propagate")
    p.add_argument("--emit", nargs="?", const="-", default=None, metavar="PATH",
                   help="write the rewritten file (no PATH: to stdout)")
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("count", help="internal wires and history count")
    p.add_argument("file")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("examples", help="list or write bundled circuits")
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_examples)
    return ap


def _take_bits(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Take each ``--in BITS``/``--out BITS`` out of ``argv``: argparse would
    read bits that start with ``-`` as an option, and drop a bare ``--``."""
    rest, bits = [], {}
    for arg in argv:
        if rest and rest[-1] in ("--in", "--out") and _BITS.fullmatch(arg):
            bits[rest.pop()[2:]] = arg
        else:
            rest.append(arg)
    return rest, bits


def main(argv=None) -> int:
    ap = build_parser()
    rest, bits = _take_bits(sys.argv[1:] if argv is None else argv)
    args = ap.parse_args(rest)
    for name, value in bits.items():
        if not hasattr(args, name):
            ap.error(f"unrecognized arguments: --{name} {value}")
        setattr(args, name, value)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, UnboundWire, InterfaceMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonSequential as e:
        print(f"error: no gate schedule: {e}", file=sys.stderr)
        return 3
    except MaxWiresExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
