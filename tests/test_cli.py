import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import histq
from histq import cli
from histq.examples import EXAMPLES, TELEPORTATION_TEXT


@pytest.fixture
def teleport(tmp_path):
    p = tmp_path / "teleport.circuit"
    p.write_text(TELEPORTATION_TEXT)
    return str(p)


def lines(capsys):
    out = capsys.readouterr().out
    return [ln for ln in out.splitlines() if ln]


def kv(capsys):
    return dict(ln.split("=", 1) for ln in lines(capsys))


def test_run_soh(teleport, capsys):
    rc = cli.main(["run", teleport, "--in", "1--", "--out", "001"])
    assert rc == 0
    got = kv(capsys)
    assert got["engine"] == "soh"
    assert abs(float(got["amplitude_re"])) == 0.5
    assert float(got["probability"]) == 0.25
    # the CZ taps b2 and c1 without cutting line c: internal wires b1, c1
    assert got["internal_wires"] == "2" and got["histories"] == "4"


def test_run_canonical_json(teleport, capsys):
    rc = cli.main(["run", teleport, "--engine", "canonical",
                   "--in", "0--", "--out", "110", "--json"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["engine"] == "canonical"
    assert isinstance(got["probability"], float)  # a number, not a string
    assert abs(got["probability"] - 0.25) < 1e-12


def test_run_dash_defers_to_file(teleport, capsys):
    # b0 and c0 are pinned in the file; dashes leave them alone
    rc = cli.main(["run", teleport, "--in", "1--", "--out", "011"])
    assert rc == 0
    assert float(kv(capsys)["probability"]) == 0.25


PINNED = ("version 1\nmode net\nwire a in=1 out=1\nwire b in=0\nwire c out\n"
          "gate CNOT a b c\n")


@pytest.mark.parametrize("argv, want", [
    (["run", "--in", "--", "--out", "-1"], "probability=1.0"),
    (["dist", "--in", "-0"], "1=1.0"),
    (["compare", "--in", "--", "--out", "-1"], "delta=0.0"),
])
def test_bits_may_start_with_dash(tmp_path, capsys, argv, want):
    p = tmp_path / "pinned.circuit"
    p.write_text(PINNED)
    assert cli.main([argv[0], str(p), *argv[1:]]) == 0
    assert want in lines(capsys)


def test_run_rejects_wrong_width(teleport, capsys):
    rc = cli.main(["run", teleport, "--in", "10", "--out", "000"])
    assert rc == 2
    assert "needs 3 characters" in capsys.readouterr().err
    assert cli.main(["run", teleport, "--in", "2--", "--out", "000"]) == 2
    assert "characters must be 0, 1 or -" in capsys.readouterr().err


def test_run_unbound_end(teleport, capsys):
    rc = cli.main(["run", teleport, "--in", "1--", "--out", "0-0"])
    assert rc == 2
    assert "b2:out" in capsys.readouterr().err


def test_dist(teleport, capsys):
    rc = cli.main(["dist", teleport, "--in", "0--"])
    assert rc == 0
    got = kv(capsys)
    assert got["ends"] == "x1,b2,c3"
    assert abs(float(got["total"]) - 1.0) < 1e-9
    assert abs(float(got["010"]) - 0.25) < 1e-12
    assert float(got["011"]) == 0.0


def test_dist_json(teleport, capsys):
    rc = cli.main(["dist", teleport, "--in", "1--", "--json"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["ends"] == ["x1", "b2", "c3"]
    assert abs(sum(got["probs"].values()) - 1.0) < 1e-9


def test_dist_guard_exit_code(teleport, capsys):
    # 2 internal wires and 3 free ends: 2^5 histories in all
    assert cli.main(["dist", teleport, "--in", "0--", "--max-wires", "4"]) == 4
    assert "3 free output ends and 2 internal wires" in capsys.readouterr().err
    assert cli.main(["dist", teleport, "--in", "0--", "--max-wires", "5"]) == 0
    # the dense engine pays for the 2^3 patterns only
    assert cli.main(["dist", teleport, "--in", "0--", "--engine", "canonical",
                     "--max-wires", "2"]) == 4
    capsys.readouterr()
    assert cli.main(["dist", teleport, "--in", "0--", "--engine", "canonical",
                     "--max-wires", "3"]) == 0


def test_dist_on_64_free_ends_exits_promptly(tmp_path):
    # 2^64 output patterns: the guard must refuse before enumerating any
    p = tmp_path / "wide.circuit"
    p.write_text("version 1\nmode net\n"
                 + "".join(f"wire q{i} in=0 out\n" for i in range(64)))
    src = str(Path(histq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "histq.cli", "dist", str(p), "--max-wires", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert "64 free output ends" in proc.stderr


def test_compare_agrees(teleport, capsys):
    rc = cli.main(["compare", teleport, "--in", "0--", "--out", "100"])
    assert rc == 0
    got = kv(capsys)
    assert float(got["delta"]) <= 1e-10


def test_compare_tolerance_gate(teleport, capsys, monkeypatch):
    # a dense engine that answers 2 (no amplitude does) disagrees, unless
    # the tolerance covers the whole gap
    monkeypatch.setattr(cli, "amplitude_canonical", lambda c, q, max_wires=None: 2.0)
    argv = ["compare", teleport, "--in", "0--", "--out", "100"]
    assert cli.main(argv) == 1
    assert cli.main(argv + ["--tol", "3"]) == 0


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "x"])
def test_compare_tolerance_must_be_finite_and_nonnegative(teleport, capsys, value):
    with pytest.raises(SystemExit) as ei:
        cli.main(["compare", teleport, "--in", "0--", "--out", "100", "--tol", value])
    assert ei.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_compare_on_huge_norm(tmp_path, capsys):
    # 2^(-K/2) underflows to zero; both engines must say so, not overflow
    p = tmp_path / "huge.circuit"
    p.write_text("version 1\nmode seq\nnorm " + "9" * 400 + "\nqubit a\napply H a\n")
    assert cli.main(["compare", str(p), "--in", "0", "--out", "0"]) == 0
    assert float(kv(capsys)["delta"]) == 0.0


def test_count_exact_line(tmp_path, capsys):
    p = tmp_path / "middle.circuit"
    p.write_text(EXAMPLES["three-stage-middle"])
    assert cli.main(["count", str(p)]) == 0
    assert capsys.readouterr().out == "internal_wires=4 histories=16\n"
    p2 = tmp_path / "full.circuit"
    p2.write_text(EXAMPLES["three-stage"])
    cli.main(["count", str(p2)])
    assert capsys.readouterr().out == "internal_wires=6 histories=64\n"
    with pytest.raises(SystemExit) as ei:   # count takes no query
        cli.main(["count", str(p2), "--in", "0"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --in 0" in capsys.readouterr().err


def test_count_of_x_chain_is_zero_wires(tmp_path, capsys):
    # X flips a complement instead of cutting: three of them leave one flip,
    # which becomes one real X between the line's two ends
    p = tmp_path / "xxx.circuit"
    p.write_text("version 1\nmode seq\nqubit a\n" + "apply X a\n" * 3)
    assert cli.main(["count", str(p)]) == 0
    assert capsys.readouterr().out == "internal_wires=0 histories=1\n"


SWAPPED = """\
version 1
mode seq
qubit a
qubit b in=0
qubit c
apply H a
apply SWAP a c
apply X b
apply SWAP b c
"""


@pytest.mark.parametrize("out, amplitude", [
    ("001", 0.5 ** 0.5), ("011", -0.5 ** 0.5), ("000", 0.0), ("101", 0.0), ("111", 0.0)])
def test_swap_keeps_bit_strings_bound_per_line(tmp_path, capsys, out, amplitude):
    # SWAP trades the lines' wires, yet --in and --out still give one bit per
    # line in line order: a ends with c's input, b with H of a's input, and
    # c with b's pinned 0 flipped
    p = tmp_path / "swap.circuit"
    p.write_text(SWAPPED)
    assert cli.main(["compare", str(p), "--in", "1-0", "--out", out]) == 0
    got = kv(capsys)
    assert float(got["soh_re"]) == pytest.approx(amplitude, abs=1e-15)
    assert float(got["delta"]) == 0.0


def test_bent_wire_runs_only_by_histories(tmp_path, capsys):
    p = tmp_path / "bent.circuit"
    p.write_text(EXAMPLES["bent-wire"])
    assert cli.main(["run", str(p)]) == 0
    assert float(kv(capsys)["amplitude_re"]) == 2.0
    rc = cli.main(["run", str(p), "--engine", "canonical"])
    assert rc == 3
    assert "no gate schedule" in capsys.readouterr().err
    for body, msg in [("gate CNOT a a b", "binds one qubit to two roles"),
                      ("phase pi a b", "binds symmetric legs to wire ends")]:
        p.write_text(f"version 1\nmode net\nwire a in\nwire b out\n{body}\n")
        assert cli.main(["compare", str(p), "--in", "0", "--out", "0"]) == 3
        assert msg in capsys.readouterr().err


def test_guard_exit_code(teleport, capsys, monkeypatch):
    # 2 internal wires: a limit of 1 trips the guard
    rc = cli.main(["run", teleport, "--in", "0--", "--out", "000",
                   "--max-wires", "1"])
    assert rc == 4
    monkeypatch.setenv("HISTQ_MAX_WIRES", "1")
    assert cli.main(["run", teleport, "--in", "0--", "--out", "000"]) == 4
    assert cli.main(["run", teleport, "--in", "0--", "--out", "000",
                     "--max-wires", "10"]) == 0


@pytest.mark.parametrize("cmd", [["run", "--engine", "canonical"], ["compare"]])
@pytest.mark.parametrize("n, limit, msg", [
    (9, 8, "9 qubits exceed the limit of 8"),   # the guard trips before any allocation
    (44, 50, "out of memory"),                  # 2^48 bytes exceed the address space
    (60, 62, "60 qubits exceed the hard limit of 58"),
])
def test_dense_engine_wire_guard(tmp_path, capsys, cmd, n, limit, msg):
    p = tmp_path / "lines.circuit"
    p.write_text("version 1\nmode seq\n" + "".join(f"qubit q{i}\n" for i in range(n))
                 + "apply H q0\n")
    bits = "0" * n
    rc = cli.main([cmd[0], str(p), *cmd[1:], "--in", bits, "--out", bits,
                   "--max-wires", str(limit)])
    assert rc == 4
    assert msg in capsys.readouterr().err


# --threads and --chunk-size are no longer flags: argparse refuses them
# whatever their value, naming them in the error, so the old cases still hold.
@pytest.mark.parametrize("flag", ["--chunk-size", "--threads", "--max-wires"])
@pytest.mark.parametrize("value", ["-1", "0", "x"])
def test_engine_knobs_must_be_positive(teleport, capsys, flag, value):
    with pytest.raises(SystemExit) as ei:
        cli.main(["run", teleport, "--in", "0--", "--out", "000", flag, value])
    assert ei.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--threads", "--chunk-size"])
@pytest.mark.parametrize("cmd", [["run", "--out", "000"], ["dist"], ["compare", "--out", "000"]],
                         ids=["run", "dist", "compare"])
def test_threads_flag_is_a_usage_error(teleport, capsys, cmd, flag):
    with pytest.raises(SystemExit) as ei:
        cli.main([cmd[0], teleport, "--in", "0--", *cmd[1:], flag, "4"])
    assert ei.value.code == 2
    assert flag in capsys.readouterr().err


def test_readme_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for p in subparsers.choices.values() for a in p._actions
                for opt in a.option_strings if opt.startswith("--")} - {"--help"}
    assert documented == accepted


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_wires_env_is_usage_error(teleport, capsys, monkeypatch, value):
    monkeypatch.setenv("HISTQ_MAX_WIRES", value)
    assert cli.main(["run", teleport, "--in", "0--", "--out", "000"]) == 2
    assert "HISTQ_MAX_WIRES" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["CNOT a a", "SWAP a a", "TOFFOLI a b a"])
@pytest.mark.parametrize("cmd", [["run", "--out", "00"], ["dist"], ["compare"]])
def test_gate_naming_a_line_twice_exit_code(tmp_path, capsys, op, cmd):
    p = tmp_path / "twice.circuit"
    p.write_text(f"version 1\nmode seq\nqubit a in=1\nqubit b\napply {op}\n")
    assert cli.main([cmd[0], str(p), *cmd[1:]]) == 2
    assert "names one line twice" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.circuit"
    p.write_text("version 1\nmode net\nwire a\ngate NOPE a\n")
    rc = cli.main(["run", str(p)])
    assert rc == 2
    assert "line 4" in capsys.readouterr().err
    # parses, but fails validate
    p.write_text("version 1\nmode net\nwire a in\nwire b\ngate X a b\ngate X a b\n")
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "wire a: more than one consumer" in err and "wire b: more than one producer" in err


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.circuit")]) == 2


def test_examples_listing(capsys):
    assert cli.main(["examples"]) == 0
    names = lines(capsys)
    assert "teleport" in names and "bent-wire" in names


def test_examples_writes_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["examples", "superdense"]) == 0
    assert "wrote superdense.circuit" in capsys.readouterr().out
    assert (tmp_path / "superdense.circuit").read_text() == EXAMPLES["superdense"]
    assert cli.main(["examples", "wrong-name"]) == 2


def test_rewrite_reports_and_emits(teleport, tmp_path, capsys):
    rc = cli.main(["rewrite", teleport])
    assert rc == 0
    out = lines(capsys)
    assert "pass=canonicalize changed=1" in out
    assert "pass=propagate changed=1" in out

    target = str(tmp_path / "out.circuit")
    rc = cli.main(["rewrite", teleport, "--emit", target])
    assert rc == 0
    assert f"wrote {target}" in lines(capsys)
    # the rewritten file loads and still delivers the data bit; the
    # parity netlist has no gate schedule, so only the history sum runs it
    rc = cli.main(["run", target, "--in", "1", "--out", "001"])
    assert rc == 0
    assert float(kv(capsys)["probability"]) == 0.25


def test_rewrite_emit_output_runs(tmp_path, capsys):
    # short-xor could merge m into q, leaving q two producers: the emitted
    # file then failed validate, and every command on it exited 2
    src = tmp_path / "merge.circuit"
    src.write_text("version 1\nmode net\nwire a in=1 out=1\nwire q in\nwire m\n"
                   "gate X q m\ngate XOR3 a q m\n")
    target = tmp_path / "out.circuit"
    assert cli.main(["rewrite", str(src), "--emit", str(target)]) == 0
    capsys.readouterr()
    assert cli.main(["count", str(target)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(target), "--in", "-1"]) == 0
    assert float(kv(capsys)["probability"]) == 1.0


def test_rewrite_emit_stdout_splits_streams(teleport, capsys):
    rc = cli.main(["rewrite", teleport, "--emit", "--passes", "canonicalize"])
    assert rc == 0
    got = capsys.readouterr()
    assert got.out.startswith("version 1\nmode net\n")
    assert "pass=canonicalize" in got.err


def test_rewrite_unknown_pass(teleport, capsys):
    assert cli.main(["rewrite", teleport, "--passes", "zap"]) == 2
