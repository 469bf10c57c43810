import json
import os
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
    assert got["internal_wires"] == "3" and got["histories"] == "8"


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
    # 3 internal wires and 3 free ends: 2^6 histories in all
    assert cli.main(["dist", teleport, "--in", "0--", "--max-wires", "5"]) == 4
    assert "3 free output ends and 3 internal wires" in capsys.readouterr().err
    assert cli.main(["dist", teleport, "--in", "0--", "--max-wires", "6"]) == 0
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


def test_bent_wire_runs_only_by_histories(tmp_path, capsys):
    p = tmp_path / "bent.circuit"
    p.write_text(EXAMPLES["bent-wire"])
    assert cli.main(["run", str(p)]) == 0
    assert float(kv(capsys)["amplitude_re"]) == 2.0
    rc = cli.main(["run", str(p), "--engine", "canonical"])
    assert rc == 3
    assert "no gate schedule" in capsys.readouterr().err


def test_guard_exit_code(teleport, capsys, monkeypatch):
    rc = cli.main(["run", teleport, "--in", "0--", "--out", "000",
                   "--max-wires", "2"])
    assert rc == 4
    monkeypatch.setenv("HISTQ_MAX_WIRES", "2")
    assert cli.main(["run", teleport, "--in", "0--", "--out", "000"]) == 4
    assert cli.main(["run", teleport, "--in", "0--", "--out", "000",
                     "--max-wires", "10"]) == 0


@pytest.mark.parametrize("cmd", [["run", "--engine", "canonical"], ["compare"]])
@pytest.mark.parametrize("n, limit, msg", [
    (9, 8, "9 qubits exceed the limit of 8"),   # the guard trips before any allocation
    (44, 50, "out of memory"),                  # 2^48 bytes exceed the address space
    (60, 62, "60 qubits exceed the limit of 58"),
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


# --threads is no longer a flag: argparse refuses it whatever its value,
# naming it in the error, so the old cases still hold.
@pytest.mark.parametrize("flag", ["--chunk-size", "--threads", "--max-wires"])
@pytest.mark.parametrize("value", ["-1", "0", "x"])
def test_engine_knobs_must_be_positive(teleport, capsys, flag, value):
    with pytest.raises(SystemExit) as ei:
        cli.main(["run", teleport, "--in", "0--", "--out", "000", flag, value])
    assert ei.value.code == 2
    assert flag in capsys.readouterr().err


def test_threads_flag_is_a_usage_error(teleport, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["run", teleport, "--in", "0--", "--out", "000", "--threads", "2"])
    assert ei.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_wires_env_is_usage_error(teleport, capsys, monkeypatch, value):
    monkeypatch.setenv("HISTQ_MAX_WIRES", value)
    assert cli.main(["run", teleport, "--in", "0--", "--out", "000"]) == 2
    assert "HISTQ_MAX_WIRES" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.circuit"
    p.write_text("version 1\nmode net\nwire a\ngate NOPE a\n")
    rc = cli.main(["run", str(p)])
    assert rc == 2
    assert "line 4" in capsys.readouterr().err


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


def test_rewrite_emit_stdout_splits_streams(teleport, capsys):
    rc = cli.main(["rewrite", teleport, "--emit", "--passes", "canonicalize"])
    assert rc == 0
    got = capsys.readouterr()
    assert got.out.startswith("version 1\nmode net\n")
    assert "pass=canonicalize" in got.err


def test_rewrite_unknown_pass(teleport, capsys):
    assert cli.main(["rewrite", teleport, "--passes", "zap"]) == 2
