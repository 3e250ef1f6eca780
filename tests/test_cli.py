"""Tests for the command-line front end (driven through main(argv))."""

import json
import math
import os
import subprocess
import sys

import pytest

from treecodes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pascal_output(capsys):
    code, out = run_cli(capsys, "pascal", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert lines[3] == "1 3 3 1"


def test_pascal_check_tns(capsys):
    code, out = run_cli(capsys, "pascal", "--n", "4", "--check-tns")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["tns"] is True and record["witness"] is None


def test_search_tns(capsys):
    code, out = run_cli(capsys, "search-tns", "--n", "2", "--bound", "1")
    assert code == 0
    assert out.strip().splitlines()[0] in ("1", "-1")


def test_encode_chs_has_no_seed(capsys):
    # The CLI builds RS level codes only, and they read no seed.
    assert main(["encode-chs", "--n", "100", "--seed", "7"]) == 1
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_encode_int_stream(tmp_path, capsys):
    inp = tmp_path / "vals.txt"
    inp.write_text("3\n1\n4\n")
    code, out = run_cli(capsys, "encode-int", "--input", str(inp))
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["a"] for r in records] == ["3", "1", "4"]
    # b_i = sum C(i, j) a_j with big ints as decimal strings.
    assert records[2]["b"] == str(3 + 2 * 1 + 4)


def test_encode_int_rejects_negative(tmp_path, capsys):
    inp = tmp_path / "vals.txt"
    inp.write_text("3\n-1\n")
    code, out = run_cli(capsys, "encode-int", "--input", str(inp))
    assert code != 0
    assert [json.loads(line)["a"] for line in out.strip().splitlines()] == ["3"]


def test_encode_chs_bits_and_hex_agree(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("10100111\n")
    hexf = tmp_path / "hex.txt"
    hexf.write_text("a7\n")
    code1, out1 = run_cli(capsys, "encode-chs", "--n", "100", "--input", str(bits))
    code2, out2 = run_cli(capsys, "encode-chs", "--n", "100", "--input", str(hexf))
    assert code1 == code2 == 0
    assert out1 == out2
    first = json.loads(out1.splitlines()[0])
    assert first["i"] == 1 and first["gamma_bits"] == 1


def test_encode_chs_below_the_first_lag(tmp_path, capsys):
    # n = 50 < a*s_min = 96: 50 records, the first 50 of the n = 96 run's.
    path = tmp_path / "bits.txt"
    path.write_text("0110" * 30 + "\n")
    code, out = run_cli(capsys, "encode-chs", "--n", "50", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert [json.loads(line)["i"] for line in lines] == list(range(1, 51))
    code, out96 = run_cli(capsys, "encode-chs", "--n", "96", "--input", str(path))
    assert code == 0 and out96.splitlines()[:50] == lines


def test_encode_chs_eta_raises_where_level_1_joins(tmp_path, capsys):
    # boosted_config(1/8) has no feasible level code at s = 16: the 15
    # window-only records are written, then one error line.
    path = tmp_path / "bits.txt"
    path.write_text("01" * 50 + "\n")
    code = main(["encode-chs", "--n", "100", "--eta", "1/8", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert [json.loads(line)["i"] for line in captured.out.splitlines()] == list(range(1, 16))
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("line", ["-1", "0x1f", "1_0", "+f", "10 01", "a5g"])
def test_encode_chs_refuses_lines_neither_bits_nor_hex(tmp_path, capsys, line):
    # int(line, 16) accepts the first four; each must end in one error line.
    path = tmp_path / "in.txt"
    path.write_text("1010\n%s\n" % line)
    code = main(["encode-chs", "--n", "100", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: input line %r is neither bits nor hex digits\n" % line


def test_schedule_table(capsys):
    code, out = run_cli(capsys, "schedule", "--n", "16384")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["g"] for r in rows] == [1, 2, 3, 4, 5]
    assert rows[0]["ell"] == 96 and rows[0]["s"] == 16


def test_ecc_build(capsys):
    code, out = run_cli(capsys, "ecc", "build", "--s", "8", "--delta", "1/4",
                        "--recipe", "rs")
    assert code == 0
    record = json.loads(out.strip())
    assert record["s"] == 8 and record["recipe"] == "rs"
    assert record["c_delta"] == record["outer"]["m"]


def test_ecc_build_prints_a_wide_code_without_its_rows(capsys):
    # The generator rows of this code would take about 4.7 GB.
    code, out = run_cli(capsys, "ecc", "build", "--s", "28812", "--delta", "1/4",
                        "--recipe", "rs")
    assert code == 0
    record = json.loads(out.strip())
    assert record["outer"] == {"m": 15, "k_msg": 5763, "n_code": 28812}


def test_encode_chs_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    # At n = 30,000 the s = 28,812 level's rows (about 4.7 GB) are built at
    # its first block end; here that build raises MemoryError at once.
    import treecodes.ecc as ecc

    real = ecc._build_rows_rs

    def no_room(params, input_bits):
        if params.n_code == 28812:
            raise MemoryError
        return real(params, input_bits)

    monkeypatch.setattr(ecc, "_build_rows_rs", no_room)
    bits = tmp_path / "bits.txt"
    bits.write_text("01" * 14406 + "\n")
    target = tmp_path / "out.ndjson"
    code = main(["--output", str(target), "encode-chs", "--n", "30000", "--input", str(bits)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the 86436 generator rows of the rs code at s=28812 do not fit in memory\n")
    lines = target.read_text().splitlines()
    assert len(lines) == 28811 and json.loads(lines[-1])["i"] == 28811


def test_ecc_build_infeasible(capsys):
    code, _ = run_cli(capsys, "ecc", "build", "--s", "8", "--delta", "1/2",
                      "--recipe", "concat")
    assert code == 1


def test_verify_singleton(capsys):
    code, out = run_cli(capsys, "verify", "--mode", "singleton", "--n", "4",
                        "--sigma", "2", "--gamma", "4")
    assert code == 0
    assert out.strip() == "3/4"


def test_verify_distance_report(capsys):
    code, out = run_cli(capsys, "verify", "--mode", "distance", "--nmax", "3")
    assert code == 0
    record = json.loads(out.strip())
    assert "/" in record["value"] or record["value"].isdigit()


def test_verify_claim_failure_exit_code(capsys):
    code, _ = run_cli(capsys, "verify", "--mode", "tilde", "--nmax", "4",
                      "--claim", "99/100")
    assert code == 2
    code, _ = run_cli(capsys, "verify", "--mode", "tilde", "--nmax", "4",
                      "--claim", "1/2")
    assert code == 0


def test_verify_over_budget_is_one_error_line(capsys):
    code = main(["verify", "--mode", "tilde", "--nmax", "20"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: 5230176600 vectors exceed budget 2000000\n"


@pytest.mark.parametrize("mode", ["distance", "tilde"])
def test_verify_nmax_zero_is_one_error_line(capsys, mode):
    code = main(["verify", "--mode", mode, "--nmax", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --nmax must be at least 1, got 0\n"


def test_verify_toeplitz_length_zero_is_one_error_line(capsys):
    # The scan finds no non-zero vector; this used to end in an
    # AttributeError traceback from the report writer.
    code = main(["verify", "--mode", "toeplitz", "--q", "4", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: no non-zero vector (k<=0 over F_4)\n"


def test_verify_lagged_runs_with_its_defaults(capsys):
    # --nmax defaults to the mode's smallest lag a*s = 8.
    code, out = run_cli(capsys, "verify", "--mode", "lagged")
    assert code == 0
    assert json.loads(out)["space"] == "lag in [8,8]"


def test_usage_error_exit_code(capsys):
    assert main(["bogus-subcommand"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["--output", str(target), "verify", "--mode", "singleton",
                 "--n", "4", "--sigma", "2", "--gamma", "4"])
    assert code == 0
    assert target.read_text().strip() == "3/4"
    capsys.readouterr()


def test_missing_input_file_is_one_error_line(tmp_path, capsys):
    code = main(["encode-chs", "--n", "100", "--input", str(tmp_path / "missing.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "missing.txt" in err


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "d" / "x"
    code = main(["--output", str(target), "schedule", "--n", "100"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_output_device_is_one_error_line(capsys):
    # Opening succeeds; the flush after each record fails, and so does the
    # flush when the file is closed.
    code = main(["--output", "/dev/full", "schedule", "--n", "100"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_closed_pipe_exits_quietly(tmp_path):
    # A reader that stops early (as `head -n 1` does) closes the pipe while
    # encode-chs is still writing: exit 0 and nothing on stderr.
    n = 16384
    bits = tmp_path / "bits.txt"
    bits.write_text("01" * (n // 2) + "\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "treecodes.cli", "encode-chs", "--n", str(n), "--input", str(bits)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert json.loads(first)["i"] == 1
    assert code == 0
    assert err == b""
