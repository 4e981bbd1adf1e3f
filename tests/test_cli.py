import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz import bernoulli, verify
from hurwitz.cli import BROKEN_PIPE, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCompute:
    def test_genocchi_rows(self, capsys):
        code, out = run(capsys, "compute", "--h", "1", "--k", "2", "--order", "8")
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["0", "1", "-1", "0", "1", "0", "-3", "0", "17"]

    def test_h_zero_all_zeros(self, capsys):
        code, out = run(capsys, "compute", "--h", "0", "--k", "5", "--order", "4")
        assert code == 0
        assert all(line.endswith("\t0") for line in out.strip().splitlines())

    def test_k_zero_usage_error(self, capsys):
        code, _ = run(capsys, "compute", "--h", "1", "--k", "0", "--order", "4")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "compute", "--h", "1", "--k", "2", "--order", "2",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "1,1"

    def test_route_both_agrees(self, capsys):
        code, out = run(
            capsys, "compute", "--h", "3", "--k", "-2", "--order", "10",
            "--route", "both",
        )
        assert code == 0
        for line in out.strip().splitlines():
            _, a, b = line.split("\t")
            assert a == b

    def test_route_both_agrees_at_high_order(self, capsys):
        # both kernels scale their terms by powers of h or k up to order 200
        code, out = run(
            capsys, "compute", "--h", "-16", "--k", "12", "--order", "200",
            "--route", "both",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 201
        for line in lines:
            _, a, b = line.split("\t")
            assert a == b

    def test_route_both_detects_injected_fault(self, capsys):
        code, _ = run(
            capsys, "compute", "--h", "1", "--k", "2", "--order", "8",
            "--route", "both", "--inject-fault", "4",
        )
        assert code == 1

    def test_negative_injected_fault_is_a_usage_error(self, capsys):
        # -2 used to corrupt coefficient order - 1 through a negative index
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--h", "1", "--k", "2", "--order", "4",
                  "--route", "both", "--inject-fault", "-2"])
        assert exc.value.code == 2
        assert "argument --inject-fault: must be >= 0, got -2" in capsys.readouterr().err

    def test_injected_fault_at_zero_is_detected(self, capsys):
        code, out = run(
            capsys, "compute", "--h", "1", "--k", "2", "--order", "4",
            "--route", "both", "--inject-fault", "0",
        )
        assert code == 1
        assert out.splitlines()[0] == "0\t1\t0"

    def test_determinism(self, capsys):
        _, first = run(capsys, "compute", "--h", "5", "--k", "3", "--order", "12")
        _, second = run(capsys, "compute", "--h", "5", "--k", "3", "--order", "12")
        assert first == second


class TestCertify:
    def test_certified(self, capsys):
        code, out = run(capsys, "certify", "--h", "1", "--k", "2", "--order", "12")
        assert code == 0
        assert out.strip().endswith("CERTIFIED")

    def test_negative_k(self, capsys):
        code, out = run(capsys, "certify", "--h", "7", "--k", "-3", "--order", "12")
        assert code == 0
        assert "CERTIFIED" in out

    def test_injected_fault_refutes(self, capsys):
        code, out = run(
            capsys, "certify", "--h", "1", "--k", "2", "--order", "8",
            "--inject-fault", "comp-inverse",
        )
        assert code == 1
        assert "comp-inverse: FAIL" in out
        assert out.strip().endswith("REFUTED")

    @pytest.mark.parametrize("order", ["1", "2", "12"])
    def test_each_injected_fault_is_the_last_line_before_refuted(self, capsys, order):
        for step in bernoulli.STEP_NAMES:
            code, out = run(
                capsys, "certify", "--h", "-5", "--k", "-4", "--order", order,
                "--inject-fault", step,
            )
            assert code == 1
            assert out.splitlines()[-2:] == [f"{step}: FAIL (mismatch)", "REFUTED"]


class TestTrees:
    def test_k2_values(self, capsys):
        code, out = run(capsys, "trees", "--k", "2", "--order", "5")
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["1", "2", "7", "36", "246"]

    def test_k1_values(self, capsys):
        code, out = run(capsys, "trees", "--k", "1", "--order", "4")
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["1", "1", "1", "1"]

    def test_oracle_match(self, capsys):
        code, out = run(capsys, "trees", "--k", "2", "--order", "5", "--oracle")
        assert code == 0
        for line in out.strip().splitlines():
            _, series, count = line.split("\t")
            assert series == count

    def test_oracle_past_order_8(self, capsys):
        code, out = run(capsys, "trees", "--k", "2", "--order", "9", "--oracle")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 9
        assert all(series == count for _, series, count in rows)

    def test_oracle_cap(self, capsys):
        assert main(["trees", "--k", "2", "--order", "13", "--oracle"]) == 2
        assert "--oracle is capped at order 12" in capsys.readouterr().err

    def test_oracle_requires_k2(self, capsys):
        code, _ = run(capsys, "trees", "--k", "3", "--order", "4", "--oracle")
        assert code == 2


class TestDrake:
    def test_low_order_polynomials(self, capsys):
        code, out = run(capsys, "drake", "--order", "2")
        assert code == 0
        assert out.splitlines() == ["n=1: 1", "n=2: -a1 - a2 - b1 - b2"]

    def test_check_closed_form(self, capsys):
        code, out = run(capsys, "drake", "--order", "6", "--check-closed-form")
        assert code == 0
        assert "closed-form: OK" in out

    def test_specialize_k2(self, capsys):
        code, out = run(capsys, "drake", "--order", "5", "--specialize", "k2")
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["1", "-2", "5", "-16", "64"]

    def test_order_cap(self, capsys):
        code, _ = run(capsys, "drake", "--order", "33")
        assert code == 2


class TestBFileCheck:
    def test_roundtrip_match(self, capsys, tmp_path):
        from hurwitz.bernoulli import m_series

        path = tmp_path / "b001469.txt"
        gf = m_series(1, 2, 10)
        path.write_text(
            "# local b-file\n"
            + "\n".join(f"{n} {gf[n]}" for n in range(11))
            + "\n"
        )
        code, out = run(
            capsys, "bfile-check", "--file", str(path), "--sequence", "am",
            "--h", "1", "--k", "2", "--order", "10",
        )
        assert code == 0
        assert "MATCH" in out

    def test_tree_sequence_with_offset(self, capsys, tmp_path):
        # A007889-style file: entry n counts alternating trees on n+1
        # vertices, i.e. series coefficient n
        path = tmp_path / "b007889.txt"
        path.write_text("1 1\n2 2\n3 7\n4 36\n")
        code, out = run(
            capsys, "bfile-check", "--file", str(path), "--sequence", "trees",
            "--k", "2", "--order", "4", "--offset-shift", "0",
        )
        assert code == 0

    def test_mismatch_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n2 999\n")
        code, out = run(
            capsys, "bfile-check", "--file", str(path), "--sequence", "trees",
            "--k", "2", "--order", "4",
        )
        assert code == 1
        assert "MISMATCH" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("2 5\n1 3\n")
        code, _ = run(
            capsys, "bfile-check", "--file", str(path), "--sequence", "trees",
            "--k", "2", "--order", "4",
        )
        assert code == 2

    def test_empty_overlap_is_a_usage_error(self, capsys, tmp_path):
        # no entry lands in coefficients 0..3, so nothing would be compared
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 2\n3 7\n")
        code = main([
            "bfile-check", "--file", str(path), "--sequence", "trees",
            "--order", "3", "--offset-shift", "50",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "MATCH" not in captured.out
        assert "--order" in captured.err and "--offset-shift" in captured.err

    def test_missing_file(self, capsys):
        code, _ = run(
            capsys, "bfile-check", "--file", "/nonexistent", "--sequence", "am",
            "--order", "4",
        )
        assert code == 2


class TestOrderValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trees", "--k", "2", "--order", "-2"],
            ["drake", "--order", "-1"],
            ["compute", "--h", "1", "--k", "2", "--order", "-1"],
            ["certify", "--h", "1", "--k", "2", "--order", "0"],
            ["bfile-check", "--file", "b.txt", "--sequence", "am", "--order", "-1"],
            ["bfile-check", "--file", "b.txt", "--sequence", "inv-tree", "--order", "0"],
            ["trees", "--k", "2", "--order", "two"],
        ],
    )
    def test_bad_order_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --order" in capsys.readouterr().err

    def test_order_zero_is_the_constant_term(self, capsys):
        code, out = run(capsys, "compute", "--h", "1", "--k", "2", "--order", "0")
        assert code == 0
        assert out == "0\t0\n"


class TestVerifyAll:
    def test_quick_passes(self, capsys):
        code, out = run(capsys, "verify-all", "--quick")
        assert code == 0
        assert "FAIL" not in out

    def test_failures_refute(self, capsys, monkeypatch):
        def raises():
            raise ArithmeticError("boom")

        checks = [("holds", lambda: True), ("fails", lambda: False), ("raises", raises)]
        monkeypatch.setattr(verify, "all_checks", lambda quick=False: checks)
        code, out = run(capsys, "verify-all")
        assert code == 1
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:3]] == [
            ["PASS", "holds"], ["FAIL", "fails"], ["FAIL", "raises"],
        ]
        assert "(error: boom)" in lines[2]
        assert lines[3:] == ["1/3 checks passed"]

    def test_quick_and_full_name_the_same_checks(self):
        names = [name for name, _ in verify.all_checks()]
        assert len(names) == 11
        assert [name for name, _ in verify.all_checks(quick=True)] == names

    def test_both_sizes_call_the_module_function(self, monkeypatch):
        # the registry reads the module's names on every call, so a wrapper
        # bound over a check function is what both sizes run
        calls = []
        monkeypatch.setattr(verify, "check_beta_identity", lambda *a: calls.append(a))
        for quick in (False, True):
            dict(verify.all_checks(quick))["beta-identity"]()
        assert calls == [(), (5, 6)]


def test_closed_stdout_ends_without_traceback():
    # 450 rows are more than a pipe holds, so the command is still writing
    # when the reader, like `| head -1`, closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "hurwitz.cli", "compute", "--h", "1", "--k", "2", "--order", "450"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.stdout.readline() == "0\t0\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == BROKEN_PIPE
    assert "Traceback" not in stderr
