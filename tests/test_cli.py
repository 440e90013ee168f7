import csv
import hashlib
import importlib
import io
import json
import os
from decimal import Decimal
from fractions import Fraction

import pytest

from rootdensity import cli
from rootdensity.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def patch_scan(monkeypatch, replacement):
    """Replace `scan` where the CLI looks it up when a command runs: in the
    submodule, as the package attribute `scan` is the function."""
    monkeypatch.setattr(importlib.import_module("rootdensity.scan"), "scan", replacement)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestDensityCommand:
    def test_single_class(self, capsys):
        code, out, _ = run_cli(capsys, "density", "-g", "2", "-f", "28", "-a", "3", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["coefficient"] == "7/82"
        assert rows[0]["method"] == "closed"

    def test_trivial_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "density", "-g", "2", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["coefficient"] == "1"
        assert rows[0]["numeric"].startswith("0.373955813619")

    def test_square_base_rejected(self, capsys):
        code, _, err = run_cli(capsys, "density", "-g", "4", "-f", "3")
        assert code == 2
        assert "square" in err

    def test_non_coprime_class_rejected(self, capsys):
        code, _, err = run_cli(capsys, "density", "-g", "2", "-f", "28", "-a", "7")
        assert code == 2
        assert "coprime" in err

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "density", "-g", "2", "-f", "4", "--format", "csv")
        assert out.splitlines()[0] == "g,f,a,coefficient,numeric,method,value,error"

    def test_csv_json_identical_data(self, capsys):
        _, out_csv, _ = run_cli(capsys, "density", "-g", "2", "-f", "12", "--format", "csv")
        _, out_json, _ = run_cli(capsys, "density", "-g", "2", "-f", "12", "--format", "json")
        assert parse_csv(out_csv) == json.loads(out_json)

    def test_coefficient_string_roundtrips(self, capsys):
        _, out, _ = run_cli(capsys, "density", "-g", "-3", "-f", "40", "--format", "csv")
        for row in parse_csv(out):
            q = Fraction(row["coefficient"])
            assert str(q) == row["coefficient"]

    def test_v2_method_agrees(self, capsys):
        _, out1, _ = run_cli(capsys, "density", "-g", "6", "-f", "20", "--format", "csv")
        _, out2, _ = run_cli(capsys, "density", "-g", "6", "-f", "20", "--method", "closed_v2", "--format", "csv")
        rows1, rows2 = parse_csv(out1), parse_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert r1["coefficient"] == r2["coefficient"]
            assert r2["method"] == "closed_v2"

    def test_oversized_base_rejected(self, capsys):
        code, _, err = run_cli(capsys, "density", "-g", str(2**63 + 1), "-f", "4")
        assert code == 2
        assert "too large" in err

    def test_every_class_of_huge_modulus_rejected(self, capsys):
        # listing the classes of f = 10^12 would take hours
        code, _, err = run_cli(capsys, "density", "-g", "2", "-f", str(10**12))
        assert code == 2
        assert err.startswith("error:")

    def test_modulus_too_large_to_factor_rejected(self, capsys):
        for a in ("1", "5"):
            code, out, err = run_cli(capsys, "density", "-g", "8", "-f", str(3 * 2**64), "-a", a)
            assert code == 2 and out == ""
            assert f"modulus {3 * 2**64} rejected: f > 2**63 is too large to factor" in err

    def test_single_class_of_huge_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "density", "-g", "2", "-f", str(10**12), "-a", "1",
                               "--format", "csv")
        assert code == 0
        assert [r["a"] for r in parse_csv(out)] == ["1"]

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(capsys, "density", "-g", "2", "--digits", "30", "--format", "csv")
        assert parse_csv(out)[0]["numeric"] == "0.373955813619202288054728054346"

    def test_digits_out_of_range_is_one_line(self, capsys):
        for digits in ("0", "31", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["density", "-g", "2", "--digits", digits])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "[--digits 1..30]" in err  # the usage keeps the metavar
            assert [line for line in err.splitlines() if "error:" in line] == [
                "rootdensity density: error: argument --digits: "
                f"need an integer in 1..30, got '{digits}'"
            ]

    @pytest.mark.parametrize("argv,digest", [
        (["density", "-g", "-3", "-f", "5040", "--format", "csv"],
         "d24d0777b4b99676521e3d0ad848d976bdebbfdfec1cb701e1fb6daf34f2ed18"),
        # g = 21**7, the exceptional base
        (["density", "-g", "1801088541", "-f", "720", "--method", "closed_v2", "--format", "json"],
         "7c052d74e50559408681305d6c15291c738bf519aad624c23a3a61a7339e694d"),
    ])
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        # sha256 of stdout as the Fraction-chain closed forms printed it:
        # every coefficient string of 1152 and 192 classes, byte for byte
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_stdout_bytes_pinned(self, capsys):
        # sha256 of stdout as the per-term gcd bucket pass printed it: 192
        # classes, omega(840) = 4, and |b| = 1062347 and |delta| above N
        code, out, err = run_cli(
            capsys, "verify", "-g", "-223092870", "-f", "840", "-N", "200000",
            "-x", "100000", "--threads", "1", "--format", "csv",
        )
        assert code == 0, err
        digest = "ea65e2470ff73feb9e4fbedb178d7ba4999975f28ca45a7c9f3711b49fdb72ed"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_passes_on_small_scan(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "-g", "2", "-f", "4", "-N", "2000", "-x", "200000",
            "--threads", "1", "--tol", "0.02", "--format", "csv",
        )
        assert code == 0, err
        rows = parse_csv(out)
        assert len(rows) == 6  # 2 classes x 3 methods
        assert {r["method"] for r in rows} == {"closed", "series", "empirical"}

    def test_zero_class_flagged_clean(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "-g", "5", "-f", "5", "-x", "50000",
            "--threads", "1", "--format", "csv",
        )
        assert code == 0, err
        rows = parse_csv(out)
        zero_rows = [r for r in rows if r["coefficient"] == "0" and r["method"] == "empirical"]
        assert {r["a"] for r in zero_rows} == {"1", "4"}
        assert all(r["value"] == "0" for r in zero_rows)

    def test_fails_on_absurd_tolerance(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "-g", "2", "-f", "4", "-x", "50000",
            "--threads", "1", "--tol", "1e-9",
        )
        assert code == 1
        assert "FAIL" in err

    def test_non_coprime_class_rejected_before_scan(self, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scan ran before the class was validated")

        patch_scan(monkeypatch, no_scan)
        code, _, err = run_cli(capsys, "verify", "-g", "2", "-f", "4", "-a", "2", "--threads", "1")
        assert code == 2
        assert "coprime" in err

    def test_oversized_truncation_rejected_before_scan(self, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scan ran before N was validated")

        patch_scan(monkeypatch, no_scan)
        code, _, err = run_cli(
            capsys, "verify", "-g", "2", "-f", "4", "-N", str(10**8 + 1), "--threads", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bad_tolerance_rejected_before_scan(self, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scan ran before the tolerance was validated")

        patch_scan(monkeypatch, no_scan)
        for tol in ("nan", "-1"):
            code, out, err = run_cli(
                capsys, "verify", "-g", "2", "-f", "4", "--tol", tol, "--threads", "1",
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_coarse_truncation_still_passes(self, capsys):
        # N = 16 leaves a wide tail bound, which the check respects
        code, out, err = run_cli(
            capsys, "verify", "-g", "2", "-f", "1", "-N", "16", "-x", "100000",
            "--threads", "1", "--format", "csv",
        )
        assert code == 0, err
        series_row = [r for r in parse_csv(out) if r["method"] == "series"][0]
        assert float(series_row["error"]) > 0.5

    def test_series_error_not_below_tail_bound(self, capsys):
        # g = 8 has h = 3: the tail bound at N = 10^4 is 3 * sqrt(8) / 100 = 0.0848...
        from rootdensity import Progression, series_truncated

        tail_bound = series_truncated(Progression(1, 1), 8, 10**4).tail_bound
        for digits in (1, 2, 3, 7, 12):
            _, out, _ = run_cli(
                capsys, "verify", "-g", "8", "-f", "1", "-N", "10000", "-x", "10000",
                "--digits", str(digits), "--tol", "1", "--threads", "1", "--format", "csv",
            )
            series_row = [r for r in parse_csv(out) if r["method"] == "series"][0]
            assert Decimal(series_row["error"]) >= tail_bound, digits
            if digits == 1:
                assert series_row["error"] == "0.09"


class TestClassifyCommand:
    def test_base_two_wud_set(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "-g", "2", "--fmax", "8", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        wud = [int(r["f"]) for r in rows if r["is_wud"] == "true"]
        assert wud == [1, 2, 4]

    def test_base_three_wud_set(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "-g", "3", "--fmax", "2", "--format", "csv")
        assert [r["is_wud"] for r in parse_csv(out)] == ["true", "true"]

    def test_exceptional_base(self, capsys):
        g = str(21**7)
        _, out, _ = run_cli(capsys, "classify", "-g", g, "--fmax", "12", "--format", "csv")
        rows = parse_csv(out)
        wud = [int(r["f"]) for r in rows if r["is_wud"] == "true"]
        assert wud == [1, 2, 3, 4, 6, 8, 9, 12]

    def test_zero_residues_column(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "-g", "2", "--fmax", "8", "--format", "csv")
        by_f = {int(r["f"]): r for r in parse_csv(out)}
        assert by_f[8]["zero_residues"] == "1;7"  # (8|1) = (8|7) = 1

    def test_rejects_bad_base(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "-g", "9", "--fmax", "4")
        assert code == 2

    def test_rejects_fmax_out_of_range(self, capsys):
        for fmax in ("1001", "0"):
            code, out, err = run_cli(capsys, "classify", "-g", "2", "--fmax", fmax)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_largest_fmax_accepted(self, capsys, monkeypatch):
        # the verdicts are stubbed: only the bound is under test here
        verdict = cli.wud_set(2, 1)
        reason = cli.zero_density(cli.Progression(1, 1), 2)
        monkeypatch.setattr(cli, "wud_set", lambda g, f: verdict)
        monkeypatch.setattr(cli, "zero_density", lambda prog, g: reason)
        code, out, _ = run_cli(capsys, "classify", "-g", "2", "--fmax", "1000", "--format", "csv")
        assert code == 0
        assert len(parse_csv(out)) == 1000


class TestScanCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "-g", "2", "-f", "4", "-x", "100000",
            "--threads", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "a,primes_in_class,hits,observed,predicted,abs_error"
        rows = parse_csv(out)
        assert [r["a"] for r in rows] == ["1", "3"]
        for r in rows:
            assert float(r["abs_error"]) <= 0.02

    def test_csv_json_identical_data(self, capsys):
        args = ("scan", "-g", "3", "-f", "5", "-x", "20000", "--threads", "1")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        assert parse_csv(out_csv) == json.loads(out_json)

    def test_deterministic_across_threads(self, capsys):
        args = ("scan", "-g", "2", "-f", "5", "-x", "100000", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args, "--threads", "1")
        _, out2, _ = run_cli(capsys, *args, "--threads", "2")
        assert out1 == out2

    def test_repeat_runs_identical(self, capsys):
        args = ("scan", "-g", "6", "-f", "7", "-x", "30000", "--threads", "1", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_oversized_modulus_rejected(self, capsys):
        for f in (10**6 + 1, 2**63):
            code, _, err = run_cli(
                capsys, "scan", "-g", "2", "-f", str(f), "-x", "1000", "--threads", "1",
            )
            assert code == 2
            assert err.startswith("error:")

    def test_nonpositive_threads_rejected(self, capsys):
        for threads in ("0", "-1"):
            code, out, err = run_cli(
                capsys, "scan", "-g", "2", "-f", "4", "-x", "1000", "--threads", threads,
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_runs_without_sched_getaffinity(self, capsys, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        code, out, _ = run_cli(capsys, "density", "-g", "2", "-f", "4")
        assert code == 0
        assert out
        code, _, _ = run_cli(capsys, "scan", "-g", "2", "-f", "4", "-x", "1000")
        assert code == 0


@pytest.mark.parametrize("command", ["scan", "verify", "heuristic"])
def test_nonpositive_threads_named(capsys, monkeypatch, command):
    # checked before any work, in the flag's own terms
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran")

    patch_scan(monkeypatch, no_scan)
    for threads in ("0", "-1"):
        code, out, err = run_cli(
            capsys, command, "-g", "2", "-f", "4", "-x", "1000", "--threads", threads,
        )
        assert (code, out, err) == (2, "", f"error: need --threads >= 1, got {threads}\n")


class TestHeuristicCommand:
    def test_runs_and_tracks_main_term(self, capsys):
        code, out, _ = run_cli(
            capsys, "heuristic", "-g", "2", "-f", "4", "-x", "100000",
            "--threads", "1", "--format", "csv",
        )
        assert code == 0
        for row in parse_csv(out):
            assert row["method"] == "heuristic"
            value, error = float(row["value"]), float(row["error"])
            assert error <= 0.05 * value

    def test_non_coprime_class_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "heuristic", "-g", "2", "-f", "4", "-a", "2", "-x", "1000", "--threads", "1",
        )
        assert code == 2
        assert "coprime" in err

    def test_csv_json_identical_data(self, capsys):
        args = ("heuristic", "-g", "2", "-f", "1", "-x", "10000", "--threads", "1")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        assert parse_csv(out_csv) == json.loads(out_json)
