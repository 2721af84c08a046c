import json

from hammingsupport import (
    GridFunction,
    a1,
    build_F1,
    dumps_hgf,
    elementary,
    read_hgf,
    write_hgf,
)
from hammingsupport.cli import main, selfcheck_rows
import hammingsupport.spectra as spectra_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_f1_to_file(self, tmp_path, capsys):
        out = tmp_path / "f1.hgf"
        code, stdout, _ = run(
            capsys, "gen", "--family", "f1", "--n", "3", "--q", "3",
            "--i", "1", "--j", "1", "-o", str(out),
        )
        assert code == 0
        assert "support 12" in stdout
        assert "member of U_[1,1](3,3): True" in stdout
        f = read_hgf(out)
        assert f.support_size() == 12

    def test_f1_to_stdout(self, capsys):
        code, stdout, stderr = run(
            capsys, "gen", "--family", "f1", "--n", "2", "--q", "3",
            "--i", "0", "--j", "0",
        )
        assert code == 0
        assert stdout.startswith("2 3\n")
        assert "support 9" in stderr

    def test_counterexample_v(self, tmp_path, capsys):
        out = tmp_path / "v.hgf"
        code, stdout, _ = run(capsys, "gen", "--family", "counterexample-v", "-o", str(out))
        assert code == 0
        assert "support 6" in stdout
        assert read_hgf(out).support_size() == 6

    def test_elementary_matches_library(self, tmp_path, capsys):
        out = tmp_path / "a1.hgf"
        code, *_ = run(
            capsys, "gen", "--family", "a1", "--q", "3", "--k", "1", "--m", "1",
            "-o", str(out),
        )
        assert code == 0
        assert read_hgf(out) == elementary(a1(1, 1), 3)

    def test_explicit_factors_and_scalar(self, tmp_path, capsys):
        from fractions import Fraction

        out = tmp_path / "f.hgf"
        code, stdout, _ = run(
            capsys, "gen", "--family", "f2", "--n", "2", "--q", "4",
            "--i", "1", "--j", "2", "--factors", "a2(1,3);a4(0)", "--c=-3/2",
            "-o", str(out),
        )
        assert code == 0
        f = read_hgf(out)
        assert f((1, 0)) == Fraction(-3, 2)
        assert f((3, 0)) == Fraction(3, 2)
        assert f.support_size() == 2

    def test_a3_and_a4(self, tmp_path, capsys):
        out = tmp_path / "e.hgf"
        code, stdout, _ = run(capsys, "gen", "--family", "a3", "--q", "5", "-o", str(out))
        assert code == 0 and "support 5" in stdout
        code, stdout, _ = run(
            capsys, "gen", "--family", "a4", "--q", "4", "--m", "2", "-o", str(out)
        )
        assert code == 0 and "support 1" in stdout
        assert "member of U_[0,1](1,4): True" in stdout

    def test_regime_error_exit_1(self, capsys):
        code, _, stderr = run(
            capsys, "gen", "--family", "f1", "--n", "2", "--q", "3",
            "--i", "1", "--j", "2",
        )
        assert code == 1
        assert "error" in stderr

    def test_missing_argument_exit_1(self, capsys):
        code, _, stderr = run(capsys, "gen", "--family", "f1", "--n", "2")
        assert code == 1


class TestVerify:
    def test_member_profile(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        run(capsys, "gen", "--family", "f1", "--n", "3", "--q", "3",
            "--i", "1", "--j", "1", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", str(path), "--lo", "1", "--hi", "1")
        assert code == 0
        assert "member of U_[1,1]: True" in stdout

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        run(capsys, "gen", "--family", "counterexample-h", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        data = json.loads(stdout)
        assert data["support"] == 12
        assert data["profile"] == [2]
        assert data["uniform"] is False

    def test_perturbed_file_leaks_profile(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        run(capsys, "gen", "--family", "f1", "--n", "2", "--q", "3",
            "--i", "1", "--j", "1", "-o", str(path))
        capsys.readouterr()
        f = read_hgf(path)
        values = list(f.values)
        index = next(i for i, v in enumerate(values) if v)
        values[index] += 1
        write_hgf(GridFunction(2, 3, tuple(values)), path)
        code, stdout, _ = run(capsys, "verify", str(path), "--json")
        data = json.loads(stdout)
        assert set(data["profile"]) - {1}  # profile leaks outside [1,1]

    def test_zero_function_warning(self, tmp_path, capsys):
        path = tmp_path / "zero.hgf"
        path.write_text("2 3\n")
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "trivially in every subspace" in stdout

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.hgf"
        path.write_text("2 3\n0 1 1\n0 1 2\n")
        code, _, stderr = run(capsys, "verify", str(path))
        assert code == 1
        assert "line 3" in stderr

    def test_oversized_header_rejected(self, tmp_path, capsys):
        # 10^30 vertices overflows a list; 10^9 would allocate gigabytes;
        # 2^(10^9) must be rejected without forming the power
        for header in ("30 10", "9 10", "1000000000 2"):
            path = tmp_path / "big.hgf"
            path.write_text(header + "\n")
            code, _, stderr = run(capsys, "verify", str(path), "--lo", "0", "--hi", "1")
            assert code == 1
            assert stderr.startswith("error: line 1:")
            assert "vertex cap" in stderr
            assert stderr.count("\n") == 1
            assert "Traceback" not in stderr


class TestProject:
    def test_projection_round_trip(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        out = tmp_path / "p.hgf"
        path.write_text(dumps_hgf(GridFunction.constant(2, 3, 5)))
        code, *_ = run(capsys, "project", str(path), "--i", "0", "-o", str(out))
        assert code == 0
        assert read_hgf(out) == GridFunction.constant(2, 3, 5)


class TestReduce:
    def test_descent_report(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        run(capsys, "gen", "--family", "f1", "--n", "3", "--q", "3",
            "--i", "1", "--j", "1", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(capsys, "reduce", str(path), "--coord", "1", "--json")
        assert code == 0
        data = json.loads(stdout)
        assert data["descent_precondition"] is True
        assert all(case["passed"] for case in data["descent_cases"])
        assert sum(data["slice_supports"]) == 12

    def test_vanishing_slices_flag(self, tmp_path, capsys):
        from hammingsupport import a4 as make_a4, build_F1, elementary

        path = tmp_path / "f.hgf"
        inner = build_F1(2, 3, 1, 1)
        write_hgf(inner.tensor(elementary(make_a4(2), 3)), path)
        code, stdout, _ = run(
            capsys, "reduce", str(path), "--coord", "3", "--lo", "1", "--hi", "2",
            "--symbol", "2", "--json",
        )
        assert code == 0
        data = json.loads(stdout)
        assert data["vanishing_slices"]["precondition"] is True
        assert data["vanishing_slices"]["conclusion"] is True
        assert data["vanishing_slices"]["nonzero_slices"] == [2]

    def test_coordinate_is_one_based(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        path.write_text(dumps_hgf(GridFunction.constant(2, 3, 1)))
        code, *_ = run(capsys, "reduce", str(path), "--coord", "2")
        assert code == 0
        code, _, stderr = run(capsys, "reduce", str(path), "--coord", "3")
        assert code == 1
        assert "out of range" in stderr


class TestBound:
    def test_text(self, capsys):
        code, stdout, _ = run(
            capsys, "bound", "--n", "3", "--q", "3", "--i", "2", "--j", "2"
        )
        assert code == 0
        assert "bound 8" in stdout
        assert "uniform-function bound: 12" in stdout

    def test_json(self, capsys):
        code, stdout, _ = run(
            capsys, "bound", "--n", "3", "--q", "4", "--i", "2", "--j", "2", "--json"
        )
        data = json.loads(stdout)
        assert data["value"] == 12 and data["valid"] is True


class TestMinsupport:
    def test_conclusive(self, tmp_path, capsys):
        witness = tmp_path / "w.hgf"
        code, stdout, _ = run(
            capsys, "minsupport", "--n", "2", "--q", "3", "--lo", "1", "--hi", "1",
            "--emit-witness", str(witness), "--json",
        )
        assert code == 0
        data = json.loads(stdout)
        assert data["minimum"] == 4 and data["conclusive"]
        assert read_hgf(witness).support_size() == 4

    def test_budget_exit_code_2(self, capsys):
        code, stdout, _ = run(
            capsys, "minsupport", "--n", "3", "--q", "3", "--lo", "2", "--hi", "2",
            "--max-subsets", "5", "--json",
        )
        assert code == 2
        assert json.loads(stdout)["conclusive"] is False

    def test_no_prune_same_answer(self, capsys):
        code, stdout, _ = run(
            capsys, "minsupport", "--n", "2", "--q", "3", "--lo", "1", "--hi", "1",
            "--no-prune", "--json",
        )
        assert code == 0
        assert json.loads(stdout)["minimum"] == 4


class TestCharacterize:
    def test_certified(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        run(capsys, "gen", "--family", "f2", "--n", "2", "--q", "5",
            "--i", "2", "--j", "2", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "characterize", str(path), "--lo", "2", "--hi", "2", "--json"
        )
        assert code == 0
        data = json.loads(stdout)
        assert data["status"] == "certified"
        assert data["certificate"]["family"] == "F2"
        assert data["meets_bound"] is True

    def test_h_not_in_family(self, tmp_path, capsys):
        path = tmp_path / "h.hgf"
        run(capsys, "gen", "--family", "counterexample-h", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(capsys, "characterize", str(path), "--lo", "2", "--hi", "2")
        assert code == 0
        assert "outside the product family" in stdout

    def test_sigma_cycle_notation(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        f = build_F1(3, 3, 1, 1).permute((2, 0, 1))
        write_hgf(f, path)
        code, stdout, _ = run(capsys, "characterize", str(path), "--lo", "1", "--hi", "1")
        assert code == 0
        assert "sigma = (" in stdout


class TestDeterminism:
    def test_identical_runs(self, capsys):
        args = ("minsupport", "--n", "2", "--q", "4", "--lo", "1", "--hi", "1", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_gen_round_trip_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.hgf", tmp_path / "b.hgf"
        for p in (p1, p2):
            run(capsys, "gen", "--family", "f1", "--n", "3", "--q", "4",
                "--i", "1", "--j", "2", "-o", str(p))
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_files_reparse_equal(self, tmp_path, capsys):
        path = tmp_path / "g.hgf"
        run(capsys, "gen", "--family", "counterexample-g", "--q", "5", "-o", str(path))
        f = read_hgf(path)
        write_hgf(f, path)
        assert read_hgf(path) == f


class TestSelfcheck:
    def test_quick_all_pass(self, capsys):
        code, stdout, _ = run(capsys, "selfcheck", "--scale", "quick", "--json")
        assert code == 0
        rows = json.loads(stdout)
        assert rows and all(row["passed"] for row in rows)

    def test_full_scale_all_pass(self, capsys):
        code, stdout, _ = run(capsys, "selfcheck", "--scale", "full", "--json")
        assert code == 0
        rows = json.loads(stdout)
        assert len(rows) > 11 and all(row["passed"] for row in rows)

    def test_tampered_library_fails(self, monkeypatch, capsys):
        # sanity of the harness: break one primitive, expect red rows
        monkeypatch.setattr(
            spectra_module, "is_eigenfunction", lambda f, i: False
        )
        rows = selfcheck_rows("quick")
        assert any(not passed for _, passed, _, _ in rows)
