import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from hammingsupport import (
    GridFunction,
    a1,
    a3,
    build_F1,
    dumps_hgf,
    elementary,
    read_hgf,
    write_hgf,
)
from hammingsupport.cli import main, selfcheck_rows
import hammingsupport.cli as cli
import hammingsupport.claims as claims
import hammingsupport.spectra as spectra_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=60, preexec_fn=None):
    """The CLI in a fresh interpreter, so a slow run is cut at `timeout` seconds.

    `preexec_fn` runs in the child before the interpreter starts.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "hammingsupport.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn,
    )
    return done.returncode, done.stdout, done.stderr


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

    @pytest.mark.parametrize("factor", ["a1(1,x)", "a1()"])
    def test_bad_factor_parameter_named(self, capsys, factor):
        code, stdout, stderr = run(
            capsys, "gen", "--family", "f1", "--n", "2", "--q", "3",
            "--i", "1", "--j", "1", "--factors", factor,
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: bad factor {factor!r}: ")
        assert stderr.count("\n") == 1

    def test_missing_argument_exit_1(self, capsys):
        code, _, stderr = run(capsys, "gen", "--family", "f1", "--n", "2")
        assert code == 1

    F1 = ("--family", "f1", "--n", "2", "--q", "3", "--i", "1", "--j", "1")

    @pytest.mark.parametrize("argv, message", [
        ((*F1, "--c=1/0"), "bad rational '1/0'"),
        ((*F1, "--c=x"), "bad rational 'x'"),
        ((*F1, "--factors", "a1(2,2"), "bad factor 'a1(2,2'"),
        (("--family", "a1", "--k", "1", "--m", "1"), "--q is required for elementary factors"),
        (("--family", "a2", "--q", "3", "--k", "1"), "--k and --m are required for a2"),
        (("--family", "a4", "--q", "3"), "--m is required for a4"),
        (("--family", "counterexample-g"), "--q is required for counterexample-g"),
    ])
    def test_usage_error_gives_one_error_line(self, capsys, argv, message):
        code, stdout, stderr = run(capsys, "gen", *argv)
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag, value, text", [
        ("--max-subsets", "5", "inconclusive: minimum in [6, ?] after 5 rank tests\n"),
        ("--max-support", "3", "inconclusive: minimum in [4, ?] after 0 rank tests\n"),
    ])
    def test_inconclusive_text(self, capsys, flag, value, text):
        code, stdout, _ = run(
            capsys, "minsupport", "--n", "3", "--q", "3", "--lo", "2", "--hi", "2", flag, value
        )
        assert code == 2
        assert stdout == text

    def test_oversized_shape_rejected(self, capsys):
        # each is refused before anything of size q^n is built
        for argv in (
            ("--family", "f1", "--n", "40", "--q", "10", "--i", "1", "--j", "1"),
            ("--family", "f2", "--n", "17", "--q", "2", "--i", "9", "--j", "9"),
            ("--family", "a1", "--q", "100000000", "--k", "1", "--m", "1"),
            ("--family", "a4", "--q", "70000", "--m", "0"),
            ("--family", "counterexample-g", "--q", "300"),
        ):
            code, stdout, stderr = run(capsys, "gen", *argv)
            assert code == 1, argv
            assert stdout == ""
            assert stderr.startswith("error: q^n = ") and "vertex cap" in stderr
            assert stderr.count("\n") == 1


class TestVerify:
    def test_member_profile(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        run(capsys, "gen", "--family", "f1", "--n", "3", "--q", "3",
            "--i", "1", "--j", "1", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(capsys, "verify", str(path), "--lo", "1", "--hi", "1")
        assert code == 0
        assert "member of U_[1,1]: True" in stdout

    @pytest.mark.parametrize("bound", ["--lo", "--hi"])
    def test_one_bound_of_the_range_rejected(self, tmp_path, capsys, bound):
        # a lone --lo or --hi must not drop the membership question silently
        path = tmp_path / "f.hgf"
        path.write_text("1 3\n0 1\n")
        code, stdout, stderr = run(capsys, "verify", str(path), bound, "1")
        assert code == 1 and stdout == ""
        assert stderr == "error: verify needs both --lo and --hi, or neither\n"

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

    def test_one_coordinate_at_the_vertex_cap(self, tmp_path):
        # n = 1, q = 65536: uniformity compares each slice with slice 0
        # and the differing ones with each other, not every slice per symbol
        path = tmp_path / "big.hgf"
        nums = [(7 * x) % 5 - 2 for x in range(65536)]
        write_hgf(GridFunction(1, 65536, tuple(nums)), path)
        code, stdout, _ = run_process("verify", str(path), "--json")
        assert code == 0
        data = json.loads(stdout)
        assert (data["support"], data["uniform"], data["uniform_witnesses"]) == (
            sum(map(bool, nums)), False, [None])

    def test_zero_function_warning(self, tmp_path, capsys):
        path = tmp_path / "zero.hgf"
        path.write_text("2 3\n")
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "trivially in every subspace" in stdout

    def test_member_as_the_slice_descent(self, tmp_path, capsys):
        member = build_F1(3, 3, 1, 1, [a1(0, 2), a3()])
        values = list(member.values)
        values[0] += 1
        functions = [member, GridFunction(3, 3, tuple(values)), GridFunction(3, 3, (0,) * 27)]
        for t, f in enumerate(functions):
            path = tmp_path / f"{t}.hgf"
            write_hgf(f, path)
            for lo, hi in ((1, 1), (0, 1), (1, 3), (0, 3), (2, 2)):
                code, stdout, _ = run(capsys, "verify", str(path), "--lo", str(lo),
                                      "--hi", str(hi), "--json")
                assert code == 0
                assert json.loads(stdout)["member"] == spectra_module.in_direct_sum(f, lo, hi)

    def test_bad_range_gives_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "f.hgf"
        write_hgf(build_F1(3, 3, 1, 1), path)
        code, stdout, stderr = run(capsys, "verify", str(path), "--lo", "2", "--hi", "1")
        assert (code, stdout) == (1, "")
        assert stderr == "error: invalid eigenspace range [2, 1] for n = 3\n"

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.hgf"
        path.write_text("2 3\n0 1 1\n0 1 2\n")
        code, _, stderr = run(capsys, "verify", str(path))
        assert code == 1
        assert "line 3" in stderr

    @pytest.mark.parametrize(
        "data, start",
        [
            (b"2 3\n0 1 " + b"7" * 5000 + b"\n", "error: line 2: bad value '7777"),
            (b"2 3\n0 1 \xc3\xa9\n", "error: line 2: non-ASCII byte 0xc3"),
        ],
    )
    def test_bad_file_gives_one_short_error_line(self, tmp_path, capsys, data, start):
        path = tmp_path / "bad.hgf"
        path.write_bytes(data)
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert code == 1 and stdout == ""
        assert stderr.startswith(start)
        assert stderr.count("\n") == 1 and len(stderr) <= 200

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

    @pytest.mark.parametrize("family, bounds, expected, profiles", [
        ("sum", ["--lo", "0", "--hi", "3"], [0, 3], 0),
        ("sum", ["--lo", "0"], [0, 2], 1),
        ("sum", ["--hi", "3"], [1, 3], 1),
        ("sum", [], [1, 2], 1),
        ("zero", [], [0, 0], 1),
    ])
    def test_range_from_profile_only_when_a_bound_is_missing(
        self, tmp_path, capsys, monkeypatch, family, bounds, expected, profiles
    ):
        from hammingsupport import build_F2

        # profile (1, 2): an F1 member of U_1 plus an F2 member of U_2
        f = build_F1(3, 3, 1, 1) + build_F2(3, 3, 2, 2)
        path = tmp_path / "f.hgf"
        write_hgf(f if family == "sum" else GridFunction.zero(3, 3), path)
        calls = []
        profile = spectra_module.spectral_profile
        monkeypatch.setattr(
            spectra_module, "spectral_profile", lambda g: calls.append(g) or profile(g)
        )
        code, stdout, _ = run(capsys, "reduce", str(path), "--coord", "2", "--json", *bounds)
        assert code == 0
        assert json.loads(stdout)["range"] == expected
        assert len(calls) == profiles

    def test_text_report(self, tmp_path, capsys):
        path = tmp_path / "h.hgf"
        run(capsys, "gen", "--family", "counterexample-h", "-o", str(path))
        capsys.readouterr()
        code, stdout, _ = run(capsys, "reduce", str(path), "--coord", "1")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "slices at coordinate 1: supports [4, 2, 4, 2]"
        assert lines[1] == "range [2,2] descent checks (precondition ok):"
        assert lines[-1] == "slice inequality: not applicable (leading slices differ)"
        code, stdout, _ = run(capsys, "reduce", str(path), "--coord", "1", "--symbol", "0")
        assert code == 0
        assert stdout.splitlines()[-1] == (
            "vanishing-slices rule: precondition False, conclusion False"
        )

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

    def test_oversized_rejected(self, capsys):
        # 10^3000000 is never formed: q^n is checked against the bit cap first
        start = time.perf_counter()
        code, stdout, stderr = run(
            capsys, "bound", "--n", "3000000", "--q", "10", "--i", "0", "--j", "0"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: q^n = 10^3000000 exceeds 2^4096")
        assert stderr.count("\n") == 1


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

    def test_conclusive_text(self, capsys):
        code, stdout, _ = run(
            capsys, "minsupport", "--n", "2", "--q", "3", "--lo", "1", "--hi", "1"
        )
        assert code == 0
        assert stdout.splitlines() == ["minimum support in U_[1,1](2,3): 4", "rank tests: 11"]

    def test_budget_exit_code_2(self, capsys):
        code, stdout, _ = run(
            capsys, "minsupport", "--n", "3", "--q", "3", "--lo", "2", "--hi", "2",
            "--max-subsets", "5", "--json",
        )
        assert code == 2
        assert json.loads(stdout)["conclusive"] is False

    def test_oversized_shape_rejected(self, capsys):
        # 10^3000000 is never formed: the cap is checked one factor of q at a time
        code, stdout, stderr = run(
            capsys, "minsupport", "--n", "3000000", "--q", "10", "--lo", "0", "--hi", "0",
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: q^n = 10^3000000 exceeds the vertex cap 65536")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("n, q", [("-1", "3"), ("2", "1"), ("2", "0")])
    def test_bad_shape_rejected(self, capsys, n, q):
        code, stdout, stderr = run(
            capsys, "minsupport", "--n", n, "--q", q, "--lo", "0", "--hi", "0"
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--max-support", "--max-subsets"])
    def test_negative_budget_rejected(self, capsys, flag):
        code, stdout, stderr = run(
            capsys, "minsupport", "--n", "3", "--q", "3", "--lo", "2", "--hi", "2", flag, "-2"
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_large_symmetry_group_capped(self, capsys):
        # q = 2, n = 16: the pruning table keeps 16 of the 120 coordinate transpositions
        start = time.perf_counter()
        code, _, _ = run(
            capsys, "minsupport", "--n", "16", "--q", "2", "--lo", "1", "--hi", "1",
            "--max-subsets", "10",
        )
        assert code == 2
        assert time.perf_counter() - start < 15.0

    def test_out_of_memory_is_one_error_line(self):
        # at n = 16 the residue lists of the search outgrow a 150 MB address
        # space within seconds; that ends in one error line, not a traceback
        import resource

        def cap_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            limit = 150 * 2**20 if hard == resource.RLIM_INFINITY else min(150 * 2**20, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        code, stdout, stderr = run_process(
            "minsupport", "--n", "16", "--q", "2", "--lo", "1", "--hi", "1",
            "--max-subsets", "2000", timeout=120, preexec_fn=cap_address_space,
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "Traceback" not in stderr

    def test_one_coordinate_at_the_vertex_cap(self):
        # n = 1, q = 65536: the setup of a search, the fingerprint and the
        # allowed symbols per count, stays linear in q
        code, stdout, _ = run_process(
            "minsupport", "--n", "1", "--q", "65536", "--lo", "0", "--hi", "1", "--json"
        )
        assert code == 0
        assert json.loads(stdout) == {"minimum": 1, "lower": 1, "upper": 1, "conclusive": True,
                                      "subsets_examined": 1, "witness_support": 1}
        code, stdout, _ = run_process(
            "minsupport", "--n", "1", "--q", "65536", "--lo", "0", "--hi", "0",
            "--max-subsets", "10",
        )
        assert code == 2
        assert stdout == "inconclusive: minimum in [65536, ?] after 10 rank tests\n"

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


class TestParserReuse:
    """main builds its parser once per process; each call must act as if fresh."""

    @staticmethod
    def _call(argv):
        # new streams for every call, so output bound to an earlier stream shows
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_repeated_calls_match_fresh_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "f1.hgf"
        calls = [
            ("gen", "--family", "f1", "--n", "3", "--q", "3", "--i", "1", "--j", "1",
             "-o", str(path)),
            ("verify", str(path), "--lo", "1", "--hi", "1"),
            ("verify", str(path), "--lo", "one"),
            ("verify", str(path), "--json"),
        ]
        assert cli._build_parser() is cli._build_parser()
        reused = [self._call(argv) for argv in calls]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [self._call(argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 0]
        _, out, err = reused[2]
        assert out == "" and err.startswith("usage: hammingsupport verify")
        assert err.endswith("error: argument --lo: invalid int value: 'one'\n")
        assert json.loads(reused[3][1])["profile"] == [1]


class TestSelfcheck:
    def test_quick_all_pass(self, capsys):
        code, stdout, _ = run(capsys, "selfcheck", "--scale", "quick", "--json")
        assert code == 0
        rows = json.loads(stdout)
        assert rows and all(row["passed"] for row in rows)

    def test_scale_wiring(self, monkeypatch, capsys):
        # the claims themselves run at full scale in test_acceptance.py
        calls = []

        def recorder(name):
            return lambda rng, full: calls.append((name, full))

        stubs = tuple(replace(c, check=recorder(c.name)) for c in claims.CLAIMS)
        monkeypatch.setattr(claims, "CLAIMS", stubs)
        names = [c.name for c in stubs]
        assert len(names) == 14
        for scale, full, expected in (("full", True, names), ("quick", False, names[:11])):
            calls.clear()
            code, stdout, _ = run(capsys, "selfcheck", "--scale", scale, "--json")
            assert code == 0
            assert calls == [(name, full) for name in expected]
            rows = json.loads(stdout)
            assert [row["name"] for row in rows] == expected
            assert all(
                set(row) == {"name", "passed", "seconds", "detail"} and row["passed"]
                for row in rows
            )

    def test_failing_claim_exit_1(self, monkeypatch, capsys):
        def broken(rng, full):
            claims.require(False, "instance (2, 3, 1, 1)")

        def crashing(rng, full):
            raise RuntimeError("kernel vector is not in U_[2,2](3,3)")

        stubs = [replace(c, check=lambda rng, full: None) for c in claims.CLAIMS]
        stubs[3] = replace(stubs[3], check=broken)
        stubs[5] = replace(stubs[5], check=crashing)
        monkeypatch.setattr(claims, "CLAIMS", tuple(stubs))
        code, stdout, _ = run(capsys, "selfcheck")
        assert code == 1
        lines = stdout.splitlines()
        assert len(lines) == 11
        assert lines[3].startswith(stubs[3].name)
        assert lines[3].endswith("FAIL instance (2, 3, 1, 1)")
        # a library error fails its row and the battery goes on
        assert lines[5].endswith("FAIL RuntimeError: kernel vector is not in U_[2,2](3,3)")
        assert all(line.endswith("pass") for i, line in enumerate(lines) if i not in (3, 5))

    def test_tampered_library_fails(self, monkeypatch, capsys):
        # sanity of the harness: break one primitive, expect red rows
        monkeypatch.setattr(
            spectra_module, "is_eigenfunction", lambda f, i: False
        )
        rows = selfcheck_rows("quick")
        assert any(not passed for _, passed, _, _ in rows)

    def test_tampered_library_fails_under_optimize(self):
        # python -O strips assert statements; the claims must still fail
        script = (
            "import hammingsupport.spectra as spectra\n"
            "spectra.is_eigenfunction = lambda f, i: False\n"
            "from hammingsupport.cli import selfcheck_rows\n"
            "print(sum(not passed for _, passed, _, _ in selfcheck_rows('quick')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert int(done.stdout) > 0
