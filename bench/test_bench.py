"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads as wl  # noqa: E402
import run  # noqa: E402
from spans import summarize  # noqa: E402
from worker import grade, import_program, run_job  # noqa: E402


@pytest.mark.parametrize("n,q,lo,hi", [(2, 3, 0, 1), (3, 3, 1, 2), (2, 4, 1, 1), (3, 4, 2, 3)])
def test_dense_inputs_have_their_constructed_components(n, q, lo, hi):
    rng = random.Random(n * 100 + q * 10 + lo)
    member = wl.dense_function(rng, n, q, [rng.randint(lo, hi) for _ in range(3)])
    assert all(member.values)
    for w, comp in member.components.items():
        assert wl.annihilated(comp, n, q, w, w)
    assert wl.annihilated(member.values, n, q, lo, hi)
    outside = [w for w in range(n + 1) if not lo <= w <= hi]
    non = wl.dense_function(rng, n, q, [lo, rng.choice(outside)])
    assert not wl.annihilated(non.values, n, q, lo, hi)


@pytest.mark.parametrize("n,q,i,j", [(3, 3, 1, 1), (3, 4, 0, 2), (3, 4, 2, 2), (3, 5, 2, 3)])
def test_products_have_formula_support_and_lie_in_their_range(n, q, i, j):
    rng = random.Random(7)
    for _ in range(5):
        f = wl.realize(wl.random_factors(rng, n, q, i, j), q, -2)
        sigma = list(range(n))
        rng.shuffle(sigma)
        g = wl.permute(f, n, q, sigma)
        assert wl.support(g) == wl.formula_support(n, q, i, j)
        assert wl.annihilated(g, n, q, i, j)


def _run(jobs):
    cli = import_program()
    return [run_job(cli, job.argv) for job in jobs]


def test_one_wrong_answer_is_one_failure(tmp_path):
    jobs = wl.certify_jobs(5, str(tmp_path))
    results = _run(jobs)
    assert grade(jobs, results) == ({}, {})

    k = next(t for t, job in enumerate(jobs) if job.tag.startswith("characterize.perm."))
    rc, out, exc = results[k]
    wrong = out.replace('"status": "certified"', '"status": "not in family"')
    assert wrong != out
    failures, _ = grade(jobs, results[:k] + [(rc, wrong, exc)] + results[k + 1:])
    assert list(failures) == [jobs[k].tag]

    # a non-member that the program accepted is a failure too
    k = next(t for t, job in enumerate(jobs) if job.tag.startswith("characterize.perturbed."))
    failures, _ = grade(jobs, results[:k] + [(0, "{}", None)] + results[k + 1:])
    assert list(failures) == [jobs[k].tag]


def test_search_witness_is_checked_by_the_neighbor_oracle(tmp_path):
    jobs = [j for j in wl.search_jobs(0, str(tmp_path)) if j.tag.endswith(".3-3-2-2")]
    results = _run(jobs)
    failures, rank_tests = grade(jobs, results)
    assert failures == {} and list(rank_tests) == ["3-3-2-2"]

    witness = tmp_path / "witness-3-3-2-2.hgf"
    n, q, values = wl.read_hgf(str(witness))
    x = next(t for t, v in enumerate(values) if v)
    values[x] *= 2  # same support, no longer in U_2
    wl.write_hgf(str(witness), n, q, values)
    failures, _ = grade(jobs[:1], results[:1])
    assert "outside U_[2,2]" in failures["minsupport.3-3-2-2"]


def test_self_time_subtracts_children():
    spans = [
        ["cli", "main", 0.0, 10.0, -1, 0, 0],
        ["spectra", "in_direct_sum", 1.0, 5.0, 0, 0, 256],
        ["core", "GridFunction.__post_init__", 2.0, 3.0, 1, 0, 256],
        ["spectra", "validate_range", 6.0, 7.0, 0, 0, 0],
    ]
    out = summarize(spans)
    assert out["self_s"]["cli"] == 5.0
    assert out["self_s"]["spectra"] == 4.0
    assert out["self_s"]["core"] == 1.0
    assert out["entries"] == {"cli": 1, "spectra": 2, "core": 1}
    assert out["ms_per_entry"] == {"spectra.256": 4000.0, "core.256": 1000.0}


def test_tracer_wraps_every_binding_of_a_function():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import hammingsupport.cli as cli, hammingsupport.reduction as red\n"
        "import hammingsupport.spectra as sp, hammingsupport.core as core\n"
        "from spans import Tracer\n"
        "t = Tracer(); t.install('hammingsupport')\n"
        "assert red.in_direct_sum is sp.in_direct_sum and hasattr(sp.in_direct_sum, '__wrapped__')\n"
        "assert cli.read_hgf is core.read_hgf and hasattr(cli.read_hgf, '__wrapped__')\n"
        "cli.main(['bound', '--n', '3', '--q', '3', '--i', '1', '--j', '1', '--json'])\n"
        "print(sorted({s[0] for s in t.spans}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "['cli', 'constructions', 'core']"


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_file_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    plain = {"mode": "run", "wall_s": 2.0, "rss_mb": 9.0, "setup_s": 0.5, "hgf_bytes": 10,
             "rank_tests": {"3-3-2-2": 2611}, "job_s": {"minsupport.3-3-2-2": 0.25}}
    traced = {"mode": "trace", "wall_s": 2.2, "setup_s": 0.5,
              "layers": summarize([["cli", "main", 0.0, 1.0, -1, 0, 0]])}
    for kind, metrics in (("end_to_end", run.end_to_end([plain])),
                          ("per_layer", run.per_layer([plain, traced]))):
        assert [(m["name"], m["unit"]) for m in spec[kind]] == [
            (name, m["unit"]) for name, m in metrics.items()]
    assert run.per_layer([plain, traced])["search.rank_tests_per_s.pruned"]["value"] == 2611 / 0.25
