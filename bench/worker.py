"""One benchmark pass in a fresh interpreter; `run.py` starts it.

The pass imports the program from `src/` of the checkout, builds the seeded
inputs, then calls `hammingsupport.cli.main` in-process for each job, one
after another, with the program's caches cold as in one CLI session.  It
checks every answer after the timed region and prints one JSON line.

Modes: `setup` stops once the inputs are written, `run` times the job list,
`trace` times it with spans around every layer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    import hammingsupport.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: hammingsupport imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), out.getvalue(), None
        except Exception as exc:  # an unexpected exception is a failed job
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def grade(jobs, results) -> tuple[dict, dict]:
    """Failure reason per failed job, and rank tests per search instance."""
    failures, rank_tests = {}, {}
    for job, (rc, out, exc) in zip(jobs, results):
        try:
            reason = exc or job.check(rc, out)
        except Exception as err:  # a malformed answer is a failed job
            reason = f"unreadable answer: {type(err).__name__}: {err}"
        if reason:
            failures[job.tag] = reason
        elif job.tag.startswith("minsupport."):
            rank_tests[job.tag.split(".", 1)[1]] = json.loads(out)["subsets_examined"]
    return failures, rank_tests


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spans", help="where a trace pass writes its spans")
    args = p.parse_args(argv)

    cli = import_program()
    import workloads

    os.makedirs(args.workdir)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0

        tracer = None
        if args.mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install("hammingsupport")
        results, job_s = [], {}
        start = time.perf_counter()
        for k, job in enumerate(jobs):
            if tracer:
                tracer.job = k
            t = time.perf_counter()
            results.append(run_job(cli, job.argv))
            job_s[job.tag] = time.perf_counter() - t
        wall_s = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failures, rank_tests = grade(jobs, results)
        report = {
            "ready": ready,
            "wall_s": wall_s,
            "rss_mb": rss_mb,
            "attempted": len(jobs),
            "failures": failures,
            "job_s": job_s,
            "rank_tests": rank_tests,
            "hgf_bytes": sum(os.path.getsize(f) for job in jobs for f in job.files
                             if os.path.exists(f)),
        }
        if tracer:
            from spans import summarize

            report["layers"] = summarize(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
