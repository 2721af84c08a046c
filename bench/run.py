"""Benchmark of the hammingsupport CLI; see bench/README.md.

    python3 bench/run.py --workload {spectral,search,certify} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout that has `src/hammingsupport`.  Each
pass is a fresh single-threaded worker process (bench/worker.py) that calls
`hammingsupport.cli.main` for a fixed job list, one job after another.  Passes
repeat while the next one is expected to end within --seconds.  The last
line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from traced passes with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import SEARCH_INSTANCES, SPECTRAL_SIZES, UNPRUNED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# set-up is timed in extra passes that stop once the inputs are written
SETUP_ONLY_PASSES = 5
# a run that is still going after this long is stopped and fails
HARD_LIMIT_S = 170


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, deadline: float,
             spans: Path | None = None) -> dict:
    workdir = WORK / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["mode"] = mode
    report["setup_s"] = report["ready"] - t0
    report["pass_s"] = time.monotonic() - t0
    return report


def run_passes(workload, seed, seconds, prefix, cycle, spans=None) -> list[dict]:
    """The `prefix` passes once, then `cycle` while it is expected to end in `seconds`.

    The cycle runs at least once.
    """
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes = [run_pass(workload, seed, mode, deadline) for mode in prefix]
    while True:
        passes += [run_pass(workload, seed, mode, deadline, spans if mode == "trace" else None)
                   for mode in cycle]
        typical = sum(statistics.median(p["pass_s"] for p in passes if p["mode"] == mode)
                      for mode in cycle)
        if time.monotonic() - start + typical > seconds:
            return passes


def tally(passes: list[dict]) -> tuple[int, int, bool]:
    timed = [p for p in passes if p["mode"] != "setup"]
    attempted = sum(p["attempted"] for p in timed)
    failed = sum(len(p["failures"]) for p in timed)
    for p in timed:
        for tag, reason in p["failures"].items():
            print(f"FAILED {p['mode']} {tag}: {reason}", file=sys.stderr)
    # rank-test counts are deterministic: every pass must report the same ones
    counts = {json.dumps(p["rank_tests"], sort_keys=True) for p in timed}
    repeat = len(counts) == 1
    if not repeat:
        print(f"rank tests differ between passes: {sorted(counts)}", file=sys.stderr)
    return attempted, failed, repeat


def end_to_end(passes: list[dict]) -> dict:
    timed = [p for p in passes if p["mode"] == "run"]
    return {
        "wall_s": {"value": statistics.median(p["wall_s"] for p in timed), "unit": "s"},
        "setup_s": {"value": statistics.median(p["setup_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in timed), "unit": "MB"},
    }


def per_layer(passes: list[dict]) -> dict:
    plain = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]

    def med(values):
        return statistics.median(list(values))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(p["layers"]["self_s"][layer] for p in traced), "s")
    for layer in ("spectra", "characterize"):
        m[f"{layer}.calls"] = (traced[0]["layers"]["entries"].get(layer, 0), "count")
    for n, q, *_ in SPECTRAL_SIZES:
        m[f"spectra.ms_per_call.qn{q**n}"] = (
            med(p["layers"]["ms_per_entry"].get(f"spectra.{q**n}", 0.0) for p in traced), "ms")
    tests = plain[0]["rank_tests"]
    m["search.rank_tests"] = (sum(tests.values()), "count")
    names = [instance[0] for instance in SEARCH_INSTANCES]
    for name in names:
        m[f"search.rank_tests.{name}"] = (tests.get(name, 0), "count")
    for kind, names in (("pruned", set(names) - UNPRUNED), ("unpruned", UNPRUNED)):
        count = sum(tests.get(name, 0) for name in names)
        seconds = med(sum(p["job_s"].get(f"minsupport.{name}", 0.0) for name in names)
                      for p in plain)
        m[f"search.rank_tests_per_s.{kind}"] = (count / seconds if seconds else 0.0, "1/s")
    m["core.hgf_bytes"] = (plain[0]["hgf_bytes"], "bytes")
    m["trace.overhead_frac"] = (
        med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in plain) - 1, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hammingsupport" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'hammingsupport'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}.csv"
            passes = run_passes(args.workload, args.seed, args.seconds, (), ("run", "trace"),
                                spans)
            metrics = per_layer(passes)
        else:
            passes = run_passes(args.workload, args.seed, args.seconds,
                                ("setup",) * SETUP_ONLY_PASSES, ("run",))
            metrics = end_to_end(passes)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, repeat = tally(passes)
    print(json.dumps({"correct": failed == 0 and repeat, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
