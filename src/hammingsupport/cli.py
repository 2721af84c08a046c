"""Command-line front end.

Subcommands: gen, verify, project, reduce, bound, minsupport, characterize,
selfcheck.  Values print as exact fractions, coordinates are 1-based on the
command line (the Python API is 0-based), and --json switches the report
commands to machine-readable output.

selfcheck runs the claim battery of `hammingsupport.claims`, the same one
the acceptance tests run: --scale quick runs its quick claims at a
sub-second size, --scale full runs every claim at the acceptance scale.

Exit codes: 0 success/conclusive, 1 usage or regime error, 2 inconclusive
(search budget exhausted).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import cache

from . import characterize as chz
from . import constructions as cons
from . import reduction, search, spectra
from .core import GridFunction, dumps_hgf, read_hgf, validate_shape, write_hgf


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for budget stops
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"error: bad rational {text!r}") from None


def _parse_factor(text: str) -> cons.ElementaryFactor:
    text = text.strip()
    kind, paren, rest = text.partition("(")
    if paren and not rest.endswith(")"):
        raise SystemExit(f"error: bad factor {text!r}")
    try:
        params = tuple(int(p) for p in rest[:-1].split(",")) if paren else ()
        return cons.ElementaryFactor(kind.strip(), params)
    except ValueError as exc:
        raise SystemExit(f"error: bad factor {text!r}: {exc}") from None


def _cycles_one_based(sigma: tuple[int, ...]) -> str:
    seen = [False] * len(sigma)
    parts = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = sigma[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt]
        parts.append("(" + " ".join(str(c + 1) for c in cycle) + ")")
    return "".join(parts)


def _emit(f: GridFunction, out: str | None) -> None:
    if out:
        write_hgf(f, out)
    else:
        sys.stdout.write(dumps_hgf(f))


def _note(msg: str, to_stderr: bool) -> None:
    print(msg, file=sys.stderr if to_stderr else sys.stdout)


# -- gen -----------------------------------------------------------------


def _cmd_gen(args) -> int:
    family = args.family
    if family in ("f1", "f2"):
        for name in ("n", "q", "i", "j"):
            if getattr(args, name) is None:
                raise SystemExit(f"error: --{name} is required for {family}")
        validate_shape(args.n, args.q)
        factors = None
        if args.factors:
            factors = [_parse_factor(t) for t in args.factors.split(";") if t.strip()]
        c = _parse_fraction(args.c) if args.c else 1
        build = cons.build_F1 if family == "f1" else cons.build_F2
        f = build(args.n, args.q, args.i, args.j, factors, c)
        membership = (args.i, args.j)
    elif family in ("a1", "a2", "a3", "a4"):
        if args.q is None:
            raise SystemExit("error: --q is required for elementary factors")
        validate_shape(2 if family == "a1" else 1, args.q)
        params = ()
        if family in ("a1", "a2"):
            if args.k is None or args.m is None:
                raise SystemExit(f"error: --k and --m are required for {family}")
            params = (args.k, args.m)
        elif family == "a4":
            if args.m is None:
                raise SystemExit("error: --m is required for a4")
            params = (args.m,)
        f = cons.elementary(cons.ElementaryFactor(family, params), args.q)
        membership = {"a1": (1, 1), "a2": (1, 1), "a3": (0, 0), "a4": (0, 1)}[family]
    elif family == "counterexample-g":
        if args.q is None:
            raise SystemExit("error: --q is required for counterexample-g")
        validate_shape(2, args.q)
        f = cons.counterexample_g(args.q)
        membership = (1, 2)
    elif family == "counterexample-h":
        f = cons.counterexample_h()
        membership = (2, 2)
    else:  # counterexample-v
        f = cons.counterexample_v()
        membership = (2, 2)
    _emit(f, args.out)
    to_stderr = args.out is None
    _note(f"support {f.support_size()}", to_stderr)
    lo, hi = membership
    _note(
        f"member of U_[{lo},{hi}]({f.n},{f.q}): {spectra.in_direct_sum(f, lo, hi)}",
        to_stderr,
    )
    return 0


# -- verify ----------------------------------------------------------------


def _cmd_verify(args) -> int:
    if (args.lo is None) != (args.hi is None):
        raise SystemExit("error: verify needs both --lo and --hi, or neither")
    f = read_hgf(args.file)
    profile = spectra.spectral_profile(f)
    uniform = reduction.is_uniform(f) if f.n >= 1 else None
    report: dict = {
        "n": f.n,
        "q": f.q,
        "support": f.support_size(),
        "profile": list(profile),
    }
    if uniform is not None:
        report["uniform"] = uniform.uniform
        report["uniform_witnesses"] = list(uniform.witnesses)
    if args.lo is not None:
        # f lies in U_[lo,hi] exactly when its profile does
        spectra.validate_range(f.n, args.lo, args.hi)
        report["range"] = [args.lo, args.hi]
        report["member"] = all(args.lo <= w <= args.hi for w in profile)
    if f.is_zero():
        report["warning"] = "zero function: trivially in every subspace"
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"n={f.n} q={f.q} support={f.support_size()}")
    print("profile (nonzero projections):", " ".join(map(str, profile)) or "-")
    if uniform is not None:
        ws = " ".join("-" if w is None else str(w) for w in uniform.witnesses)
        print(f"uniform: {uniform.uniform} (exceptional symbols per coordinate: {ws})")
    if "member" in report:
        print(f"member of U_[{args.lo},{args.hi}]: {report['member']}")
    if "warning" in report:
        print(report["warning"])
    return 0


# -- project ---------------------------------------------------------------


def _cmd_project(args) -> int:
    f = read_hgf(args.file)
    _emit(spectra.project_eigenspace(f, args.i), args.out)
    return 0


# -- reduce ------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    f = read_hgf(args.file)
    r = args.coord - 1
    if not 0 <= r < f.n:
        raise SystemExit(f"error: coordinate {args.coord} out of range 1..{f.n}")
    parts = reduction.slice_lists(f.nums, f.n, f.q, r)
    lo, hi = args.lo, args.hi
    if lo is None or hi is None:
        profile = spectra.spectral_profile(f) or (0,)
        lo = profile[0] if lo is None else lo
        hi = profile[-1] if hi is None else hi
    descent = reduction.check_lemma_reduction(f, lo, hi, r)
    ineq = reduction.support_lower_bound_inequality(f, r)
    report: dict = {
        "coordinate": args.coord,
        "range": [lo, hi],
        "slice_supports": [len(p) - p.count(0) for p in parts],
        "descent_precondition": descent.precondition_ok,
        "descent_cases": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in descent.cases
        ],
        "slice_inequality": {
            "applicable": ineq.precondition_ok,
            "lhs": ineq.lhs,
            "rhs": ineq.rhs,
        },
    }
    if args.symbol is not None:
        van = reduction.check_lemma_vanishing_slices(f, lo, hi, r, args.symbol)
        report["vanishing_slices"] = {
            "precondition": van.precondition_ok,
            "nonzero_slices": list(van.nonzero_slices),
            "conclusion": van.conclusion_ok,
        }
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"slices at coordinate {args.coord}: supports", report["slice_supports"])
    print(f"range [{lo},{hi}] descent checks "
          f"(precondition {'ok' if descent.precondition_ok else 'FAILED'}):")
    for case in descent.cases:
        mark = "pass" if case.passed else f"FAIL ({case.detail})"
        print(f"  {case.name}: {mark}")
    if ineq.precondition_ok:
        print(f"slice inequality: |f| = {ineq.lhs} >= {ineq.rhs}")
    else:
        print("slice inequality: not applicable (leading slices differ)")
    if "vanishing_slices" in report:
        van = report["vanishing_slices"]
        print(
            f"vanishing-slices rule: precondition {van['precondition']}, "
            f"conclusion {van['conclusion']}"
        )
    return 0


# -- bound -------------------------------------------------------------------


def _cmd_bound(args) -> int:
    b = cons.min_support_bound(args.n, args.q, args.i, args.j)
    if args.json:
        print(
            json.dumps(
                {
                    "value": b.value,
                    "regime": b.regime.value,
                    "valid": b.valid,
                    "characterized": b.characterized,
                    "uniform_value": b.uniform_value,
                    "note": b.note,
                }
            )
        )
        return 0
    print(f"bound {b.value} ({b.regime.value})")
    print(f"valid at q={args.q}: {b.valid}; equality characterized: {b.characterized}")
    if b.uniform_value is not None:
        print(f"uniform-function bound: {b.uniform_value}")
    print(b.note)
    return 0


# -- minsupport ---------------------------------------------------------------


def _cmd_minsupport(args) -> int:
    budget = search.SearchBudget(
        max_support=args.max_support,
        max_subsets=args.max_subsets,
        symmetry_pruning=not args.no_prune,
    )
    report = search.find_minimum(args.n, args.q, args.lo, args.hi, budget)
    if args.emit_witness and report.witness is not None:
        write_hgf(report.witness, args.emit_witness)
    if args.json:
        print(
            json.dumps(
                {
                    "minimum": report.minimum,
                    "lower": report.lower,
                    "upper": report.upper,
                    "conclusive": report.conclusive,
                    "subsets_examined": report.subsets_examined,
                    "witness_support": (
                        None if report.witness is None else report.witness.support_size()
                    ),
                }
            )
        )
    elif report.conclusive:
        print(f"minimum support in U_[{args.lo},{args.hi}]({args.n},{args.q}): "
              f"{report.minimum}")
        print(f"rank tests: {report.subsets_examined}")
    else:
        print(f"inconclusive: minimum in [{report.lower}, ?] "
              f"after {report.subsets_examined} rank tests")
    return 0 if report.conclusive else 2


# -- characterize --------------------------------------------------------------


def _cmd_characterize(args) -> int:
    f = read_hgf(args.file)
    verdict = chz.is_minimum_and_characterized(f, args.lo, args.hi)
    fact = verdict.factorization
    if args.json:
        cert = None
        if fact.certificate is not None:
            cert = {
                "family": fact.certificate.family,
                "sigma": list(fact.certificate.sigma),
                "factors": [str(x) for x in fact.certificate.factors],
                "c": str(fact.certificate.c),
            }
        print(
            json.dumps(
                {
                    "support": verdict.support,
                    "bound": verdict.bound.value,
                    "meets_bound": verdict.meets_bound,
                    "status": fact.status.value,
                    "certificate": cert,
                    "summary": verdict.summary,
                }
            )
        )
        return 0
    print(verdict.summary)
    print(f"support {verdict.support}, formula value {verdict.bound.value} "
          f"({verdict.bound.regime.value}); {verdict.bound.note}")
    if fact.certificate is not None:
        cert = fact.certificate
        print(f"certificate: family {cert.family}, c = {cert.c}")
        print(f"  sigma = {_cycles_one_based(cert.sigma)}")
        print("  factors:", " ".join(str(x) for x in cert.factors))
    elif fact.reason:
        print(fact.reason)
    return 0


# -- selfcheck ------------------------------------------------------------------


def selfcheck_rows(scale: str = "quick"):
    """(name, passed, seconds, detail) per claim: quick claims at quick size,
    or every claim at the acceptance scale."""
    # imported here so that the other subcommands do not load the battery
    from . import claims

    full = scale == "full"
    rows = []
    for claim in claims.CLAIMS:
        if not (full or claim.quick):
            continue
        start = time.perf_counter()
        try:
            claim.check(random.Random(claims.SEED), full)
            passed, detail = True, ""
        except claims.ClaimFailure as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # a library error fails the row, not the run
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append((claim.name, passed, time.perf_counter() - start, detail))
    return rows


def _cmd_selfcheck(args) -> int:
    rows = selfcheck_rows(args.scale)
    if args.json:
        print(
            json.dumps(
                [
                    {"name": n, "passed": p, "seconds": round(t, 3), "detail": d}
                    for n, p, t, d in rows
                ]
            )
        )
    else:
        width = max(len(n) for n, *_ in rows)
        for name, passed, seconds, detail in rows:
            status = "pass" if passed else f"FAIL {detail}"
            print(f"{name:<{width}}  {seconds:7.2f}s  {status}")
    return 0 if all(p for _, p, _, _ in rows) else 1


# -- parser wiring --------------------------------------------------------


@cache
def _build_parser() -> _Parser:
    # built once per process: parsing leaves no state on the parser, and
    # usage errors look up sys.stderr when they are raised
    parser = _Parser(prog="hammingsupport")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a construction in HGF format")
    gen.add_argument(
        "--family",
        required=True,
        choices=[
            "f1", "f2", "a1", "a2", "a3", "a4",
            "counterexample-g", "counterexample-h", "counterexample-v",
        ],
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--i", type=int)
    gen.add_argument("--j", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--c", help="nonzero rational scalar, e.g. -3/2")
    gen.add_argument(
        "--factors", help="semicolon-separated factor list, e.g. 'a1(2,1);a3;a4(0)'"
    )
    gen.add_argument("-o", "--out")
    gen.set_defaults(fn=_cmd_gen)

    verify = sub.add_parser("verify", help="projection profile of an HGF file")
    verify.add_argument("file")
    verify.add_argument("--lo", type=int)
    verify.add_argument("--hi", type=int)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(fn=_cmd_verify)

    project = sub.add_parser("project", help="project onto one eigenspace")
    project.add_argument("file")
    project.add_argument("--i", type=int, required=True)
    project.add_argument("-o", "--out")
    project.set_defaults(fn=_cmd_project)

    reduce_p = sub.add_parser("reduce", help="slices and slice-rule reports")
    reduce_p.add_argument("file")
    reduce_p.add_argument("--coord", type=int, required=True, help="1-based coordinate")
    reduce_p.add_argument("--lo", type=int)
    reduce_p.add_argument("--hi", type=int)
    reduce_p.add_argument("--symbol", type=int, help="check the vanishing-slices rule")
    reduce_p.add_argument("--json", action="store_true")
    reduce_p.set_defaults(fn=_cmd_reduce)

    bound = sub.add_parser("bound", help="minimum-support formula and validity")
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--q", type=int, required=True)
    bound.add_argument("--i", type=int, required=True)
    bound.add_argument("--j", type=int, required=True)
    bound.add_argument("--json", action="store_true")
    bound.set_defaults(fn=_cmd_bound)

    mins = sub.add_parser("minsupport", help="exhaustive minimum-support search")
    mins.add_argument("--n", type=int, required=True)
    mins.add_argument("--q", type=int, required=True)
    mins.add_argument("--lo", type=int, required=True)
    mins.add_argument("--hi", type=int, required=True)
    mins.add_argument("--max-support", type=int)
    mins.add_argument("--max-subsets", type=int)
    mins.add_argument("--no-prune", action="store_true")
    mins.add_argument("--emit-witness")
    mins.add_argument("--json", action="store_true")
    mins.set_defaults(fn=_cmd_minsupport)

    char = sub.add_parser("characterize", help="minimality verdict and certificate")
    char.add_argument("file")
    char.add_argument("--lo", type=int, required=True)
    char.add_argument("--hi", type=int, required=True)
    char.add_argument("--json", action="store_true")
    char.set_defaults(fn=_cmd_characterize)

    self_p = sub.add_parser("selfcheck", help="re-verify the built-in claim battery")
    self_p.add_argument("--scale", choices=["quick", "full"], default="quick")
    self_p.add_argument("--json", action="store_true")
    self_p.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code is None else int(exc.code)
    except (ValueError, OSError) as exc:  # HGFError, RegimeError and ScaleError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
