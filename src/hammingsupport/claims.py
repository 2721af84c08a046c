"""The paper's claims, each stated once and checkable at two scales.

`CLAIMS` is the one claim battery.  `hammingsupport selfcheck --scale quick`
runs the quick claims with ``full=False``; ``--scale full`` and the
acceptance tests run every claim with ``full=True``, the scale the
acceptance battery states (for example 25 factor draws per (n,q,i,j), 200
random members per (n,q), 100 factorizer round-trips).

A check takes a seeded `random.Random` and the scale flag.  It fails through
`require`, which raises `ClaimFailure` naming the instance, so the checks
stay under ``python -O``.  Checks reach the library through module
attributes (``spectra.is_eigenfunction``), so a function patched on its
module is seen by every claim.  This module is also the one home of the
seeded random instance generators that the tests share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from . import characterize as chz
from . import constructions as cons
from . import reduction, search, spectra
from .core import GridFunction

SEED = 20240923


class ClaimFailure(Exception):
    """A claim does not hold; the message names the failing instance."""


def require(cond: bool, detail: str) -> None:
    """Raise ClaimFailure(detail) unless cond holds; kept under python -O."""
    if not cond:
        raise ClaimFailure(detail)


# -- seeded random instances -------------------------------------------------


def random_values(n, q, rng, low=-9, high=9) -> GridFunction:
    return GridFunction(n, q, [rng.randint(low, high) for _ in range(q**n)])


def random_member(n, q, lo, hi, rng) -> GridFunction:
    """A nonzero integer-valued member of U_[lo,hi](n,q)."""
    while True:
        f = spectra.project_span(random_values(n, q, rng), lo, hi).scale(q**n)
        if not f.is_zero():
            return f


def random_factors(n, q, i, j, rng):
    """One random factor per kind of the F1 template when i + j <= n, else of F2, in order."""
    out = []
    for kind in cons.family_template("F1" if i + j <= n else "F2", n, i, j):
        if kind == "a1":
            out.append(cons.a1(rng.randrange(q), rng.randrange(q)))
        elif kind == "a2":
            k = rng.randrange(q)
            m = rng.randrange(q - 1)
            out.append(cons.a2(k, m if m < k else m + 1))
        elif kind == "a3":
            out.append(cons.a3())
        else:
            out.append(cons.a4(rng.randrange(q)))
    return out


def random_family_instance(n, q, i, j, rng, c=1) -> GridFunction:
    """A random F1 product when i + j <= n, else a random F2 product."""
    build = cons.build_F1 if i + j <= n else cons.build_F2
    return build(n, q, i, j, random_factors(n, q, i, j, rng), c)


# -- the claims ----------------------------------------------------------------


def _elementary_memberships(rng, full):
    for q in range(2, 8):
        for k in range(q):
            for m in range(q):
                f = cons.elementary(cons.a1(k, m), q)
                ok = spectra.is_eigenfunction(f, 1) and f.support_size() == 2 * (q - 1)
                require(ok, f"a1({k},{m}) at q = {q}")
                if k != m:
                    g = cons.elementary(cons.a2(k, m), q)
                    ok = spectra.is_eigenfunction(g, 1) and g.support_size() == 2
                    require(ok, f"a2({k},{m}) at q = {q}")
        a3 = cons.elementary(cons.a3(), q)
        require(spectra.is_eigenfunction(a3, 0), f"a3 at q = {q}")
        for m in range(q):
            h = cons.elementary(cons.a4(m), q)
            ok = spectra.in_direct_sum(h, 0, 1) and h.support_size() == 1
            require(ok, f"a4({m}) at q = {q}")


def _family_constructions(rng, full):
    qs, n_max, draws = ((3, 4, 5), 4, 25) if full else ((3, 4), 3, 3)
    for q in qs:
        for n in range(1, n_max + 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    at = f"(n,q,i,j) = {(n, q, i, j)}"
                    size = cons.f1_support_size if i + j <= n else cons.f2_support_size
                    for _ in range(draws):
                        f = random_family_instance(n, q, i, j, rng)
                        require(f.support_size() == size(n, q, i, j), f"support at {at}")
                        require(spectra.in_direct_sum(f, i, j), f"membership at {at}")


def _projector_algebra(rng, full):
    if full:
        shapes = [(n, q) for q in (2, 3, 4, 5) for n in range(1, 5)]
    else:
        shapes = [(2, 3), (3, 3), (2, 4), (3, 4)]
    for n, q in shapes:
        at = f"(n,q) = {(n, q)}"
        f = random_values(n, q, rng)
        parts = spectra.decompose(f)
        require(sum(parts[1:], parts[0]) == f, f"sum of E_i f is not f at {at}")
        for i, part in enumerate(parts):
            require(spectra.is_eigenfunction(part, i), f"E_{i} f not in U_{i} at {at}")
            for j, piece in enumerate(spectra.decompose(part)):
                expected = part if j == i else GridFunction.zero(n, q)
                require(piece == expected, f"E_{j} E_{i} f at {at}")
            dim = spectra.eigenspace_dimension(n, q, i)
            ok = dim == comb(n, i) * (q - 1) ** i == spectra.krawtchouk(n, q, i, 0)
            require(ok, f"dim U_{i} at {at}")
        dims = sum(spectra.eigenspace_dimension(n, q, i) for i in range(n + 1))
        require(dims == q**n, f"dimensions do not sum to q^n at {at}")


def _slice_descent(rng, full):
    if full:
        shapes, rounds = [(n, q) for q in (2, 3, 4, 5) for n in (2, 3, 4)], 200
    else:
        shapes, rounds = [(2, 3), (3, 3), (2, 4), (3, 4)], 10
    for n, q in shapes:
        ranges = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
        for t in range(rounds):
            lo, hi = ranges[t % len(ranges)]
            r = t % n
            at = f"(n,q,lo,hi,r) = {(n, q, lo, hi, r)}"
            f = random_member(n, q, lo, hi, rng)
            report = reduction.check_lemma_reduction(f, lo, hi, r)
            require(report.passed, f"descent rules at {at}")
            ineq = reduction.support_lower_bound_inequality(f, r)
            require(not ineq.precondition_ok or ineq.passed, f"slice inequality at {at}")
        # the vanishing-slices rule on members with one nonzero last slice
        for lo in range(n):
            for hi in range(lo, n):
                m = rng.randrange(q)
                f = random_member(n - 1, q, lo, hi, rng).tensor(
                    cons.elementary(cons.a4(m), q)
                )
                report = reduction.check_lemma_vanishing_slices(f, lo, hi + 1, n - 1, m)
                require(report.passed, f"vanishing slices at {(n, q, lo, hi + 1, m)}")
        # random members rarely have equal leading slices; this one keeps
        # the slice inequality from passing vacuously
        inner = random_member(n - 1, q, 0, n - 1, rng)
        ineq = reduction.support_lower_bound_inequality(
            GridFunction.constant(1, q, 1).tensor(inner), 0
        )
        require(ineq.precondition_ok and ineq.passed, f"equal slices at (n,q) = {(n, q)}")


def _partition_and_uniformity(rng, full):
    if full:
        shapes = [(n, q) for q in (3, 4, 5) for n in range(1, 5)]
    else:
        shapes = [(2, 3), (3, 3), (3, 4)]
    for n, q in shapes:
        for i in range(n + 1):
            for j in range(i, n + 1):
                at = f"(n,q,i,j) = {(n, q, i, j)}"
                f = random_family_instance(n, q, i, j, rng)
                # F1 products are uniform; F2 products are not (their a2
                # coordinate has two distinct nonzero slices once q >= 3)
                uniform = reduction.is_uniform(f).uniform
                require(uniform == (i + j <= n), f"uniformity at {at}")
                if i + j == n:
                    bound = cons.uniform_support_bound(n, q, i, j)
                    require(f.support_size() == bound, f"F1 off the uniform bound at {at}")
                for r in range(n):
                    parts = reduction.slice_lists(f.nums, n, q, r)
                    total = sum(len(p) - p.count(0) for p in parts)
                    require(total == f.support_size(), f"slices at {r} at {at}")


def _verify_minimality(cases):
    """The formula bound is `value`, met by F1 or F2, and no search finds anything below it."""
    for n, q, lo, hi, value in cases:
        at = f"(n,q,lo,hi) = {(n, q, lo, hi)}"
        bound = cons.min_support_bound(n, q, lo, hi).value
        attained = (cons.build_F1 if lo + hi <= n else cons.build_F2)(n, q, lo, hi)
        support = attained.support_size()
        require(
            bound == value == support,
            f"bound {bound}, construction {support}, expected {value} at {at}",
        )
        require(spectra.in_direct_sum(attained, lo, hi), f"construction not a member at {at}")
        _require_nothing_below(n, q, lo, hi, value, at)


def _require_nothing_below(n, q, lo, hi, value, at):
    """The pruned search and the plain DFS both find nothing of support below `value`.

    The pruned search often rules every set out by `slice_lower` alone,
    with no rank test, so the plain DFS checks the claim without that bound.
    """
    for budget in (search.DEFAULT_BUDGET, search.SearchBudget(symmetry_pruning=False)):
        below = search.exists_with_support_at_most(n, q, lo, hi, value - 1, budget)
        found = below.witness.support_size() if below.witness else None
        kind = "pruned" if budget.symmetry_pruning else "plain"
        require(
            below.status is search.SearchStatus.EXHAUSTED,
            f"{kind} search {below.status.value} below {value}, witness support {found}, at {at}",
        )


def _minimality_small(rng, full):
    cases = [(2, 3, 1, 1, 4), (2, 3, 0, 1, 3), (2, 3, 1, 2, 2)]
    cases += [(1, q, 1, 1, 2) for q in (range(2, 8) if full else (3, 4, 5))]
    _verify_minimality(cases)


def _minimality_large(rng, full):
    _verify_minimality([(2, 4, 1, 1, 6), (3, 3, 0, 1, 9), (2, 5, 1, 1, 8)])


def _fixture_g(rng, full):
    for q in (4, 5, 6):
        g = cons.counterexample_g(q)
        require(g.support_size() == 2, f"support of g at q = {q}")
        require(spectra.in_direct_sum(g, 1, 2), f"g not in U_[1,2](2,{q})")
        left = cons.elementary(cons.a2(0, q - 1), q).tensor(cons.elementary(cons.a4(0), q))
        right = cons.elementary(cons.a4(q - 1), q).tensor(
            cons.elementary(cons.a2(0, q - 1), q)
        )
        require(g == left + right, f"g != a2 x a4 + a4 x a2 at q = {q}")
        status = chz.factorize(g, 1, 2).status
        ok = status is chz.FactorizeStatus.UNCHARACTERIZED_REGIME
        require(ok, f"factorizer says {status.value} on g at q = {q}")


def _fixture_h(rng, full):
    h = cons.counterexample_h()
    require(h.support_size() == 12, "support of h")
    require(spectra.is_eigenfunction(h, 2), "h not in U_2(3,4)")
    require(cons.min_support_bound(3, 4, 2, 2).value == 12, "bound at (3,4,2,2)")
    status = chz.factorize(h, 2, 2).status
    ok = status is chz.FactorizeStatus.NOT_IN_FAMILY
    require(ok, f"factorizer says {status.value} on h")


def _fixture_v(rng, full):
    v = cons.counterexample_v()
    require(v.support_size() == 6, "support of v")
    require(spectra.is_eigenfunction(v, 2), "v not in U_2(3,3)")
    bound = cons.min_support_bound(3, 3, 2, 2)
    require(bound.value == 8 and not bound.valid, "formula at (3,3,2,2) not 8 and invalid")


def _roundtrips(rng, full):
    rounds, n_max = (100, 4) if full else (10, 3)
    done = 0
    while done < rounds:
        q = rng.choice((3, 4, 5))
        n = rng.randint(1, n_max)
        i = rng.randint(0, n)
        j = rng.randint(i, n)
        if i + j > n and i != j:
            continue  # F2 products are characterized only for i = j
        at = f"(n,q,i,j) = {(n, q, i, j)}"
        c = Fraction(rng.choice((1, -1, 2, -3, 5, 7)), rng.choice((1, 2, 3)))
        sigma, tau = (tuple(rng.sample(range(n), n)) for _ in range(2))
        g = random_family_instance(n, q, i, j, rng, c).permute(sigma)
        result = chz.factorize(g, i, j)
        certified = result.status is chz.FactorizeStatus.CERTIFIED
        require(certified and result.certificate.matches(g), f"no certificate at {at}")
        again = chz.factorize(g.permute(tau), i, j)
        require(again.status is chz.FactorizeStatus.CERTIFIED, f"not equivariant at {at}")
        done += 1


def _tensor_additivity(rng, full):
    if full:
        qs, shapes = (2, 3, 4, 5), ((1, 1), (1, 2), (2, 2), (1, 3))
    else:
        qs, shapes = (3, 4), ((1, 1), (1, 2), (2, 2))
    lam = spectra.eigenvalue
    for q in qs:
        for m, n in shapes:
            for i in range(m + 1):
                for j in range(n + 1):
                    at = f"(m,n,q,i,j) = {(m, n, q, i, j)}"
                    ok = lam(m, q, i) + lam(n, q, j) == lam(m + n, q, i + j)
                    require(ok, f"eigenvalues do not add at {at}")
                    f = random_member(m, q, i, i, rng)
                    g = random_member(n, q, j, j, rng)
                    require(spectra.is_eigenfunction(f.tensor(g), i + j), f"f x g at {at}")


def _open_regime_minimum(rng, full):
    _require_nothing_below(3, 3, 2, 2, 6, "(n,q,lo,hi) = (3, 3, 2, 2)")
    report = search.find_minimum(3, 3, 2, 2)
    require(report.conclusive and report.minimum == 6, f"minimum {report.minimum}")
    witness = report.witness
    ok = witness.support_size() == 6 and spectra.in_direct_sum(witness, 2, 2)
    require(ok, "witness of the minimum")


def _uniform_bound(rng, full):
    for n, q in ((2, 3), (2, 4), (3, 3)):
        for i in range(n + 1):
            for j in range(max(i, n - i), n + 1):
                at = f"(n,q,i,j) = {(n, q, i, j)}"
                report = search.find_minimum(n, q, i, j)
                require(report.conclusive, f"search inconclusive at {at}")
                if reduction.is_uniform(report.witness).uniform:
                    bound = cons.uniform_support_bound(n, q, i, j)
                    require(report.minimum >= bound, f"uniform witness below bound at {at}")


@dataclass(frozen=True)
class Claim:
    name: str
    check: Callable[[random.Random, bool], None]
    quick: bool = True  # whether selfcheck --scale quick runs it


CLAIMS = (
    Claim("elementary memberships (q <= 7)", _elementary_memberships),
    Claim("product families: support and membership", _family_constructions),
    Claim("projector algebra", _projector_algebra),
    Claim("slice descent rules", _slice_descent),
    Claim("slice partition and uniformity of products", _partition_and_uniformity),
    Claim("exhaustive minimality, small instances", _minimality_small),
    Claim("sharpness fixture g (q = 4, 5, 6)", _fixture_g),
    Claim("sharpness fixture h (q = 4)", _fixture_h),
    Claim("sharpness fixture v (q = 3)", _fixture_v),
    Claim("factorization round-trips", _roundtrips),
    Claim("tensor eigen additivity", _tensor_additivity),
    Claim("exhaustive minimality, larger instances", _minimality_large, quick=False),
    Claim(
        "minimum in U_[2,2](3,3) is 6, below the formula", _open_regime_minimum, quick=False
    ),
    Claim("uniform-function bound on search witnesses", _uniform_bound, quick=False),
)
