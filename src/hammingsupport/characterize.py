"""Decide whether a function is, up to coordinate permutation, an F1/F2 product.

The equality cases of the support bounds are tensor products of elementary
factors, so membership is decided by peeling factors off:

  * a coordinate with exactly one nonzero slice carries an a4 factor
    (the surviving slice is the cofactor);
  * a coordinate whose q slices all coincide carries an a3 factor (F1);
  * a coordinate with exactly two nonzero slices that are negatives of each
    other carries an a2 factor (F2);
  * the remaining coordinates must pair up into a1 factors, detected by an
    exact rank-one test on the pair unfolding: the q x q pattern of pair
    slices must match some a1(k,m) support with all parallel slices equal
    (cofactor h on the row, -h on the column).

Every peel is an exact identity (f = a4(m) (x) f_m, a3 (x) f_0,
a2(k,m) (x) f_k or a1(k,m) (x) h), so a peel that uses up every coordinate
is a valid factorization, whatever order it took.  One check of the peeled
kinds against the family template then decides the family.  The peel runs
on the integer numerators of f (`reduction.slice_lists`): every slice
shares f's denominator, so the zero, equality and negation tests need no
reduction, and c is the last numerator left over that denominator.

These classifications are mutually exclusive and forced for a genuine
tensor product, and peeling one factor leaves the kind of every other
coordinate unchanged.  So a single pass over the coordinates finds every
one-coordinate factor (a4, and a3 or a2): after a hit the next coordinate
shifts into the same position and is tested there, and no coordinate
already passed can have turned into a hit.  Every certificate is
still re-validated by exact reconstruction before it is returned.

The F1 template applies when i + j <= n, the F2 template when i = j > n/2.
For i < j with i + j > n no product characterization is known, and
factorize reports that regime explicitly instead of guessing.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import GridFunction
from . import spectra
from .constructions import (
    FactorizationCertificate,
    SupportBound,
    a1,
    a2,
    a3,
    a4,
    family_template,
    min_support_bound,
)
from .reduction import slice_lists


class FactorizeStatus(enum.Enum):
    CERTIFIED = "certified"
    NOT_IN_FAMILY = "not in family"
    UNCHARACTERIZED_REGIME = "uncharacterized regime"


@dataclass(frozen=True)
class FactorizeResult:
    status: FactorizeStatus
    certificate: Optional[FactorizationCertificate]
    reason: str


def _match_a1(parts: list[list[int]], n: int, q: int, s: int):
    """Match a1(k,m) on coordinates (0, s) times a cofactor.

    parts holds the q slices at coordinate 0 of the numerators of a function
    on n coordinates.  Returns (k, m, cofactor numerators) or None.  A
    product oriented the other way around shows up as the transposed pattern
    with a negated cofactor, so a single ordered test covers both
    orientations.
    """
    pair_slices = [slice_lists(part, n - 1, q, s - 1) for part in parts]
    nonzero = {(x, y) for x in range(q) for y in range(q) if any(pair_slices[x][y])}
    if len(nonzero) != 2 * (q - 1):
        return None
    # a match holds q - 1 points in row k and in column m, so only those are tried
    rows = Counter(x for x, _ in nonzero)
    cols = Counter(y for _, y in nonzero)
    for k in [x for x in range(q) if rows[x] == q - 1]:
        for m in [y for y in range(q) if cols[y] == q - 1]:
            want = {(k, y) for y in range(q) if y != m}
            want |= {(x, m) for x in range(q) if x != k}
            if nonzero != want:
                continue
            ys = [y for y in range(q) if y != m]
            h = pair_slices[k][ys[0]]
            if any(pair_slices[k][y] != h for y in ys[1:]):
                continue
            minus_h = [-v for v in h]
            if any(pair_slices[x][m] != minus_h for x in range(q) if x != k):
                continue
            return k, m, h
    return None


def _detect(parts: list[list[int]], family: str):
    """(factor, cofactor slice) for the one-coordinate factor on these q slices, or None."""
    live = [k for k, part in enumerate(parts) if any(part)]
    if len(live) == 1:
        return a4(live[0]), parts[live[0]]
    if family == "F1":
        return (a3(), parts[0]) if parts.count(parts[0]) == len(parts) else None
    if len(live) == 2 and parts[live[0]] == [-v for v in parts[live[1]]]:
        return a2(*live), parts[live[0]]
    return None


def _peel(f: GridFunction, family: str, i: int, j: int):
    """Peel f against the family template; None when it fails.

    Returns (items, c): the factors in canonical order, each with the
    original coordinates it occupies, and the scalar c.
    """
    q = f.q
    g = list(f.nums)
    coords = list(range(f.n))
    hits = []
    r = 0
    while r < len(coords):
        hit = _detect(slice_lists(g, len(coords), q, r), family)
        if hit is None:
            r += 1
        else:  # the next coordinate shifts into r
            factor, g = hit
            hits.append((factor, (coords.pop(r),)))
    a1_items = []
    while coords:
        parts = slice_lists(g, len(coords), q, 0)
        for s in range(1, len(coords)):
            match = _match_a1(parts, len(coords), q, s)
            if match:
                break
        else:
            return None
        k, m, g = match
        a1_items.append((a1(k, m), (coords[0], coords[s])))
        del coords[s], coords[0]

    # a3 or a2 before a4, as in the templates; sorted keeps coordinate order
    items = a1_items + sorted(hits, key=lambda item: item[0].kind == "a4")
    if [factor.kind for factor, _ in items] != family_template(family, f.n, i, j):
        return None
    return items, Fraction(g[0], f.den)


def factorize(f: GridFunction, lo: int, hi: int) -> FactorizeResult:
    """Search for a certificate that f is an F1/F2 product for U_[lo,hi]."""
    spectra.validate_range(f.n, lo, hi)
    if f.is_zero():
        raise ValueError("the zero function has no factorization")
    if not spectra.in_direct_sum(f, lo, hi):
        raise ValueError(f"function is not in U_[{lo},{hi}]")
    n, q = f.n, f.q
    if lo + hi <= n:
        family = "F1"
    elif lo == hi:
        family = "F2"
    else:
        return FactorizeResult(
            FactorizeStatus.UNCHARACTERIZED_REGIME,
            None,
            f"i={lo} < j={hi} with i+j > n: no product characterization is known",
        )
    peeled = _peel(f, family, lo, hi)
    if peeled is None:
        return FactorizeResult(
            FactorizeStatus.NOT_IN_FAMILY,
            None,
            f"no {family}({n},{q},{lo},{hi}) factorization exists",
        )
    items, c = peeled

    factors = [factor for factor, _ in items]
    # c > 0 whenever an a2 factor can absorb the sign
    if c < 0:
        for t, fac in enumerate(factors):
            if fac.kind == "a2":
                factors[t] = a2(fac.params[1], fac.params[0])
                c = -c
                break
    # sigma sends each original coordinate to its canonical slot
    sigma = [0] * n
    slots = [original for _, originals in items for original in originals]
    for slot, original in enumerate(slots):
        sigma[original] = slot
    certificate = FactorizationCertificate(family, q, tuple(sigma), tuple(factors), c)
    if not certificate.matches(f):
        raise RuntimeError("peeling produced an invalid certificate")
    return FactorizeResult(FactorizeStatus.CERTIFIED, certificate, "")


@dataclass(frozen=True)
class MinimumVerdict:
    support: int
    bound: SupportBound
    meets_bound: bool
    factorization: FactorizeResult
    summary: str


def _summarize(
    support: int, bound: SupportBound, fact: FactorizeResult
) -> str:
    value, q = bound.value, bound.q
    if support > value:
        return f"support {support} exceeds the formula value {value}; not minimum"
    if support < value:
        if bound.valid:
            return f"support {support} below a proven bound {value}: inconsistent"
        return (
            f"support {support} is below the formula value {value}; "
            f"the formula is not a valid bound at q={q}"
        )
    if fact.status is FactorizeStatus.UNCHARACTERIZED_REGIME:
        return (
            f"support equals the formula value {value}; "
            "no characterization known in this regime (i < j, i + j > n)"
        )
    if fact.status is FactorizeStatus.CERTIFIED:
        family = fact.certificate.family
        if bound.characterized:
            return f"minimum support {value}, characterized: member of {family}"
        return (
            f"support equals the formula value {value}; member of {family} "
            f"(equality case not characterized at q={q})"
        )
    if bound.characterized:
        return (
            f"support equals the characterized bound {value} but no "
            "factorization was found: inconsistent"
        )
    return (
        f"minimum support {value} attained, but the function is outside the "
        f"product family (no characterization at q={q})"
    )


def is_minimum_and_characterized(f: GridFunction, lo: int, hi: int) -> MinimumVerdict:
    """Combine the support bound, the support of f, and the factorizer."""
    if f.is_zero():
        raise ValueError("verdicts are for nonzero functions")
    bound = min_support_bound(f.n, f.q, lo, hi)
    fact = factorize(f, lo, hi)
    support = f.support_size()
    return MinimumVerdict(
        support,
        bound,
        support == bound.value,
        fact,
        _summarize(support, bound, fact),
    )
