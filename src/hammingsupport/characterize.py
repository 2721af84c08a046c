"""Decide whether a function is, up to coordinate permutation, an F1/F2 product.

The equality cases of the support bounds are tensor products of elementary
factors, so membership is decided by iteratively peeling factors off:

  * a coordinate with exactly one nonzero slice carries an a4 factor
    (the surviving slice is the cofactor);
  * a coordinate whose q slices all coincide carries an a3 factor (F1);
  * a coordinate with exactly two nonzero slices that are negatives of each
    other carries an a2 factor (F2);
  * the remaining coordinates must pair up into a1 factors, detected by an
    exact rank-one test on the pair unfolding: the q x q pattern of pair
    slices must match some a1(k,m) support with all parallel slices equal
    (cofactor h on the row, -h on the column).

These classifications are mutually exclusive and are forced for genuine
tensor products, so greedy peeling cannot take a wrong branch; every
certificate is re-validated by exact reconstruction before it is returned.

The F1 template applies when i + j <= n, the F2 template when i = j > n/2.
For i < j with i + j > n no product characterization is known, and
factorize reports that regime explicitly instead of guessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import GridFunction
from . import spectra
from .constructions import (
    ElementaryFactor,
    FactorizationCertificate,
    SupportBound,
    a1,
    a2,
    a3,
    a4,
    family_template,
    min_support_bound,
)
from .reduction import restrict, slices


class FactorizeStatus(enum.Enum):
    CERTIFIED = "certified"
    NOT_IN_FAMILY = "not in family"
    UNCHARACTERIZED_REGIME = "uncharacterized regime"


@dataclass(frozen=True)
class FactorizeResult:
    status: FactorizeStatus
    certificate: Optional[FactorizationCertificate]
    reason: str


def _match_a1(g: GridFunction, r: int, s: int):
    """Match g == a1(k,m) on ordered coordinates (r,s) times a cofactor.

    Returns (k, m, cofactor) or None.  A product oriented the other way
    around shows up as the transposed pattern with a negated cofactor, so a
    single ordered test covers both orientations.
    """
    q = g.q
    pair_slices = []
    for x in range(q):
        gx = restrict(g, r, x)
        s_adj = s - 1 if s > r else s
        pair_slices.append([restrict(gx, s_adj, y) for y in range(q)])
    nonzero = {
        (x, y) for x in range(q) for y in range(q) if not pair_slices[x][y].is_zero()
    }
    if len(nonzero) != 2 * (q - 1):
        return None
    for k in range(q):
        for m in range(q):
            want = {(k, y) for y in range(q) if y != m}
            want |= {(x, m) for x in range(q) if x != k}
            if nonzero != want:
                continue
            ys = [y for y in range(q) if y != m]
            h = pair_slices[k][ys[0]]
            if any(pair_slices[k][y] != h for y in ys[1:]):
                continue
            minus_h = -h
            if any(pair_slices[x][m] != minus_h for x in range(q) if x != k):
                continue
            return k, m, h
    return None


def _peel(f: GridFunction, family: str, i: int, j: int):
    """Greedy factor peeling against the family template; None when it fails."""
    kinds = family_template(family, f.n, i, j)
    a1_budget = kinds.count("a1")
    a4_budget = kinds.count("a4")
    mid_kind = "a2" if family == "F2" else "a3"
    mid_budget = len(kinds) - a1_budget - a4_budget

    g = f
    coords = list(range(f.n))
    a1_items: list[tuple[ElementaryFactor, tuple[int, int]]] = []
    mid_items: list[tuple[ElementaryFactor, int]] = []
    a4_items: list[tuple[ElementaryFactor, int]] = []

    def scan_single(detect):
        nonlocal g
        progress = True
        while progress and g.n:
            progress = False
            for r in range(g.n):
                if detect(r):
                    coords.pop(r)
                    progress = True
                    break

    def detect_a4(r: int) -> bool:
        nonlocal g
        parts = slices(g, r)
        live = [k for k, part in enumerate(parts) if not part.is_zero()]
        if len(live) != 1:
            return False
        a4_items.append((a4(live[0]), coords[r]))
        g = parts[live[0]]
        return True

    def detect_a3(r: int) -> bool:
        nonlocal g
        parts = slices(g, r)
        if any(part != parts[0] for part in parts[1:]):
            return False
        mid_items.append((a3(), coords[r]))
        g = parts[0]
        return True

    def detect_a2(r: int) -> bool:
        nonlocal g
        parts = slices(g, r)
        live = [k for k, part in enumerate(parts) if not part.is_zero()]
        if len(live) != 2 or parts[live[0]] != -parts[live[1]]:
            return False
        mid_items.append((a2(live[0], live[1]), coords[r]))
        g = parts[live[0]]
        return True

    scan_single(detect_a4)
    if len(a4_items) > a4_budget:
        return None
    scan_single(detect_a3 if mid_kind == "a3" else detect_a2)
    if len(mid_items) > mid_budget:
        return None

    while g.n:
        if len(a1_items) >= a1_budget:
            return None
        hit = None
        for s_pos in range(1, g.n):
            match = _match_a1(g, 0, s_pos)
            if match:
                hit = (s_pos, match)
                break
        if hit is None:
            return None
        s_pos, (k, m, cofactor) = hit
        a1_items.append((a1(k, m), (coords[0], coords[s_pos])))
        g = cofactor
        coords = [c for t, c in enumerate(coords) if t not in (0, s_pos)]

    if (len(a1_items), len(mid_items), len(a4_items)) != (
        a1_budget,
        mid_budget,
        a4_budget,
    ):
        return None
    return a1_items, mid_items, a4_items, g.value_at(0)


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
    a1_items, mid_items, a4_items, c = peeled

    factors = [fac for fac, _ in a1_items]
    factors += [fac for fac, _ in mid_items]
    factors += [fac for fac, _ in a4_items]
    slots: list[int] = []
    for _, pair in a1_items:
        slots.extend(pair)
    slots.extend(pos for _, pos in mid_items)
    slots.extend(pos for _, pos in a4_items)
    # c > 0 whenever an a2 factor can absorb the sign
    if c < 0:
        for t, fac in enumerate(factors):
            if fac.kind == "a2":
                factors[t] = a2(fac.params[1], fac.params[0])
                c = -c
                break
    # sigma sends each original coordinate to its canonical slot
    sigma = [0] * n
    for slot, original in enumerate(slots):
        sigma[original] = slot
    certificate = FactorizationCertificate(
        family, q, tuple(sigma), tuple(factors), Fraction(c)
    )
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
