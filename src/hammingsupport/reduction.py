"""Coordinate restrictions of grid functions and their eigenspace behaviour.

For f on Sigma_q^n, coordinate r (0-based) and symbol k, the restriction
slice(f, r, k) is the function on Sigma_q^(n-1) obtained by fixing
coordinate r to k.  Supports partition across slices:

    |f| = sum over k of |slice(f, r, k)|.

A function is *uniform* when in every coordinate all slices agree except
possibly one (the exceptional symbol l(r)).

For f in U_[i,j](n,q) the slices obey three descent rules, checked here as
executable properties:

    1. slice(f,r,k) - slice(f,r,m)   lies in U_[i-1, j-1](n-1, q);
    2. sum over k of slice(f,r,k)    lies in U_[i,   j  ](n-1, q);
    3. slice(f,r,k)                  lies in U_[i-1, j  ](n-1, q).

Index windows are intersected with [0, n-1]; an empty window means the
function in question must vanish identically.  When every slice except one
vanishes, the surviving slice drops to U_[i, j-1](n-1, q).  Finally, when
the first q-1 slices coincide,

    |f| >= (q-2) |slice(f,r,0)| + |slice(f,r,q-2) - slice(f,r,q-1)|.

Checkers return structured reports rather than booleans so that failures
carry the offending slice pair.

Every slice of f = nums / den has the same denominator den, so two slices
are equal, negatives of each other or zero exactly when their numerators
are, and a slice and its numerators have the same support.
`slice_numerators` cuts a slice out of the numerator tuple; `restrict`
reduces it to a GridFunction, while `is_uniform`,
`support_lower_bound_inequality` and the factorizer in `characterize`
compare and count the integer slices directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import ne
from typing import Optional, Sequence

from .core import GridFunction
from .spectra import in_direct_sum, validate_range


def slice_numerators(nums: Sequence[int], n: int, q: int, r: int, k: int) -> list[int]:
    """The entries of nums (q^n, in index order) whose word has symbol k at coordinate r."""
    low = q ** (n - 1 - r)
    if low == 1:
        return list(nums[k::q])
    blocks = range(k * low, len(nums), q * low)
    return list(chain.from_iterable(nums[base : base + low] for base in blocks))


def restrict(f: GridFunction, r: int, k: int) -> GridFunction:
    """The slice of f with coordinate r (0-based) fixed to symbol k."""
    n, q = f.n, f.q
    if n < 1:
        raise ValueError("cannot restrict a 0-coordinate function")
    if not 0 <= r < n:
        raise ValueError(f"coordinate {r} out of range [0, {n})")
    if not 0 <= k < q:
        raise ValueError(f"symbol {k} out of range for q = {q}")
    return GridFunction._reduced(n - 1, q, slice_numerators(f.nums, n, q, r, k), f.den)


def slices(f: GridFunction, r: int) -> list[GridFunction]:
    return [restrict(f, r, k) for k in range(f.q)]


@dataclass(frozen=True)
class UniformityReport:
    uniform: bool
    # smallest valid exceptional symbol per coordinate, None where none exists
    witnesses: tuple[Optional[int], ...]


def is_uniform(f: GridFunction) -> UniformityReport:
    """Uniformity test with the smallest exceptional symbol per coordinate."""
    if f.n < 1:
        raise ValueError("uniformity needs at least one coordinate")
    witnesses: list[Optional[int]] = []
    for r in range(f.n):
        parts = [slice_numerators(f.nums, f.n, f.q, r, k) for k in range(f.q)]
        found: Optional[int] = None
        for l in range(f.q):
            rest = [parts[k] for k in range(f.q) if k != l]
            if all(p == rest[0] for p in rest[1:]):
                found = l
                break
        witnesses.append(found)
    return UniformityReport(all(w is not None for w in witnesses), tuple(witnesses))


def _in_window(g: GridFunction, lo: int, hi: int) -> bool:
    """Membership in U_[lo,hi](g.n, q) after intersecting with [0, g.n]."""
    lo = max(lo, 0)
    hi = min(hi, g.n)
    if lo > hi:
        return g.is_zero()
    return in_direct_sum(g, lo, hi)


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ReductionReport:
    precondition_ok: bool
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> bool:
        return self.precondition_ok and all(c.passed for c in self.cases)


def check_lemma_reduction(f: GridFunction, lo: int, hi: int, r: int) -> ReductionReport:
    """Check all three slice descent rules for f in U_[lo,hi](n,q)."""
    validate_range(f.n, lo, hi)
    if f.n < 2:
        raise ValueError("descent rules need n >= 2")
    if not in_direct_sum(f, lo, hi):
        return ReductionReport(False, ())
    parts = slices(f, r)
    cases = []

    ok, detail = True, ""
    for k in range(f.q):
        for m in range(k + 1, f.q):
            if not _in_window(parts[k] - parts[m], lo - 1, hi - 1):
                ok, detail = False, f"slice pair k={k}, m={m} at coordinate {r}"
                break
        if not ok:
            break
    cases.append(CaseResult("differences drop to [lo-1, hi-1]", ok, detail))

    total = parts[0]
    for p in parts[1:]:
        total = total + p
    ok = _in_window(total, lo, hi)
    cases.append(
        CaseResult("slice sum stays in [lo, hi]", ok, "" if ok else f"coordinate {r}")
    )

    ok, detail = True, ""
    for k in range(f.q):
        if not _in_window(parts[k], lo - 1, hi):
            ok, detail = False, f"slice k={k} at coordinate {r}"
            break
    cases.append(CaseResult("each slice lands in [lo-1, hi]", ok, detail))

    return ReductionReport(True, tuple(cases))


@dataclass(frozen=True)
class VanishingSliceReport:
    precondition_ok: bool
    nonzero_slices: tuple[int, ...]
    conclusion_ok: bool

    @property
    def passed(self) -> bool:
        return self.precondition_ok and self.conclusion_ok


def check_lemma_vanishing_slices(
    f: GridFunction, lo: int, hi: int, r: int, m: int
) -> VanishingSliceReport:
    """If every slice at coordinate r except m vanishes, f_m drops to [lo, hi-1]."""
    validate_range(f.n, lo, hi)
    if not 0 <= m < f.q:
        raise ValueError(f"symbol {m} out of range for q = {f.q}")
    parts = slices(f, r)
    nonzero = tuple(k for k, p in enumerate(parts) if not p.is_zero())
    if not in_direct_sum(f, lo, hi) or any(k != m for k in nonzero):
        return VanishingSliceReport(False, nonzero, False)
    return VanishingSliceReport(True, nonzero, _in_window(parts[m], lo, hi - 1))


@dataclass(frozen=True)
class SliceBoundReport:
    precondition_ok: bool
    lhs: int  # |f|
    rhs: int  # (q-2)|f_0| + |f_(q-2) - f_(q-1)|

    @property
    def passed(self) -> bool:
        return self.precondition_ok and self.lhs >= self.rhs


def support_lower_bound_inequality(f: GridFunction, r: int) -> SliceBoundReport:
    """Support bound from equal leading slices; needs slices 0..q-2 equal."""
    parts = [slice_numerators(f.nums, f.n, f.q, r, k) for k in range(f.q)]
    q = f.q
    equal = all(parts[k] == parts[0] for k in range(q - 1))
    differs = sum(map(ne, parts[q - 2], parts[q - 1]))
    rhs = (q - 2) * (len(parts[0]) - parts[0].count(0)) + differs
    return SliceBoundReport(equal, f.support_size(), rhs)
