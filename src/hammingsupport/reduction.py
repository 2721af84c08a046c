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

Every slice of f = nums / den has the denominator den, which changes no
equality, support or membership.  So every check runs on the integer slices
that `slice_lists` cuts out of the numerators; only `restrict` and `slices`
reduce them to GridFunctions.  Rule 1 is checked on the q-1 differences
f_0 - f_m: f_k - f_m = (f_0 - f_m) - (f_0 - f_k) and U_[i-1, j-1] is a
subspace, so every pair passes exactly when these do (the span argument in
`spectra`).  The pairs (0, m) come first in the order k < m, so the first
failing pair is the same as in a loop over every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import ne, sub
from typing import Optional, Sequence

from .core import GridFunction
from .spectra import _in_window, in_direct_sum, validate_range


def slice_lists(nums: Sequence[int], n: int, q: int, r: int) -> list[list[int]]:
    """The q slices at coordinate r (0-based) of nums, q^n entries in index order."""
    if not 0 <= r < n:
        raise ValueError(f"coordinate {r} out of range [0, {n})")
    low = q ** (n - 1 - r)
    if low == 1:
        return [list(nums[k::q]) for k in range(q)]
    # slice k is every q-th run of low entries, starting at run k
    return [
        list(chain.from_iterable(nums[b : b + low] for b in range(k * low, len(nums), q * low)))
        for k in range(q)
    ]


def restrict(f: GridFunction, r: int, k: int) -> GridFunction:
    """The slice of f with coordinate r (0-based) fixed to symbol k."""
    if not 0 <= k < f.q:
        raise ValueError(f"symbol {k} out of range for q = {f.q}")
    return GridFunction._reduced(f.n - 1, f.q, slice_lists(f.nums, f.n, f.q, r)[k], f.den)


def slices(f: GridFunction, r: int) -> list[GridFunction]:
    parts = slice_lists(f.nums, f.n, f.q, r)
    return [GridFunction._reduced(f.n - 1, f.q, p, f.den) for p in parts]


@dataclass(frozen=True)
class UniformityReport:
    uniform: bool
    # smallest valid exceptional symbol per coordinate, None where none exists
    witnesses: tuple[Optional[int], ...]


def is_uniform(f: GridFunction) -> UniformityReport:
    """Uniformity test with the smallest exceptional symbol per coordinate.

    Let D be the slices that differ from slice 0.  Symbol 0 is exceptional
    when the slices after it all agree: D is empty, or D holds every one of
    them and they are equal.  Otherwise a symbol l > 0 is exceptional
    exactly when D = {l}, since any other l leaves slice 0 and a slice of D
    behind.  So at most 2(q-1) slice comparisons decide a coordinate.
    """
    if f.n < 1:
        raise ValueError("uniformity needs at least one coordinate")
    q = f.q
    witnesses: list[Optional[int]] = []
    for r in range(f.n):
        parts = slice_lists(f.nums, f.n, q, r)
        differ = [k for k in range(1, q) if parts[k] != parts[0]]
        if not differ or len(differ) == q - 1 and parts.count(parts[1]) == q - 1:
            witnesses.append(0)
        else:
            witnesses.append(differ[0] if len(differ) == 1 else None)
    return UniformityReport(all(w is not None for w in witnesses), tuple(witnesses))


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
    n, q = f.n - 1, f.q  # the slices live on f.n - 1 coordinates
    parts = slice_lists(f.nums, f.n, q, r)

    # the differences against slice 0 decide every pair (module docstring)
    diffs = enumerate((list(map(sub, parts[0], p)) for p in parts[1:]), 1)
    bad = next((m for m, d in diffs if not _in_window(d, n, q, lo - 1, hi - 1)), None)
    detail = "" if bad is None else f"slice pair k=0, m={bad} at coordinate {r}"
    cases = [CaseResult("differences drop to [lo-1, hi-1]", bad is None, detail)]

    ok = _in_window(list(map(sum, zip(*parts))), n, q, lo, hi)
    cases.append(
        CaseResult("slice sum stays in [lo, hi]", ok, "" if ok else f"coordinate {r}")
    )

    bad = next((k for k, p in enumerate(parts) if not _in_window(p, n, q, lo - 1, hi)), None)
    detail = "" if bad is None else f"slice k={bad} at coordinate {r}"
    cases.append(CaseResult("each slice lands in [lo-1, hi]", bad is None, detail))

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
    parts = slice_lists(f.nums, f.n, f.q, r)
    nonzero = tuple(k for k, p in enumerate(parts) if any(p))
    if not in_direct_sum(f, lo, hi) or any(k != m for k in nonzero):
        return VanishingSliceReport(False, nonzero, False)
    return VanishingSliceReport(True, nonzero, _in_window(parts[m], f.n - 1, f.q, lo, hi - 1))


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
    parts = slice_lists(f.nums, f.n, f.q, r)
    q = f.q
    equal = all(parts[k] == parts[0] for k in range(q - 1))
    differs = sum(map(ne, parts[q - 2], parts[q - 1]))
    rhs = (q - 2) * (len(parts[0]) - parts[0].count(0)) + differs
    return SliceBoundReport(equal, f.support_size(), rhs)
