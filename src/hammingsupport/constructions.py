"""Tensor-product constructions of small-support members of U_[i,j](n,q).

Four elementary building blocks, each an exact function on one or two
coordinates:

    a1(k,m) on Sigma_q^2:  +1 at (k, y) for y != m, -1 at (x, m) for x != k;
                           support 2(q-1); lies in U_1(2,q)
    a2(k,m) on Sigma_q:    +1 at k, -1 at m (k != m); support 2; in U_1(1,q)
    a3      on Sigma_q:    constant 1; support q; in U_0(1,q)
    a4(m)   on Sigma_q:    indicator of m; support 1; in U_[0,1](1,q)

Tensoring adds eigenspace indices and multiplies supports, which yields two
parametric families with extremal support:

    F1(n,q,i,j), defined for i + j <= n:
        i factors a1, (n-i-j) factors a3, (j-i) factors a4;
        support 2^i (q-1)^i q^(n-i-j), member of U_[i,j](n,q).
    F2(n,q,i,j), defined for i + j > n:
        (n-j) factors a1, (i+j-n) factors a2, (j-i) factors a4;
        support 2^i (q-1)^(n-j), member of U_[i,j](n,q).

`min_support_bound` reports the known sharp lower bounds for the support of
nonzero members of U_[i,j](n,q) together with their validity metadata: the
balanced-regime bound (i + j <= n) is proven for q >= 3 with a full equality
characterization; the overloaded-regime bound (i + j > n) is proven for
q >= 4, with the equality case characterized only for i = j and q >= 5.  For
i + j >= n there is a separate bound for *uniform* functions valid from
q >= 3 on.

The three fixture functions g, h, v witness that none of these hypotheses
can be dropped; see their docstrings.

Builders place factors in canonical coordinate order (a1 pairs first, then
a3 or a2, then a4); other layouts are obtained via GridFunction.permute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import GridFunction, power_exceeds, validate_alphabet


class RegimeError(ValueError):
    """Parameters outside the defining regime of the requested family."""


# -- elementary factors ------------------------------------------------------


@dataclass(frozen=True)
class ElementaryFactor:
    """One tensor factor: kind in {"a1","a2","a3","a4"} plus its parameters."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        arity = {"a1": 2, "a2": 2, "a3": 0, "a4": 1}
        if self.kind not in arity:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if len(self.params) != arity[self.kind]:
            count = arity[self.kind]
            raise ValueError(f"{self.kind} takes {count} parameter{'s' * (count != 1)}")
        if self.kind == "a2" and self.params[0] == self.params[1]:
            raise ValueError("a2 requires k != m")

    def validate_for(self, q: int) -> None:
        validate_alphabet(q)
        for p in self.params:
            if not 0 <= p < q:
                raise ValueError(f"parameter {p} out of range for q = {q}")

    def __str__(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(map(str, self.params))})"
        return self.kind


def a1(k: int, m: int) -> ElementaryFactor:
    return ElementaryFactor("a1", (k, m))


def a2(k: int, m: int) -> ElementaryFactor:
    return ElementaryFactor("a2", (k, m))


def a3() -> ElementaryFactor:
    return ElementaryFactor("a3")


def a4(m: int) -> ElementaryFactor:
    return ElementaryFactor("a4", (m,))


def elementary(factor: ElementaryFactor, q: int) -> GridFunction:
    """Realize one elementary factor as a GridFunction over Sigma_q."""
    factor.validate_for(q)
    if factor.kind == "a1":
        k, m = factor.params

        def a1_value(w):
            x, y = w
            if x == k and y != m:
                return 1
            if y == m and x != k:
                return -1
            return 0

        return GridFunction.from_callable(2, q, a1_value)
    if factor.kind == "a2":
        k, m = factor.params
        return GridFunction.from_dict(1, q, {(k,): 1, (m,): -1})
    if factor.kind == "a3":
        return GridFunction.constant(1, q, 1)
    k = factor.params[0]
    return GridFunction.from_dict(1, q, {(k,): 1})


def tensor_all(factors: Sequence[ElementaryFactor], q: int, c=1) -> GridFunction:
    """c times the left-to-right tensor product of the given factors."""
    out = GridFunction.constant(0, q, c)
    for factor in factors:
        out = out.tensor(elementary(factor, q))
    return out


# -- the families F1 and F2 --------------------------------------------------


def family_template(family: str, n: int, i: int, j: int) -> list[str]:
    """The multiset of factor kinds, in canonical order, or raise RegimeError."""
    if not 0 <= i <= j <= n:
        raise RegimeError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")
    if family == "F1":
        if i + j > n:
            raise RegimeError(f"F1 needs i + j <= n, got i={i}, j={j}, n={n}")
        return ["a1"] * i + ["a3"] * (n - i - j) + ["a4"] * (j - i)
    if family == "F2":
        if i + j <= n:
            raise RegimeError(f"F2 needs i + j > n, got i={i}, j={j}, n={n}")
        return ["a1"] * (n - j) + ["a2"] * (i + j - n) + ["a4"] * (j - i)
    raise ValueError(f"unknown family {family!r}")


def default_factor(kind: str, q: int) -> ElementaryFactor:
    """a1 -> (q-1,q-1), a2 -> (0,q-1), a4 -> q-1; a3 has no parameters."""
    if kind == "a1":
        return a1(q - 1, q - 1)
    if kind == "a2":
        return a2(0, q - 1)
    if kind == "a3":
        return a3()
    return a4(q - 1)


def _resolve_factors(
    family: str,
    n: int,
    q: int,
    i: int,
    j: int,
    factors: Optional[Sequence[ElementaryFactor]],
) -> tuple[ElementaryFactor, ...]:
    kinds = family_template(family, n, i, j)
    if factors is None:
        return tuple(default_factor(kind, q) for kind in kinds)
    factors = tuple(factors)
    if [f.kind for f in factors] != kinds:
        raise ValueError(
            f"factor kinds {[f.kind for f in factors]} do not match the "
            f"{family}({n},{q},{i},{j}) template {kinds}"
        )
    for f in factors:
        f.validate_for(q)
    return factors


def build_F1(
    n: int,
    q: int,
    i: int,
    j: int,
    factors: Optional[Sequence[ElementaryFactor]] = None,
    c=1,
) -> GridFunction:
    """A member of F1(n,q,i,j): support 2^i (q-1)^i q^(n-i-j), in U_[i,j]."""
    if c == 0:
        raise ValueError("scalar c must be nonzero")
    return tensor_all(_resolve_factors("F1", n, q, i, j, factors), q, c)


def build_F2(
    n: int,
    q: int,
    i: int,
    j: int,
    factors: Optional[Sequence[ElementaryFactor]] = None,
    c=1,
) -> GridFunction:
    """A member of F2(n,q,i,j): support 2^i (q-1)^(n-j), in U_[i,j]."""
    if c == 0:
        raise ValueError("scalar c must be nonzero")
    return tensor_all(_resolve_factors("F2", n, q, i, j, factors), q, c)


def f1_support_size(n: int, q: int, i: int, j: int) -> int:
    return 2**i * (q - 1) ** i * q ** (n - i - j)


def f2_support_size(n: int, q: int, i: int, j: int) -> int:
    return 2**i * (q - 1) ** (n - j)


# -- minimum-support bounds ---------------------------------------------------


# Bound values are at most q^n; above 2^MAX_BOUND_BITS they are refused, which
# keeps them well under Python's 4300-digit limit on printing an int.
MAX_BOUND_BITS = 4096


class Regime(enum.Enum):
    BALANCED = "balanced"          # i + j <= n: bound proven for q >= 3
    OVERLOADED = "overloaded"      # i + j > n, q >= 4: bound proven
    UNIFORM_ONLY = "uniform-only"  # i + j > n, q < 4: only the uniform bound


@dataclass(frozen=True)
class SupportBound:
    """The formula value for min support in U_[i,j](n,q) plus validity data."""

    n: int
    q: int
    i: int
    j: int
    value: int
    regime: Regime
    valid: bool            # the value is a proven bound at this q
    characterized: bool    # equality case fully characterized at this q
    uniform_value: Optional[int]  # bound for uniform functions (i+j >= n, q >= 3)
    note: str


def uniform_support_bound(n: int, q: int, i: int, j: int) -> int:
    """Sharp support bound for nonzero *uniform* members, i + j >= n, q >= 3."""
    if i + j < n:
        raise RegimeError(f"uniform bound needs i + j >= n, got i={i}, j={j}, n={n}")
    return 2 ** (n - j) * (q - 1) ** (n - j) * q ** (i + j - n)


def min_support_bound(n: int, q: int, i: int, j: int) -> SupportBound:
    validate_alphabet(q)
    if not 0 <= i <= j <= n:
        raise ValueError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")
    # every formula value is at most q^n; check that before forming a power
    if power_exceeds(q, n, 2**MAX_BOUND_BITS):
        raise ValueError(f"q^n = {q}^{n} exceeds 2^{MAX_BOUND_BITS}, the cap on bound values")
    uniform_value = uniform_support_bound(n, q, i, j) if (i + j >= n and q >= 3) else None
    if i + j <= n:
        value = f1_support_size(n, q, i, j)
        valid = q >= 3
        note = (
            "proven for q >= 3; attained exactly by the F1 family"
            if valid
            else "q = 2 is outside the q >= 3 hypothesis of the balanced bound"
        )
        return SupportBound(
            n, q, i, j, value, Regime.BALANCED, valid, valid, uniform_value, note
        )
    value = f2_support_size(n, q, i, j)
    if q >= 4:
        characterized = i == j and q >= 5
        if characterized:
            note = "proven for q >= 4; equality characterized (i = j, q >= 5)"
        elif i == j:
            note = "proven for q >= 4; equality not characterized at q = 4"
        else:
            note = "proven for q >= 4; no characterization known for i < j"
        return SupportBound(
            n, q, i, j, value, Regime.OVERLOADED, True, characterized, uniform_value, note
        )
    note = (
        f"q = {q} is outside the q >= 4 hypothesis; the formula value is not a "
        "proven bound (and fails for q = 3), only the uniform-function bound applies"
    )
    return SupportBound(
        n, q, i, j, value, Regime.UNIFORM_ONLY, False, False, uniform_value, note
    )


# -- fixtures: sharpness witnesses -------------------------------------------


def counterexample_g(q: int) -> GridFunction:
    """Support-2 member of U_[1,2](2,q) that is no F2(2,q,1,2) product.

    g(x,y) = +1 at (0,0), -1 at (q-1,q-1); equals
    a2(0,q-1) x a4(0)  +  a4(q-1) x a2(0,q-1).  Shows that for i < j the
    overloaded-regime equality case escapes the F2 family.
    """
    validate_alphabet(q)
    return GridFunction.from_dict(2, q, {(0, 0): 1, (q - 1, q - 1): -1})


def counterexample_h() -> GridFunction:
    """Support-12 member of U_2(3,4) that is no F2(3,4,2,2) product.

    Attains the overloaded bound 2^2 * 3 = 12 at q = 4, so equality at q = 4
    does not force membership in F2.
    """
    entries = {}
    for z in (0, 1):
        entries[(0, 0, z)] = -1
        entries[(2, 2, z)] = 1
    for y in (1, 3):
        entries[(0, y, 2)] = 1
    for x in (1, 3):
        entries[(x, 2, 2)] = -1
    for x in (1, 3):
        entries[(x, 0, 3)] = 1
    for y in (1, 3):
        entries[(2, y, 3)] = -1
    return GridFunction.from_dict(3, 4, entries)


def counterexample_v() -> GridFunction:
    """Support-6 member of U_2(3,3), below the q >= 4 formula value 8.

    Slice z of v is (x,y) -> v1(x+z, y+z) with indices mod 3, where v1 is
    +1 at (0,0) and -1 at (1,2).  Shows the overloaded bound fails at q = 3.
    """
    entries = {}
    for z in range(3):
        entries[((0 - z) % 3, (0 - z) % 3, z)] = 1
        entries[((1 - z) % 3, (2 - z) % 3, z)] = -1
    return GridFunction.from_dict(3, 3, entries)


# -- factorization certificates ----------------------------------------------


@dataclass(frozen=True)
class FactorizationCertificate:
    """Witness that f, up to coordinate permutation, is an F1/F2 product.

    The claim is:  f.permute(sigma) == rebuild(), where rebuild() is
    c times the tensor product of `factors` in canonical order (a1 pairs
    first, then a3/a2, then a4).  sigma is 0-based and sends each original
    coordinate of f to the canonical position it occupies in the product.
    """

    family: str
    q: int
    sigma: tuple[int, ...]
    factors: tuple[ElementaryFactor, ...]
    c: Fraction

    @property
    def n(self) -> int:
        return len(self.sigma)

    def rebuild(self) -> GridFunction:
        return tensor_all(self.factors, self.q, self.c)

    def matches(self, f: GridFunction) -> bool:
        if f.n != self.n or f.q != self.q:
            return False
        return f.permute(self.sigma) == self.rebuild()
