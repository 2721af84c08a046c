"""Spectral decomposition of functions on H(n,q), in exact arithmetic.

The adjacency operator A of H(n,q) has the n+1 eigenvalues

    lambda_i(n,q) = n(q-1) - q*i,   i = 0, ..., n,

with eigenspaces U_i(n,q) and orthogonal projectors E_i.  One integer
engine serves every entry point: a graded tensor transform for projections
and profiles, and an annihilator in A for membership.

Graded transform.  On a single coordinate, Q^q splits into the constants,
the range of P0 = J/q (J the all-ones q x q matrix), and the zero-sum
vectors, the range of P1 = I - J/q.  H(n,q) is the Cartesian product of n
copies of K_q, whose adjacency J - I is q-1 on constants and -1 on zero-sum
vectors.  So the tensor product with P1 on a coordinate set S and P0 on the
rest projects into the eigenspace of eigenvalue
(n-|S|)(q-1) - |S| = lambda_|S|.  These 2^n products are orthogonal
idempotents that sum to the identity, hence

    E_w = sum over |S| = w of (P1 on S) (x) (P0 off S).

`_graded` evaluates all n+1 sums in one sweep.  It starts from the integer
numerators of f over its denominator den and keeps one integer array per
weight w.  A pass over a coordinate replaces the array g of weight w by its
mean part J g, kept at weight w, and its deviation part q g - J g, moved to
weight w+1.  These are q P0 g and q P1 g.  After n passes each set S has
been applied along exactly one path (deviation on S, mean elsewhere), each
pass contributed one factor q, and only integer additions and
multiplications were used.  So array w is exactly den * q^n * E_w f.  The
cost is O(n^2 q^n) and no table is built.

Annihilator.  f lies in U_[lo,hi] = U_lo + ... + U_hi iff

    prod over t in [lo, hi] of (A - lambda_t) f = 0.

The product multiplies E_w f by c_w = prod over t in [lo, hi] of
(lambda_w - lambda_t).  The eigenvalues are distinct, so c_w = 0 exactly for
w inside [lo, hi].  What is left is the sum of c_w E_w f over w outside the
range, with every c_w nonzero.  Its terms lie in independent eigenspaces,
so it vanishes iff every E_w f outside [lo, hi] does.  The test is hi-lo+1
integer adjacency passes with no division, so it is exact.

There is no tolerance parameter anywhere (exact equality or nothing).  The
engine holds n+1 integer arrays of q^n entries; every GridFunction already
has q^n <= core.MAX_VERTICES, which its constructors enforce with
ScaleError.  All functions are pure.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import GridFunction, ScaleError  # noqa: F401  ScaleError re-exported


def _check_eigenindex(n: int, i: int) -> None:
    if not 0 <= i <= n:
        raise ValueError(f"eigenspace index {i} out of range [0, {n}]")


def validate_range(n: int, lo: int, hi: int) -> None:
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"invalid eigenspace range [{lo}, {hi}] for n = {n}")


def eigenvalue(n: int, q: int, i: int) -> int:
    """lambda_i(n,q) = n(q-1) - q*i."""
    _check_eigenindex(n, i)
    return n * (q - 1) - q * i


def krawtchouk(n: int, q: int, i: int, d: int) -> int:
    _check_eigenindex(n, i)
    _check_eigenindex(n, d)
    return sum(
        (-1) ** j * (q - 1) ** (i - j) * comb(d, j) * comb(n - d, i - j)
        for j in range(i + 1)
    )


@lru_cache(maxsize=None)
def krawtchouk_table(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """table[i][d] = K_i(d) for the (n,q) Hamming scheme."""
    return tuple(
        tuple(krawtchouk(n, q, i, d) for d in range(n + 1)) for i in range(n + 1)
    )


def eigenspace_dimension(n: int, q: int, i: int) -> int:
    """dim U_i(n,q) = C(n,i)(q-1)^i, cross-checked against trace E_i = K_i(0)."""
    dim = comb(n, i) * (q - 1) ** i
    if dim != krawtchouk(n, q, i, 0):
        raise RuntimeError(f"dim U_{i}({n},{q}) = {dim} disagrees with K_{i}(0)")
    return dim


def _split_last(g: list[int], q: int) -> tuple[list[list[int]], list[int]]:
    """The fibers g[s::q] of the last coordinate and their elementwise sum.

    Concatenating the fibers moves the last coordinate to the front, so n
    successive passes over an array of q^n entries restore index order.
    """
    fibers = [g[s::q] for s in range(q)]
    return fibers, list(map(sum, zip(*fibers)))


def _graded(f: GridFunction) -> list[list[int]]:
    """graded[w] = f.den * q^n * E_w f as integers, for w = 0..n."""
    n, q = f.n, f.q
    graded = [f.nums]
    for _ in range(n):
        out = []
        prev_fibers: list[list[int]] = []
        prev_sums: list[int] = []
        for w, g in enumerate(graded):
            fibers, sums = _split_last(g, q)
            if w == 0:
                out.append(sums * q)
            else:
                # mean part of weight w plus deviation part of weight w-1
                out.append([
                    t + q * v - u
                    for fiber in prev_fibers
                    for v, u, t in zip(fiber, prev_sums, sums)
                ])
            prev_fibers, prev_sums = fibers, sums
        out.append([q * v - u for fiber in prev_fibers for v, u in zip(fiber, prev_sums)])
        graded = out
    return graded


def project_eigenspace(f: GridFunction, i: int) -> GridFunction:
    """E_i f, read off the graded transform."""
    _check_eigenindex(f.n, i)
    return GridFunction._reduced(f.n, f.q, _graded(f)[i], f.den * f.q**f.n)


def project_span(f: GridFunction, lo: int, hi: int) -> GridFunction:
    """(E_lo + ... + E_hi) f, the projection onto U_[lo,hi]."""
    validate_range(f.n, lo, hi)
    nums = map(sum, zip(*_graded(f)[lo : hi + 1]))
    return GridFunction._reduced(f.n, f.q, nums, f.den * f.q**f.n)


def decompose(f: GridFunction) -> list[GridFunction]:
    """All projections [E_0 f, ..., E_n f]; they sum back to f exactly."""
    scale = f.den * f.q**f.n
    return [GridFunction._reduced(f.n, f.q, g, scale) for g in _graded(f)]


def spectral_profile(f: GridFunction) -> tuple[int, ...]:
    """Indices i with E_i f != 0 (the empty tuple for the zero function)."""
    return tuple(i for i, g in enumerate(_graded(f)) if any(g))


def in_direct_sum(f: GridFunction, lo: int, hi: int) -> bool:
    """Whether f lies in U_[lo,hi](n,q), by the annihilator in A.

    The zero function belongs to every subspace; callers that need a
    nonzero function must check support separately.
    """
    validate_range(f.n, lo, hi)
    nums = f.nums
    for t in range(lo, hi + 1):
        if not any(nums):
            break
        lam = eigenvalue(f.n, f.q, t)
        adj = _apply_adjacency_int(nums, f.n, f.q)
        nums = [a - lam * v for a, v in zip(adj, nums)]
    return not any(nums)


def apply_adjacency(f: GridFunction) -> GridFunction:
    """(Af)(x) = sum of f over the neighbors of x."""
    out = _apply_adjacency_int(f.nums, f.n, f.q)
    return GridFunction._reduced(f.n, f.q, out, f.den)


def _apply_adjacency_int(nums: list[int], n: int, q: int) -> list[int]:
    out = [0] * len(nums)
    for _ in range(n):
        fibers, sums = _split_last(nums, q)
        out = [
            o + t - v
            for s, fiber in enumerate(fibers)
            for o, v, t in zip(out[s::q], fiber, sums)
        ]
        nums = [v for fiber in fibers for v in fiber]
    return out


def is_eigenfunction(f: GridFunction, i: int) -> bool:
    """Whether A f = lambda_i(n,q) f exactly (vacuously true for f = 0)."""
    _check_eigenindex(f.n, i)
    lam = eigenvalue(f.n, f.q, i)
    return _apply_adjacency_int(f.nums, f.n, f.q) == [lam * v for v in f.nums]
