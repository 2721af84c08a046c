"""Spectral decomposition of functions on H(n,q), in exact arithmetic.

The adjacency operator A of H(n,q) has the n+1 eigenvalues

    lambda_i(n,q) = n(q-1) - q*i,   i = 0, ..., n,

with eigenspaces U_i(n,q) and orthogonal projectors E_i.  Both integer
passes below split one coordinate at a time into its constants and its
zero-sum vectors: a graded tensor transform builds projections, and a slice
descent decides membership and the spectral profile without building any
projection.  There is no separate adjacency pass: A f is the sum of
lambda_w E_w f read off the graded transform, and since the lambda_w are
distinct, f is a lambda_i-eigenfunction exactly when it lies in U_i.

Graded transform.  On a single coordinate, Q^q splits into the constants,
the range of P0 = J/q (J the all-ones q x q matrix), and the zero-sum
vectors, the range of P1 = I - J/q.  H(n,q) is the Cartesian product of n
copies of K_q, whose adjacency J - I is q-1 on constants and -1 on zero-sum
vectors.  So the tensor product with P1 on a coordinate set S and P0 on the
rest projects into the eigenspace of eigenvalue
(n-|S|)(q-1) - |S| = lambda_|S|.  These 2^n products are orthogonal
idempotents that sum to the identity, hence

    E_w = sum over |S| = w of (P1 on S) (x) (P0 off S).

`_graded(f, top)` evaluates the sums of weight w < top in one sweep.  It
starts from the integer numerators of f over its denominator den and keeps
one integer array per weight w.  A pass over a coordinate replaces the
array g of weight w by its mean part J g, kept at weight w, and its
deviation part q g - J g, moved to weight w+1.  These are q P0 g and
q P1 g.  After n passes each set S has been applied along exactly one path
(deviation on S, mean elsewhere), each pass contributed one factor q, and
only integer additions and multiplications were used.  So array w is
exactly den * q^n * E_w f.  No pass moves an array to a lower weight, so an
array of weight top or more is dropped as it appears: each caller passes
one more than the highest weight it reads (i + 1 for E_i f, n + 1 for all
of them).  The cost is O(n * top * q^n) and no table is built.

Slice descent.  Split f on its last coordinate into the slices
f_0, ..., f_{q-1}, functions on H(n-1,q), and let e_k be the point mass at
symbol k on that coordinate.  With m = (f_0 + ... + f_{q-1})/q and
d_k = f_k - m,

    f = m (x) 1 + sum over k of d_k (x) e_k,    sum over k of d_k = 0,

and by the graded transform with the last coordinate split off,
U_w(n) = U_w(n-1) (x) U_0(1)  +  U_(w-1)(n-1) (x) U_1(1).  Since the d_k
sum to zero, sum d_k (x) e_k = sum d_k (x) (e_k - 1/q) lies in the second
part, so

    E_w f = E_w m (x) 1 + sum over k of E_(w-1) d_k (x) e_k.

Fix any slice r.  The d_k and the differences f_k - f_r span the same space
(f_k - f_r = d_k - d_r and q d_k = sum over j of (f_k - f_r) - (f_j - f_r)),
so E_w f != 0 exactly when E_w of the slice sum is nonzero or E_(w-1) of
some difference f_k - f_r is.  In particular f lies in U_[lo,hi](n) exactly
when the slice sum lies in U_[lo,hi](n-1) and every difference lies in
U_[lo-1,hi-1](n-1), windows clipped to [0, n-1].

`_nonzero_weights` runs this recursion on integer numerators (scaling by
den or q changes no E_w f != 0) over a bitmask of the weights still in
question.  A zero function or an empty question returns at once.  One
coordinate left is closed form: E_0 g is the mean of g and E_1 g its
deviation, so E_0 g != 0 iff the entries do not sum to zero and E_1 g != 0
iff they are not all equal.  Two coordinates left are closed form too: read
g as a q x q table g(a, b).  E_0 g != 0 iff the entries do not sum to zero.
E_1 g is the sum of (P1 (x) P0) g and (P0 (x) P1) g, orthogonal parts, and
(P1 (x) P0) g is the deviation of the row means from their mean, so
E_1 g != 0 iff the row sums are not all equal or the column sums are not.
E_2 g = 0 iff g lies in U_0 + U_1, the functions u(a) + v(b), that is iff
every row differs from the first row by a constant.  When some slice is
zero it is taken as r, so the differences are the nonzero slices
themselves and zero subtrees cost nothing; otherwise r is the last slice.
Membership asks about the weights outside [lo, hi] and stops at the first
nonzero one; the profile asks about all of them and stops once each is
found.  The recursion is at most n + 1 deep, and n <= 16 under the vertex
cap.  A dense member of a single eigenspace keeps nearly every branch open
down to two coordinates, which costs O(n q^n); sparse input, non-members
and wide windows stop far earlier.

There is no tolerance parameter anywhere (exact equality or nothing).  The
graded transform holds at most top integer arrays of q^n entries and the
descent a few times q^n entries along its path; every GridFunction already
has q^n <= core.MAX_VERTICES, which its constructors enforce with
ScaleError.  All functions are pure.
"""

from __future__ import annotations

from math import comb
from operator import add, mul, sub
from typing import Sequence

from .core import GridFunction


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


def eigenspace_dimension(n: int, q: int, i: int) -> int:
    """dim U_i(n,q) = C(n,i)(q-1)^i, which is trace E_i = K_i(0)."""
    _check_eigenindex(n, i)
    return comb(n, i) * (q - 1) ** i


def _split_last(g: list[int], q: int) -> tuple[list[list[int]], list[int]]:
    """The fibers g[s::q] of the last coordinate and their elementwise sum.

    Concatenating the fibers moves the last coordinate to the front, so n
    successive passes over an array of q^n entries restore index order.
    """
    fibers = [g[s::q] for s in range(q)]
    return fibers, list(map(sum, zip(*fibers)))


def _graded(f: GridFunction, top: int) -> list[list[int]]:
    """graded[w] = f.den * q^n * E_w f as integers, for w = 0..min(n, top - 1).

    A pass moves an array to the same weight or the next one, never lower,
    so the arrays of weight top and above feed none below and are dropped as
    soon as they appear.
    """
    n, q = f.n, f.q
    graded = [f.nums]
    for _ in range(n):
        out = []
        prev = None
        # a None past the last array takes the part of it that moves up
        for g in graded + [None] * (len(graded) < top):
            cur = None if g is None else _split_last(g, q)
            # the part of prev that moves up lands with the part of g that stays
            out.append(_parts_sum(prev, cur, q))
            prev = cur
        graded = out
    return graded


def _parts_sum(deviation, mean, q: int) -> list[int]:
    """q P1 g + q P0 h on the last coordinate, from the `_split_last` of g and of h.

    Either may be None for a zero array, not both.
    """
    if deviation is None:
        return mean[1] * q
    fibers, sums = deviation
    if mean is None:
        return [q * v - u for fiber in fibers for v, u in zip(fiber, sums)]
    return [q * v - u + t for fiber in fibers for v, u, t in zip(fiber, sums, mean[1])]


def project_eigenspace(f: GridFunction, i: int) -> GridFunction:
    """E_i f, read off the graded transform."""
    _check_eigenindex(f.n, i)
    return GridFunction._reduced(f.n, f.q, _graded(f, i + 1)[i], f.den * f.q**f.n)


def project_span(f: GridFunction, lo: int, hi: int) -> GridFunction:
    """(E_lo + ... + E_hi) f, the projection onto U_[lo,hi]."""
    validate_range(f.n, lo, hi)
    nums = map(sum, zip(*_graded(f, hi + 1)[lo:]))
    return GridFunction._reduced(f.n, f.q, nums, f.den * f.q**f.n)


def decompose(f: GridFunction) -> list[GridFunction]:
    """All projections [E_0 f, ..., E_n f]; they sum back to f exactly."""
    scale = f.den * f.q**f.n
    return [GridFunction._reduced(f.n, f.q, g, scale) for g in _graded(f, f.n + 1)]


def spectral_profile(f: GridFunction) -> tuple[int, ...]:
    """Indices i with E_i f != 0 (the empty tuple for the zero function)."""
    found = _nonzero_weights(f.nums, f.n, f.q, (2 << f.n) - 1, False)
    return tuple(i for i in range(f.n + 1) if found >> i & 1)


def in_direct_sum(f: GridFunction, lo: int, hi: int) -> bool:
    """Whether f lies in U_[lo,hi](n,q), by the slice descent.

    The zero function belongs to every subspace; callers that need a
    nonzero function must check support separately.
    """
    validate_range(f.n, lo, hi)
    return _in_window(f.nums, f.n, f.q, lo, hi)


def _in_window(g: Sequence[int], n: int, q: int, lo: int, hi: int) -> bool:
    """Membership of the q^n integers g in U_[lo,hi](n, q), the window clipped to [0, n]."""
    lo, hi = max(lo, 0), min(hi, n)
    window = (2 << hi) - (1 << lo) if lo <= hi else 0
    return not _nonzero_weights(g, n, q, ~window, True)


def _nonzero_weights(g: Sequence[int], n: int, q: int, want: int, first: bool) -> int:
    """The bitmask of weights w in the bitmask `want` with E_w g != 0.

    g holds q^n integers.  With `first` the descent stops at the first such
    w, so only the truth value of the result is meaningful.
    """
    want &= (2 << n) - 1
    if not want or not any(g):
        return 0
    if n <= 1:
        # E_0 g is the mean, E_1 g the deviation from it
        found = 1 if want & 1 and sum(g) else 0
        if want & 2 and g.count(g[0]) != q:
            found |= 2
        return found
    if n == 2:
        # g is a q x q table of rows g[a*q : (a+1)*q]
        found = 1 if want & 1 and sum(g) else 0
        rows = [g[a : a + q] for a in range(0, q * q, q)]
        if want & 2:
            row_sums = list(map(sum, rows))
            col_sums = list(map(sum, zip(*rows)))
            if row_sums.count(row_sums[0]) != q or col_sums.count(col_sums[0]) != q:
                found |= 2
        if want & 4:
            # u_a + v_b exactly when every row differs from row 0 by a constant
            top = rows[0]
            for row in rows[1:]:
                d = list(map(sub, row, top))
                if d.count(d[0]) != q:
                    found |= 4
                    break
        return found
    total, diffs = _slice_sum_and_differences(g, q)
    found = _nonzero_weights(total, n - 1, q, want, first)
    for d in diffs:
        if found == want or first and found:
            break
        found |= _nonzero_weights(d, n - 1, q, (want & ~found) >> 1, first) << 1
    return found


def _slice_sum_and_differences(g: Sequence[int], q: int):
    """The sum of the last-coordinate slices of g, and their differences.

    The differences are taken against a zero slice if there is one, so they
    are the nonzero slices themselves; otherwise against the last slice,
    and then each is computed only when the caller asks for it.  g must be
    nonzero.
    """
    slices = [g[k::q] for k in range(q)]
    nonzero = [s for s in slices if any(s)]
    total = nonzero[0]
    for s in nonzero[1:]:
        total = list(map(add, total, s))
    if len(nonzero) < q:
        return total, nonzero
    ref = slices[-1]
    return total, (list(map(sub, s, ref)) for s in slices[:-1])


def apply_adjacency(f: GridFunction) -> GridFunction:
    """(Af)(x) = sum of f over the neighbors of x, as the sum of lambda_w E_w f."""
    lams = [eigenvalue(f.n, f.q, w) for w in range(f.n + 1)]
    nums = (sum(map(mul, lams, column)) for column in zip(*_graded(f, f.n + 1)))
    return GridFunction._reduced(f.n, f.q, nums, f.den * f.q**f.n)


def is_eigenfunction(f: GridFunction, i: int) -> bool:
    """Whether A f = lambda_i(n,q) f exactly (vacuously true for f = 0), that is f in U_i."""
    return in_direct_sum(f, i, i)
