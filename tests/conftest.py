"""Shared helpers: seeded random instances and independent oracles.

The oracles deliberately avoid the library's optimized code paths:
adjacency goes through explicit neighbor lists, and eigenspace projection
through Lagrange interpolation in the adjacency operator, so agreement with
the graded transform and the annihilator is a genuine cross-check.
"""

from fractions import Fraction

import pytest

from hammingsupport import (
    GridFunction,
    a1,
    a2,
    a3,
    a4,
    build_F1,
    build_F2,
    eigenvalue,
    neighbors,
    project_span,
)


def random_values(n, q, rng, low=-9, high=9):
    return GridFunction(
        n, q, tuple(Fraction(rng.randint(low, high)) for _ in range(q**n))
    )


def random_member(n, q, lo, hi, rng):
    """A nonzero integer-valued member of U_[lo,hi](n,q)."""
    while True:
        f = project_span(random_values(n, q, rng), lo, hi).scale(q**n)
        if not f.is_zero():
            return f


def random_f1_factors(n, q, i, j, rng):
    out = [a1(rng.randrange(q), rng.randrange(q)) for _ in range(i)]
    out += [a3() for _ in range(n - i - j)]
    out += [a4(rng.randrange(q)) for _ in range(j - i)]
    return out


def random_f2_factors(n, q, i, j, rng):
    out = [a1(rng.randrange(q), rng.randrange(q)) for _ in range(n - j)]
    for _ in range(i + j - n):
        k = rng.randrange(q)
        m = rng.randrange(q - 1)
        out.append(a2(k, m if m < k else m + 1))
    out += [a4(rng.randrange(q)) for _ in range(j - i)]
    return out


def random_family_instance(n, q, i, j, rng, c=1):
    if i + j <= n:
        return build_F1(n, q, i, j, random_f1_factors(n, q, i, j, rng), c)
    return build_F2(n, q, i, j, random_f2_factors(n, q, i, j, rng), c)


def naive_adjacency(f):
    """Adjacency action via explicit neighbor enumeration."""
    return GridFunction.from_callable(
        f.n, f.q, lambda w: sum(f(u) for u in neighbors(w, f.q))
    )


def lagrange_project(f, i):
    """E_i f as the Lagrange polynomial in the adjacency operator.

    E_i = prod over j != i of (A - lambda_j I) / (lambda_i - lambda_j),
    evaluated with the neighbors-list adjacency.
    """
    n, q = f.n, f.q
    out = f
    lam_i = eigenvalue(n, q, i)
    for j in range(n + 1):
        if j == i:
            continue
        lam_j = eigenvalue(n, q, j)
        out = naive_adjacency(out) - out.scale(lam_j)
        out = out.scale(Fraction(1, lam_i - lam_j))
    return out


def fraction_matrix_rank(rows):
    """Plain Gaussian elimination over Fraction; independent of the package."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                factor = m[r][c] / pv
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.fixture
def rng():
    import random

    return random.Random(0xC0FFEE)
