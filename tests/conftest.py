"""Shared helpers: seeded random instances and independent oracles.

The random instance generators live in `hammingsupport.claims` and are
re-exported here.

The oracles deliberately avoid the library's optimized code paths:
adjacency goes through explicit neighbor lists, and eigenspace projection
through Lagrange interpolation in the adjacency operator, so agreement with
the graded transform and the slice descent is a genuine cross-check.  The
`fraction_*` oracles do the vector-space operations entry by entry on plain
lists of Fractions, against GridFunction's integer (nums, den) passes.
"""

from fractions import Fraction
from itertools import product

import pytest

from hammingsupport import GridFunction, eigenvalue, neighbors
from hammingsupport.claims import (  # noqa: F401  re-exported for the test modules
    random_factors,
    random_family_instance,
    random_member,
    random_values,
)


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


def fraction_add(a, b):
    return [x + y for x, y in zip(a, b)]


def fraction_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def fraction_scale(a, c):
    return [c * x for x in a]


def fraction_tensor(a, b):
    return [x * y for x in a for y in b]


def fraction_permute(a, n, q, sigma):
    """x |-> a(x[sigma[0]], ..., x[sigma[n-1]]) over words in index order."""
    out = []
    for x in product(range(q), repeat=n):
        index = 0
        for p in range(n):
            index = index * q + x[sigma[p]]
        out.append(a[index])
    return out


def fraction_restrict(a, n, q, r, k):
    """The entries whose word has symbol k at coordinate r, in index order."""
    return [v for x, v in zip(product(range(q), repeat=n), a) if x[r] == k]


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


def is_orbit_minimal(chosen, maps):
    """Brute force: no index map sends the sorted set `chosen` to a smaller sorted set."""
    for g in maps:
        image = sorted(g[v] for v in chosen)
        if image < chosen:
            return False
    return True


@pytest.fixture
def rng():
    import random

    return random.Random(0xC0FFEE)
