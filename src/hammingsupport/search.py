"""Exhaustive search for the sparsest nonzero member of U_[i,j](n,q).

A nonzero function supported inside a vertex set S exists in U_[lo,hi](n,q)
exactly when the columns of the complement projector

    P = sum of E_t over t outside [lo, hi]

indexed by S are linearly dependent.  Scaled by q^n, P is the integer matrix
M[x][y] = kappa(d(x,y)) with

    kappa(d) = q^n * [d == 0] - sum over t in [lo,hi] of K_t(d),

so the decision "does some nonzero f in U_[lo,hi] have support of size <= s"
reduces to hunting for a dependent column subset of size <= s.  Subsets are
enumerated depth-first in increasing index order with the all-zero word
pinned into S (the graph is vertex-transitive and the subspace is invariant
under all automorphisms), maintaining an incremental fraction-free
elimination of the chosen columns; a dependency immediately yields an
integer kernel vector, which is returned as the witness after re-validation
through the membership test of `spectra`.

Optional orbit pruning skips sets that some automorphism fixing the zero
word maps to a lexicographically smaller set.  Every orbit keeps its
lexicographically minimal representative (minimality is inherited by
prefixes), so pruning never changes any decision, only the node count.

Budgets count rank tests, not wall time, so runs are reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd
from typing import Optional

from .core import GridFunction, all_words, exceeds_vertex_cap, word_to_index
from . import spectra
from .constructions import build_F1, build_F2, min_support_bound, SupportBound

# Full-stabilizer pruning tables above this size fall back to coordinate
# permutations only (still sound, just weaker pruning).
MAX_STABILIZER = 20_000

# The rank tests read columns from a q^2n-byte distance table, so the search
# keeps its own, smaller vertex cap.
MAX_SEARCH_VERTICES = 6000

_BUMP = bytes(min(i + 1, 255) for i in range(256))


class SearchStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    max_support: Optional[int] = None   # ceiling for find_minimum (None: q^n)
    max_subsets: Optional[int] = None   # cap on rank tests (None: unlimited)
    symmetry_pruning: bool = True


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    witness: Optional[GridFunction]
    min_found: Optional[int]
    subsets_examined: int


@dataclass(frozen=True)
class MinimumReport:
    minimum: Optional[int]
    witness: Optional[GridFunction]
    lower: int                  # minimum is known to be >= lower
    upper: Optional[int]        # and == upper when conclusive
    conclusive: bool
    subsets_examined: int


@dataclass(frozen=True)
class LowerBoundReport:
    bound: SupportBound
    holds: Optional[bool]       # None when the search budget ran out
    conclusive: bool
    witness_support: int
    counterexample: Optional[GridFunction]
    subsets_examined: int


def _check_scale(n: int, q: int) -> int:
    """q^n, or ScaleError above the search cap; no huge power is formed."""
    if exceeds_vertex_cap(n, q) or q**n > MAX_SEARCH_VERTICES:
        raise spectra.ScaleError(
            f"q^n = {q}^{n} too large for the rank-test oracle "
            f"(cap {MAX_SEARCH_VERTICES} vertices)"
        )
    return q**n


@lru_cache(maxsize=8)
def _distance_rows(n: int, q: int) -> tuple[bytes, ...]:
    """rows[x][y] = Hamming distance between the words with indices x, y."""
    _check_scale(n, q)
    rows: list[bytes] = [b"\x00"]
    size = 1
    for _ in range(n):
        new_rows: list[bytes] = []
        for row in rows:
            expanded = bytearray(size * q)
            for b in range(q):
                expanded[b::q] = row
            bumped = expanded.translate(_BUMP)
            for a in range(q):
                block = bytearray(bumped)
                block[a::q] = row
                new_rows.append(bytes(block))
        rows = new_rows
        size *= q
    return tuple(rows)


@lru_cache(maxsize=None)
def _complement_kernel(n: int, q: int, lo: int, hi: int) -> tuple[int, ...]:
    table = spectra.krawtchouk_table(n, q)
    inside = [sum(table[t][d] for t in range(lo, hi + 1)) for d in range(n + 1)]
    return tuple((q**n if d == 0 else 0) - inside[d] for d in range(n + 1))


@lru_cache(maxsize=8)
def _pruning_maps(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations fixing the zero word, as index maps.

    Coordinate permutations composed with per-coordinate symbol permutations
    that fix symbol 0; restricted to coordinate permutations alone when the
    full stabilizer would exceed MAX_STABILIZER.
    """
    words = list(all_words(n, q))
    maps = []
    coord_perms = list(permutations(range(n)))
    if factorial(n) * factorial(q - 1) ** n <= MAX_STABILIZER:
        symbol_perms = [(0,) + rest for rest in permutations(range(1, q))]
        choices = list(product(symbol_perms, repeat=n))
    else:
        choices = [tuple(tuple(range(q)) for _ in range(n))]
    identity = tuple(range(q**n))
    for tau in coord_perms:
        for chs in choices:
            mapping = tuple(
                word_to_index(tuple(chs[p][w[tau[p]]] for p in range(n)), q)
                for w in words
            )
            if mapping != identity:
                maps.append(mapping)
    return tuple(maps)


def _is_orbit_minimal(chosen: list[int], maps) -> bool:
    for g in maps:
        image = sorted(g[v] for v in chosen)
        if image < chosen:
            return False
    return True


class _BudgetExceeded(Exception):
    pass


class _Eliminator:
    """Incremental integer column elimination with combination tracking.

    Invariant: every stored column equals the recorded integer combination
    of the original columns pushed so far; a column reducing to zero hands
    back its combination, an exact kernel vector.
    """

    def __init__(self, nrows: int):
        self.nrows = nrows
        self.pivots: list[int] = []
        self.columns: list[list[int]] = []
        self.coeffs: list[list[int]] = []

    def reduce(self, column: list[int], position: int) -> tuple[list[int], list[int]]:
        aug = list(column)
        coeff = [0] * position + [1]
        for pr, bc, bco in zip(self.pivots, self.columns, self.coeffs):
            a = aug[pr]
            if not a:
                continue
            p = bc[pr]
            aug = [x * p - y * a for x, y in zip(aug, bc)]
            width = max(len(coeff), len(bco))
            coeff = [
                (coeff[t] if t < len(coeff) else 0) * p
                - (bco[t] if t < len(bco) else 0) * a
                for t in range(width)
            ]
            g = 0
            for v in aug:
                g = gcd(g, v)
            for v in coeff:
                g = gcd(g, v)
            if g > 1:
                aug = [v // g for v in aug]
                coeff = [v // g for v in coeff]
        return aug, coeff

    def push(self, aug: list[int], coeff: list[int]) -> None:
        pivot = next(t for t, v in enumerate(aug) if v)
        self.pivots.append(pivot)
        self.columns.append(aug)
        self.coeffs.append(coeff)

    def pop(self) -> None:
        self.pivots.pop()
        self.columns.pop()
        self.coeffs.pop()


def _witness_from_kernel(
    chosen: list[int], coeff: list[int], n: int, q: int
) -> GridFunction:
    values = [Fraction(0)] * q**n
    for vertex, c in zip(chosen, coeff):
        values[vertex] = Fraction(c)
    f = GridFunction(n, q, tuple(values))
    first = next(v for v in f.values if v)
    if first < 0:
        f = -f
    return f


def exists_with_support_at_most(
    n: int,
    q: int,
    lo: int,
    hi: int,
    s: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Decide whether some nonzero f in U_[lo,hi](n,q) has support <= s."""
    spectra.validate_range(n, lo, hi)
    size = _check_scale(n, q)
    if s <= 0:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, None, 0)

    kernel = _complement_kernel(n, q, lo, hi)
    rows = _distance_rows(n, q)
    maps = _pruning_maps(n, q) if budget.symmetry_pruning else ()
    limit = budget.max_subsets
    elim = _Eliminator(size)
    tests = 0

    def column(x: int) -> list[int]:
        row = rows[x]
        return [kernel[row[y]] for y in range(size)]

    def reduce_counted(x: int, position: int) -> tuple[list[int], list[int]]:
        nonlocal tests
        if limit is not None and tests >= limit:
            raise _BudgetExceeded
        tests += 1
        return elim.reduce(column(x), position)

    def descend(chosen: list[int], start: int) -> Optional[tuple[list[int], list[int]]]:
        for x in range(start, size):
            extended = chosen + [x]
            if maps and not _is_orbit_minimal(extended, maps):
                continue
            aug, coeff = reduce_counted(x, len(chosen))
            if not any(aug):
                return extended, coeff
            if len(extended) < s:
                elim.push(aug, coeff)
                deeper = descend(extended, x + 1)
                elim.pop()
                if deeper:
                    return deeper
        return None

    try:
        # the all-zero word is pinned into every candidate set
        aug, coeff = reduce_counted(0, 0)
        if not any(aug):
            hit: Optional[tuple[list[int], list[int]]] = ([0], coeff)
        elif s > 1:
            elim.push(aug, coeff)
            hit = descend([0], 1)
        else:
            hit = None
    except _BudgetExceeded:
        return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, None, tests)

    if hit is None:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, None, tests)
    chosen, coeff = hit
    witness = _witness_from_kernel(chosen, coeff, n, q)
    # re-validate through the membership test before reporting
    if witness.is_zero() or witness.support_size() > s:
        raise RuntimeError(f"kernel vector of support {witness.support_size()}, not 1..{s}")
    if not spectra.in_direct_sum(witness, lo, hi):
        raise RuntimeError(f"kernel vector is not in U_[{lo},{hi}]({n},{q})")
    return SearchOutcome(SearchStatus.FOUND, witness, witness.support_size(), tests)


def find_minimum(
    n: int,
    q: int,
    lo: int,
    hi: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MinimumReport:
    """Smallest support of a nonzero member of U_[lo,hi](n,q), by linear search."""
    size = _check_scale(n, q)
    ceiling = budget.max_support if budget.max_support is not None else size
    total = 0
    for s in range(1, ceiling + 1):
        remaining = None
        if budget.max_subsets is not None:
            remaining = max(budget.max_subsets - total, 0)
        step = SearchBudget(
            max_support=budget.max_support,
            max_subsets=remaining,
            symmetry_pruning=budget.symmetry_pruning,
        )
        outcome = exists_with_support_at_most(n, q, lo, hi, s, step)
        total += outcome.subsets_examined
        if outcome.status is SearchStatus.FOUND:
            if outcome.min_found != s:  # s-1 was exhausted already
                raise RuntimeError(f"witness of support {outcome.min_found} at s = {s}")
            return MinimumReport(s, outcome.witness, s, s, True, total)
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            return MinimumReport(None, None, s, None, False, total)
    return MinimumReport(None, None, ceiling + 1, None, False, total)


def verify_lower_bound(
    n: int,
    q: int,
    lo: int,
    hi: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> LowerBoundReport:
    """Check the formula bound exhaustively below and constructively at it."""
    bound = min_support_bound(n, q, lo, hi)
    below = exists_with_support_at_most(n, q, lo, hi, bound.value - 1, budget)
    if lo + hi <= n:
        attained = build_F1(n, q, lo, hi)
    else:
        attained = build_F2(n, q, lo, hi)
    witness_support = attained.support_size()
    witness_ok = witness_support == bound.value and spectra.in_direct_sum(
        attained, lo, hi
    )
    if below.status is SearchStatus.FOUND:
        return LowerBoundReport(
            bound, False, True, witness_support, below.witness, below.subsets_examined
        )
    if below.status is SearchStatus.EXHAUSTED:
        return LowerBoundReport(
            bound, bool(witness_ok), True, witness_support, None, below.subsets_examined
        )
    return LowerBoundReport(
        bound, None, False, witness_support, None, below.subsets_examined
    )
