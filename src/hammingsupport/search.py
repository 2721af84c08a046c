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
under all automorphisms); a dependency immediately yields an integer kernel
vector, which is returned as the witness after re-validation through the
membership test of `spectra`.

Rank tests on the Gram minor.  P is a symmetric idempotent, so M is
symmetric and M^2 = q^n M.  The Gram matrix of the columns indexed by S is
therefore M[:,S]^T M[:,S] = q^n M[S,S], and those columns are dependent
exactly when the k x k principal minor M[S,S] is singular; a vector is in
the kernel of M[S,S] exactly when it is in the kernel of M[:,S].  Along the
DFS path S the search keeps an LDL^T factorization of M[S,S]; it exists
because only candidates with a nonzero pivot are pushed.  The candidate x
has pivot M[x,x] - sum of t_i(x)^2 / d_i, where t(x) = L^-1 M[S,x] is a
forward substitution and d_i the pivots of S, and
det M[S+x,S+x] = det M[S,S] * pivot.

The factorization is right-looking: when y is pushed as path vertex k
(pivot d_k), it is eliminated at once from every later vertex z > y,

    t_k(z) = M[y,z] - sum over i < k of L[k][i] t_i(z),  L[k][i] = t_i(y) / d_i,
    pivot_{k+1}(z) = pivot_k(z) - t_k(z)^2 / d_k,        pivot_0(z) = M[z,z].

t_k(z) is row k of the forward substitution for z, and pivot_{k+1}(z) its
Schur complement against the first k+1 path vertices, so these are the
numbers a per-candidate substitution computes, found with O(k) passes of
`map` over whole lists per push instead of O(k^2) scalar steps per test.  The
children of the node are exactly the vertices after y, so a rank test is
a lookup of pivot_k(x).

The last level is tested without a push.  With k = s - 2 vertices on the
path, a candidate x that passes its test has children S + [x, z] of size s,
which are tested and never extended.  Beside the pivots, the path keeps
one more residue list per depth: phi_k(z), the Schur complement of z
against the path in a fixed extra row G = w^T M = M w of M's row space
(`_fingerprint`), updated by one more pass per push,

    phi_{k+1}(z) = phi_k(z) - phi_k(y) t_k(z) / d_k,   phi_0(z) = G(z).

Let r(z) be the residual of the column M[:,z] after its orthogonal
projection onto the columns of S.  Then phi_k(z) = w^T r(z), and
pivot_k(z) = r(z)^T r(z) / q^n.  If S + [x, z] is dependent over Q while
S + [x] is not, r(z) = lambda r(x) for a rational lambda (possibly 0), so
phi(z) = lambda phi(x) and d_z = lambda^2 d_x, with d the pivot against S:

    phi(z)^2 d_x = phi(x)^2 d_z.

Both sides are rationals whose denominators divide a power of
det M[S,S], the product of the path pivots, which are units mod p; so the
identity holds mod p too.  A child with phi(z)^2 d_x != phi(x)^2 d_z mod p is therefore
independent, and the check costs O(1) per child (`first_candidate`).  The
tests before the first child that meets the congruence are counted in one
step, which stops the count at the cap when the cap falls inside it.  From
that child on, x is pushed and its remaining children form an ordinary
frame, so confirming a dependency, any false alarm (an independent child
that meets the congruence, or a pivot that is zero mod p) and the
children after it run as at every other level.  So decisions, rank-test
counts and witnesses are those of a search that pushes every parent.

The factorization is kept modulo a prime p, at first RANK_PRIME < 2^30.  A
pivot that is nonzero mod p proves det M[S+x,S+x] != 0 over Q (rank mod p
never exceeds rank over Q), so every exhaustion, and every lower bound, is
exact.  A pivot that is zero mod p is only a candidate dependency, and the
(k+1)-square integer minor M[S+x,S+x] decides it: a symmetric elimination
over Q without row exchanges, sound because each leading minor
det M[S_i,S_i] is nonzero (every path vertex had a nonzero pivot).  Its
last entry is x's exact pivot.  A true zero yields the witness by
back-substitution on the eliminated rows, scaled to be primitive with its
first entry positive; it spans the one-dimensional kernel of M[:,S+x], so
it is the same witness any exact elimination finds.  A false alarm (p
divides a nonzero determinant) leaves x independent, and the path is
factored again at the next prime, and the next, until every path pivot and
x's pivot are nonzero mod p.  That ends: the exact pivots of S + [x] are
nonzero rationals, and only the finitely many primes that divide one of
the leading minors det M[S_i,S_i] or det M[S+x,S+x] can make one of them
vanish mod p.  The search then stays at that prime.  So decisions,
rank-test counts and witnesses are those of an exact search, at any prime.

Each path vertex keeps the three lists t_k, pivot_{k+1} and phi_{k+1}, of
q^n residues each (zero below y).  At most s - 2 vertices are pushed, and
s - 1 while a last-level vertex is pushed for a candidate, so with pivot_0
and phi_0 that is at most (3s - 1) q^n residues in all.  G itself is kept
in integers, once per (n, q, lo, hi).  An exact check holds the upper
triangle of one (k+1)-square minor, k < s, while it runs.

Orbit pruning skips sets that some automorphism g fixing the zero word maps
to a lexicographically smaller set.  Minimality under one map g is
inherited by prefixes: if sorted g(P) < P for a prefix P of a sorted set S,
adding elements to P only lowers the order statistics of its image, so
sorted g(S) < S as well.  Hence the lexicographically least member of every
orbit is reached together with all its prefixes, and since automorphisms
preserve the subspace, pruning never changes any decision, only the node
count.  The same holds for any subset of the stabilizer, which only prunes
less: the table holds involutions only, the transpositions of the
stabilizer and the products of commuting pairs of them, cut at a fixed
number of map entries (`_pruning_maps`).

Canonicity is decided in one pass per node, not once per child.  Let P be
the orbit-minimal prefix at a node, T = sorted g(P) >= P, and x > P[-1] a
child; sorted g(P + [x]) is T with g(x) inserted.  If T == P, it is smaller
than P + [x] exactly when g(x) < x.  Otherwise let r be the first position
with T[r] > P[r].  Every child with g(x) < P[r] gives a smaller image, every
child with g(x) > P[r] a larger one, and the single tie child
x = g^-1(P[r]) is decided by comparing sorted g(P + [x]) with P + [x]
directly.  The union of these sets over all maps is exactly the set of
children that are not orbit-minimal.  The node's pass removes them from
the candidates it is given, and the DFS walks the list that is left.

Most of that work is inherited down the tree.  For sorted sets of equal
size, A < B exactly when the least element of their symmetric difference
lies in A.  Below P, every vertex y with g(y) < P[r] stays a non-minimal
child at every descendant D: under P[r], g(D + [y]) holds P[:r] and g(y),
while D + [y] holds only P[:r].  A child x the DFS takes with g(x) > P[r]
leaves r, and so the tie child, as they were.  So each node only revisits
the maps that fix its prefix and the maps whose tie child it took; a map
whose tie child falls behind the prefix needs no further work.

Nothing a node keeps but its children depends on its candidates, so
canonicity runs last.  The children of a vertex x are the vertices after
x, then those the slice deficits (below) allow, then the orbit-minimal
ones among those; a node is made only when the filter leaves something,
and a vertex with no children is never pushed.  Every node, the root [0]
included, is made within its search, as a child of the empty node that
holds every map; only the map table is kept per (n, q).  With pruning off
no node is built and the children are plain ranges.

Slice deficits prune with the orbits.  Let f be a nonzero member of
U_[lo,hi](n,q), fix a coordinate, and let f_a be the slice with that
coordinate equal to a, a function on n - 1 coordinates.  With that
coordinate split off, the eigenspace E_t(n) is the sum of
constants (x) E_t(n-1) and (constants)^perp (x) E_{t-1}(n-1).  Reading
symbol a sends the first part into E_t(n-1) and the second into
E_{t-1}(n-1), so f_a lies in U_[lo-1,hi]; reading a minus reading b
vanishes on constants, so f_a - f_b lies in U_[lo-1,hi-1] (windows clipped
to [0, n-1]; these are the descent rules of `reduction`).  If exactly one
slice f_b is nonzero, f = e_b (x) f_b, and e_b has a nonzero part in both
summands of the one-coordinate space; so each nonzero part of f_b in
E_t(n-1) puts nonzero parts of f in E_t(n) and E_{t+1}(n), both t and
t + 1 lie in [lo, hi], and f_b lies in U_[lo,hi-1].  Let m3, m1 and m0 be
lower bounds on the least support of those three spaces.  For each
coordinate one case holds:

    (A) every slice is nonzero, and each has at least m3 points;
    (B) some slice is zero, so every nonzero slice, being its difference
        with that one, has at least m1 points; either exactly one slice is
        nonzero (at least m0 points), or at least two are, which needs
        q >= 3 since a zero slice is left over.

The cases give the recursion min(q m3, m0, 2 m1 if q >= 3), with m3, m1
and m0 its own values at n - 1, inf on an empty window and 1 at n = 0.
`slice_lower(n, q, lo, hi)` is its closed form.  Clip the window to
[0, n] and let a = lo, b = n - hi and V(a, b) = q^b 2^max(0, a - b); the
recursion equals V, by induction on n.  At n = 0, a = b = 0 and V = 1.
At n >= 1 the three windows, clipped to [0, n - 1], give

    m3 = V(max(a - 1, 0), max(b - 1, 0)),
    m1 = V(max(a - 1, 0), b), or inf when hi = 0,
    m0 = V(a, b), or inf when lo = hi,

so q m3 = V when b >= 1 and q m3 = q 2^max(a - 1, 0) >= V when b = 0,
2 m1 = q^b 2^(1 + max(0, a - 1 - b)) >= V, and m0 >= V.  Every term is
at least V and one equals it: q m3 when b >= 1; when b = 0 < a, 2 m1 for
q >= 3, or q m3 = 2^a for q = 2; m0 when a = b = 0.  The bound reads
nothing the search found and never the paper's formula, so it is the one
lower bound the search knows.  With i = lo and j = hi, it meets the
paper's value 2^i (q-1)^i q^(n-i-j) (i + j <= n) when i = 0 and
2^i (q-1)^(n-j) (i + j > n) when j = n, and falls short of them by
(2(q-1)/q)^i and (2(q-1)/q)^(n-j) elsewhere, factors that are 1 at q = 2.

For a path S and a coordinate, let c_a count the vertices of S in slice
a.  A support C that contains S has at least c_a points in slice a, so
it adds at least sum of max(0, m3 - c_a) points in case (A).  Case (B)
needs some c_a = 0: with two or more occupied slices it adds at least
sum over them of max(0, m1 - c_a); with one occupied slice of c points,
at least min(max(0, m0 - c), max(0, m1 - c) + m1), the second only at
q >= 3.  When the lesser of the two cases exceeds s - |S| at some
coordinate, no support of size <= s contains S, and S is dropped before
its rank test: the children of every vertex, the root included, before
canonicity looks at them.  The zero word alone has deficit
`slice_lower` - 1 at every coordinate, so it is ruled out exactly when
s < `slice_lower`; the search then returns at once, and under pruning
`find_minimum` starts at s = `slice_lower`.  If
some nonzero member has support <= s, some circuit (a minimal dependent
set, so the support of a member) of size <= s holds the zero word.  The
least such circuit in DFS order meets every bound, its proper prefixes
are independent, and every image of it under the maps is such a circuit
too, so it is orbit-minimal: it and its prefixes survive both prunings,
and an exhaustion still proves that nothing of support <= s exists.  At
s = the minimum every dependent set the plain DFS meets is such a
circuit, so its first one is the least, the pruned DFS meets it first
too, and the witness is the same.  The counts are read off the path each
time a vertex's children are listed, O(n |S|) with |S| < s, so no state
follows the path.  They give the allowed symbols of each coordinate.  A
deficit depends only on the multiset of counts, so it is evaluated once
per distinct count, at most |S| + 1 times at O(q) each, and cached by the
counts; a child's symbol is read by index arithmetic, on the coordinates
that rule a symbol out only.
`symmetry_pruning=False` turns both prunings off: the plain DFS is the
reference.

The depth-first search keeps an explicit stack of (node, remaining
children) frames, the first holding the empty node and the zero word
alone, so the depth of a path is not bounded by Python's recursion limit.
Budgets count rank tests, not wall time, so runs are reproducible.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations, compress, filterfalse, islice, repeat
from math import gcd, inf, isqrt
from operator import floordiv, itemgetter, le, mod, mul, sub
from typing import Optional

from .core import GridFunction, validate_shape, word_map
from . import spectra

# Pruning tables hold at most MAX_MAP_ENTRIES map entries in all; a larger
# table is cut, which is sound and only prunes less.
MAX_MAP_ENTRIES = 2**20

# Rank tests start modulo this prime (2^30 - 35); zeros are confirmed over Q,
# and a false alarm moves the search to the next prime.  Residues fit one
# 30-bit digit of a Python int, which multiplies fastest.
RANK_PRIME = 1_073_741_789


class SearchStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    max_support: Optional[int] = None   # ceiling for find_minimum (None: q^n)
    max_subsets: Optional[int] = None   # cap on rank tests (None: unlimited)
    symmetry_pruning: bool = True

    def __post_init__(self):
        for name in ("max_support", "max_subsets"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    witness: Optional[GridFunction]
    subsets_examined: int


@dataclass(frozen=True)
class MinimumReport:
    minimum: Optional[int]
    witness: Optional[GridFunction]
    lower: int                  # minimum is known to be >= lower
    upper: Optional[int]        # and == upper when conclusive
    conclusive: bool
    subsets_examined: int


@lru_cache(maxsize=8)
def _word_codes(n: int, q: int) -> tuple[tuple[int, ...], int, int]:
    """Packed words, with d(x,y) = popcount(((codes[x] ^ codes[y]) + low) & guard).

    Each symbol takes a field of w = bit_length(q - 1) bits plus a guard
    bit.  A field of the XOR holds v < 2^w, and v + 2^w - 1 sets the guard
    bit exactly when v != 0, without a carry into the next field.
    """
    w = (q - 1).bit_length()
    codes = [0]
    for _ in range(n):
        codes = [c << (w + 1) | b for c in codes for b in range(q)]
    low = sum((1 << w) - 1 << p * (w + 1) for p in range(n))
    guard = sum(1 << w << p * (w + 1) for p in range(n))
    return tuple(codes), low, guard


@lru_cache(maxsize=8)
def _complement_kernel(n: int, q: int, lo: int, hi: int) -> tuple[int, ...]:
    inside = [sum(spectra.krawtchouk(n, q, t, d) for t in range(lo, hi + 1)) for d in range(n + 1)]
    return tuple((q**n if d == 0 else 0) - inside[d] for d in range(n + 1))


@lru_cache(maxsize=8)
def _fingerprint(n: int, q: int, lo: int, hi: int) -> tuple[int, ...]:
    """G = M w, for the fixed product w = w_0 (x) ... (x) w_{n-1}, w_j(a) = 31 (a+1)^3 + (j+1)^2 (a+1) + j.

    M = q^n I - sum over t in [lo,hi] of q^n E_t.  q^n E_t is the sum over
    |S| = t of (q P1 on S) (x) (q P0 off S) (`spectra`), which acts on the
    product w factor by factor: with m_j = J w_j and d_j = q w_j - J w_j,
    q^n E_t w is the coefficient of u^t in (m_0 + u d_0) (x) ... (x) (m_{n-1} + u d_{n-1}).
    It is expanded one coordinate at a time, one array per degree: degree t
    becomes (degree t) (x) m_j + (degree t - 1) (x) d_j, so a degree never
    falls and rises by at most one per coordinate.  One above hi, or below
    lo - c with c coordinates to come, never reaches [lo, hi] and is not
    formed.  G = q^n w - (arrays lo..hi) lies in M's row space, so every column
    dependency of M holds on G.  Each factor has distinct entries,
    increasing in a, and no two factors are proportional, so no
    automorphism but the identity fixes w.  Factors with
    small entries collide more often in `_GramPath.first_candidate`: on the
    plain q^n <= 64 grid (tests/grid.py) these give 121 candidates in 93340
    last-level parents, 40 of them independent over Q, against 803
    candidates for w_j(a) = (a + 1)(a + j + 2); a scaled copy of one factor
    per coordinate gave tens of thousands.
    """
    w, degrees, zero = [1], {0: [1]}, repeat(0)
    for j in range(n):
        factor = [31 * (a + 1) ** 3 + (j + 1) ** 2 * (a + 1) + j for a in range(q)]
        w = [v * x for v in w for x in factor]
        mean = sum(factor)
        deviation = [q * x - mean for x in factor]
        old, degrees = degrees, {}
        for t in range(max(lo - (n - 1 - j), 0), min(hi, j + 1) + 1):
            pairs = zip(old.get(t, zero), old.get(t - 1, zero))
            degrees[t] = [mean * v + u * x for v, u in pairs for x in deviation]
    inside = map(sum, zip(*degrees.values()))
    return tuple(map(sub, map((q**n).__mul__, w), inside))


@lru_cache(maxsize=8)
def _pruning_maps(n: int, q: int) -> tuple[array, ...]:
    """Involutions of the vertices that fix the zero word, as index arrays.

    The stabilizer of the zero word is the group of maps (tau, sigma): a
    coordinate permutation tau with one symbol permutation sigma_j fixing 0
    per coordinate (`core.word_map`).  The table holds its transpositions,
    generated lazily: the C(n,2) coordinate transpositions, then, per
    coordinate, the C(q-1,2) swaps of two nonzero symbols.  After them come
    the products g h of the pairs of those that commute, in `combinations`
    order, each pair judged by what its two maps swap (`_commute`); each
    product is again an involution, and none is the identity or a map listed
    before it.  The list is cut at MAX_MAP_ENTRIES // q^n maps, which
    is sound and only prunes less.  That bounds memory, since each map is an
    array of q^n indices, of one byte each up to 256 vertices and two bytes
    above, and the loops over maps that each search node runs.
    """
    size = q**n
    cap = MAX_MAP_ENTRIES // size
    typecode = "B" if size <= 256 else "H"  # q^n <= MAX_VERTICES = 2^16
    identity = range(q)

    def transpositions():
        for a, b in combinations(range(n), 2):
            tau = list(range(n))
            tau[a], tau[b] = b, a
            yield (None, a, b), word_map(n, q, tau)
        for j in range(n):
            for a, b in combinations(range(1, q), 2):
                swap = list(identity)
                swap[a], swap[b] = b, a
                yield (j, a, b), word_map(n, q, range(n), [identity] * j + [swap] + [identity] * (n - 1 - j))

    swaps = [(what, array(typecode, g)) for what, g in islice(transpositions(), cap)]
    products = (
        array(typecode, map(g.__getitem__, h))
        for (u, g), (v, h) in combinations(swaps, 2) if _commute(u, v)
    )
    return tuple(chain((g for _, g in swaps), islice(products, cap - len(swaps))))


def _commute(u: tuple, v: tuple) -> bool:
    """Whether two transpositions of `_pruning_maps` commute, read off what they swap.

    (None, a, b) swaps coordinates a and b, and (j, a, b) the nonzero
    symbols a and b at coordinate j.  u comes before v in the table, where
    every coordinate swap comes before every symbol swap, so v is a
    coordinate swap only when u is one too.  The stabilizer of the zero word
    acts faithfully on the words, so maps commute exactly when the group
    elements do: two coordinate swaps when they are disjoint; a coordinate
    swap tau and a symbol swap at k when tau fixes k, since tau moves the
    symbol swap to coordinate tau(k); two symbol swaps when they sit at
    different coordinates or are disjoint.
    """
    (j, a, b), (k, c, d) = u, v
    if j is None and k is None:
        return {a, b}.isdisjoint((c, d))
    if j is None:
        return k not in (a, b)
    return j != k or {a, b}.isdisjoint((c, d))


class _Canon:
    """The orbit-minimal children of one DFS node; see the module docstring.

    `children` lists, in their given order, the candidates x passed to
    `child` for which prefix + [x] is orbit-minimal; `child` finds them in
    one pass when it makes the node.  Every map is an involution, its own
    inverse (`_pruning_maps`), and the node reads g^-1 off g itself.
    `fixers` holds the maps g that fix the prefix setwise.  Every other map
    g has a first position r where sorted g(prefix) exceeds the prefix;
    while its tie child t = g[prefix[r]] lies ahead, it is kept as (g, r) in
    `ties[t]`, and r and t stay put until the DFS takes t.  `thresholds` is
    the union of {y : g(y) < prefix[r]} = g[:prefix[r]] over every such
    map, here or at an ancestor.  Each of those vertices stays a
    non-minimal child all the way down, so the set and the tie buckets are
    shared with descendants and never mutated.  None of this depends on the
    candidates, so the children of a node are the orbit-minimal ones among
    whatever candidates it is given.
    """

    __slots__ = ("prefix", "fixers", "children", "ties", "thresholds")

    def __init__(self, prefix: list[int], fixers: list, children: list[int], ties: dict,
                 thresholds: frozenset):
        self.prefix = prefix
        self.fixers = fixers
        self.children = children
        self.ties = ties
        self.thresholds = thresholds

    def child(self, x: int, candidates) -> "_Canon":
        """The node prefix + [x], for a child x, and its orbit-minimal children among `candidates`.

        `candidates` are vertices after x in increasing order.
        """
        prefix = self.prefix + [x]
        fixers = []
        moved = []  # maps whose r or tie child changes at this step
        for g in self.fixers:
            if g[x] == x:
                fixers.append(g)
            else:  # g(x) > x, since x is a child
                moved.append((g, len(prefix) - 1))
        taken = self.ties.get(x)  # the maps whose tie child is x
        if taken:
            members = itemgetter(*prefix)  # prefix holds 0 and x, so members(g) is a tuple
            for g, r in taken:
                image = sorted(members(g))
                if image == prefix:
                    fixers.append(g)
                    continue
                while image[r] == prefix[r]:
                    r += 1
                moved.append((g, r))
        new_ties: dict[int, list] = {}
        raised = set()  # the new thresholds
        for g, r in moved:
            raised.update(g[:prefix[r]])
            tie = g[prefix[r]]
            if tie > x:
                new_ties.setdefault(tie, []).append((g, r))
        ties = {t: bucket for t, bucket in self.ties.items() if t > x}
        for tie, bucket in new_ties.items():
            ties[tie] = ties[tie] + bucket if tie in ties else bucket
        thresholds = self.thresholds.union(raised) if raised else self.thresholds

        # the pass: thresholds, then descents of the fixers, then the tie buckets
        children = list(filterfalse(thresholds.__contains__, candidates))
        for g in fixers:
            children = list(compress(children, map(le, children, map(g.__getitem__, children))))
        for t, bucket in ties.items():
            if t in children and _tie_smaller(prefix, bucket, t):
                children.remove(t)
        return _Canon(prefix, fixers, children, ties, thresholds)


def _tie_smaller(prefix: list[int], bucket: list, z: int) -> bool:
    """Whether some map whose tie child is z sends prefix + [z] to a smaller set."""
    members = prefix + [z]
    image = itemgetter(*members)
    for g, _ in bucket:
        if sorted(image(g)) < members:
            return True
    return False


def slice_lower(n: int, q: int, lo: int, hi: int) -> float:
    """A lower bound on the support of every nonzero f in U_[lo,hi](n,q), by the descent rules.

    The window is clipped to [0, n]; an empty one holds only zero, and
    gives inf.  Otherwise the bound is q^(n-hi) 2^max(0, lo+hi-n), the
    closed form of the recursion on the slices of f at one coordinate:
    all nonzero (q m3 points), exactly one nonzero (m0), or at least two
    nonzero and one zero, which needs q >= 3 (2 m1).  The module docstring
    proves the two equal.  The value never reads the paper's formula.
    """
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return inf
    return q ** (n - hi) * 2 ** max(0, lo + hi - n)


def _least_support(n: int, q: int, lo: int, hi: int, budget: SearchBudget) -> int:
    """The least s at which a search for support <= s runs a rank test; see the module docstring."""
    return slice_lower(n, q, lo, hi) if budget.symmetry_pruning else 1


def _deficit(counts: list[int], m3: float, m1: float, m0: float) -> float:
    """The fewest points a support with these slice counts at one coordinate still lacks."""
    q = len(counts)
    every = sum(m3 - c for c in counts if c < m3)  # (A) every slice nonzero
    occupied = [c for c in counts if c]
    if len(occupied) == q:
        return every  # (B) needs a zero slice
    if len(occupied) > 1:
        return min(every, sum(m1 - c for c in occupied if c < m1))
    c = occupied[0]
    one = max(0, m0 - c)  # the only nonzero slice
    if q >= 3:  # or a second nonzero slice outside the path
        one = min(one, max(0, m1 - c) + m1)
    return min(every, one)


@lru_cache(maxsize=4096)
def _allowed_symbols(counts: tuple[int, ...], slack: int, bounds: tuple) -> Optional[tuple]:
    """Whether each symbol keeps the deficit of counts plus one point <= slack; None if all do.

    Symbols with equal counts give the same multiset of grown counts, so one
    deficit per distinct count decides them all.
    """
    verdicts = {}
    for c in set(counts):
        grown = list(counts)
        grown[counts.index(c)] += 1
        verdicts[c] = _deficit(grown, *bounds) <= slack
    return None if all(verdicts.values()) else tuple(map(verdicts.__getitem__, counts))


class _SliceFilter:
    """The candidates that slice deficits allow below a DFS path of a search for support <= s.

    `allowed(path, candidates)` keeps the x for which no coordinate's
    deficit of path + [x] exceeds s - |path + [x]|.  It counts the path's
    symbols at each coordinate afresh, O(n |path|) with |path| < s, and
    reads each candidate's symbol by index arithmetic on the coordinates
    where some symbol is ruled out only.
    """

    __slots__ = ("q", "s", "bounds", "weights")

    def __init__(self, n: int, q: int, lo: int, hi: int, s: int):
        self.q, self.s = q, s
        # (m3, m1, m0): slice_lower of U_[lo-1,hi], U_[lo-1,hi-1] and U_[lo,hi-1] at n - 1
        self.bounds = (slice_lower(n - 1, q, lo - 1, hi), slice_lower(n - 1, q, lo - 1, hi - 1),
                       slice_lower(n - 1, q, lo, hi - 1))
        self.weights = [q ** (n - 1 - r) for r in range(n)]  # coordinate 0 most significant

    def allowed(self, path: list[int], candidates):
        """The candidates that pass the deficit test below `path`, in order."""
        q, slack, bounds = self.q, self.s - len(path) - 1, self.bounds
        for w in self.weights:
            counts = [0] * q
            for v in path:
                counts[v // w % q] += 1
            symbols = _allowed_symbols(tuple(counts), slack, bounds)
            if symbols is not None:
                digits = map(mod, map(floordiv, candidates, repeat(w)), repeat(q))
                candidates = list(compress(candidates, map(symbols.__getitem__, digits)))
        return candidates


class _BudgetExceeded(Exception):
    pass


class _GramPath:
    """Right-looking LDL^T factorization of the Gram minor M[S,S] along the DFS path S, mod `prime`.

    For the i-th path vertex v_i, cols[i][z] holds t_i(z), entry i of
    L^-1 M[S,z], and inverses[i] the reciprocal of its pivot d_i = t_i(v_i).
    pivots[k][z] is the Schur pivot of z against the first k path vertices, so
    pivots[0][z] = M[z,z].  phis[k][z] is the Schur complement of z in the
    extra row G (`_fingerprint`) against the same k vertices, so
    phis[0][z] = G(z); it is the one number the last level reads besides the
    pivots (`first_candidate`).  The lists of depth i are indexed by vertex
    and filled for z > v_i only; the entries up to v_i are zero padding.
    Every entry is a residue mod `prime`.
    """

    def __init__(self, n: int, q: int, lo: int, hi: int, prime: int):
        self.codes, self.low, self.guard = _word_codes(n, q)
        self.kappa = _complement_kernel(n, q, lo, hi)
        self.fingerprint = _fingerprint(n, q, lo, hi)
        self._start(prime)

    def _start(self, prime: int) -> None:
        """The empty path mod `prime`."""
        self.prime = prime
        self.vertices: list[int] = []
        self.cols: list[list[int]] = []
        self.inverses: list[int] = []
        self.pivots: list[list[int]] = [[self.kappa[0] % prime] * len(self.codes)]
        self.phis: list[list[int]] = [[g % prime for g in self.fingerprint]]

    def _row(self, z: int) -> list[int]:
        """Row of L for z against the path: t_i(z) / d_i."""
        row = map(mul, [col[z] for col in self.cols], self.inverses)
        return list(map(mod, row, repeat(self.prime)))

    def dependency(self, x: int) -> Optional[list[int]]:
        """None when S + [x] is independent over Q, for x > S[-1], else its kernel vector.

        A pivot that is nonzero mod p proves independence.  A zero one is
        checked over Q: a true zero gives the primitive kernel vector of
        M[:,S+x] (`_kernel`), and after a false alarm the path is factored
        again at the next prime at which every path pivot and x's pivot are
        nonzero.
        """
        if self.pivots[-1][x]:
            return None
        rows = self._exact_rows(x)
        if not rows[-1][0]:
            return _kernel(rows)
        path = self.vertices  # _start begins a new list
        while True:
            self._start(_next_prime(self.prime))
            for v in path:
                if not self.pivots[-1][v]:
                    break
                self.push(v)
            else:
                if self.pivots[-1][x]:
                    return None

    def _exact_rows(self, x: int) -> list[list[int]]:
        """The rows of M[S+x,S+x] after elimination; the last one is [x's pivot, up to a factor].

        Symmetric Gaussian elimination with no row exchanges: every leading
        minor det M[S_i,S_i] is nonzero, because every path vertex had a
        nonzero pivot.  Row i is kept on columns i..k only, as integer
        numerators over one reduced denominator.  The entry of a later row j
        in column i, which its multiplier needs, is by symmetry entry j of
        row i.  The last row's one entry is a nonzero multiple of x's pivot
        over Q, or 0.
        """
        codes, low, guard, kappa = self.codes, self.low, self.guard, self.kappa
        words = [codes[v] for v in self.vertices + [x]]
        rows = [
            [kappa[(((a ^ b) + low) & guard).bit_count()] for b in words[i:]]
            for i, a in enumerate(words)
        ]
        dens = [1] * len(rows)
        for i, row in enumerate(rows):
            scale = row[0] * dens[i]
            for j in range(i + 1, len(rows)):
                if not row[j - i]:
                    continue
                # row_j - (row[j-i] / row[0]) row_i, over dens[j] * scale
                nums = list(map(sub, map(mul, rows[j], repeat(scale)),
                                map(mul, row[j - i:], repeat(row[j - i] * dens[j]))))
                den = dens[j] * scale
                g = gcd(den, *nums)
                rows[j] = [v // g for v in nums]
                dens[j] = den // g
        return rows

    def first_candidate(self, x: int, zs) -> int:
        """The index of the first z in zs that S + [x, z] may depend on; len(zs) if none can.

        For x > S[-1] independent of S, and each z in zs after x.  A z with
        phi(z)^2 d_x != phi(x)^2 d_z mod p, where d is the pivot and phi the
        fingerprint against S, makes S + [x, z] independent over Q, so no
        push is needed to rule it out; see the module docstring.
        """
        p, phi, pivot = self.prime, self.phis[-1], self.pivots[-1]
        d, f = pivot[x], phi[x] * phi[x] % p
        for i, z in enumerate(zs):
            g = phi[z]
            if not (g * g * d - f * pivot[z]) % p:
                return i
        return len(zs)

    def push(self, y: int) -> None:
        """Append y, whose pivot is nonzero, and eliminate it from every z > y."""
        p, codes, low, guard = self.prime, self.codes, self.low, self.guard
        inverse = pow(self.pivots[-1][y], -1, p)
        ahead = y + 1
        words = map(codes[y].__xor__, codes[ahead:])
        distances = map(int.bit_count, map(guard.__and__, map(low.__add__, words)))
        t = list(map(self.kappa.__getitem__, distances))  # M[y, z]
        # a list per depth: a lazy chain of k maps reads the k columns
        # element by element, twice as slow once k is in the hundreds
        for col, factor in zip(self.cols, self._row(y)):
            t = list(map(sub, t, map(mul, repeat(factor), col[ahead:])))
        t = list(map(mod, t, repeat(p)))
        schur = map(sub, self.pivots[-1][ahead:], map(mul, map(mul, t, t), repeat(inverse)))
        phi = self.phis[-1]
        fingerprint = map(sub, phi[ahead:], map(mul, t, repeat(phi[y] * inverse % p)))
        column = [0] * ahead
        column += t
        pivots = [0] * ahead
        pivots += map(mod, schur, repeat(p))
        phis = [0] * ahead
        phis += map(mod, fingerprint, repeat(p))
        self.vertices.append(y)
        self.cols.append(column)
        self.inverses.append(inverse)
        self.pivots.append(pivots)
        self.phis.append(phis)

    def pop(self) -> None:
        self.vertices.pop()
        self.cols.pop()
        self.inverses.pop()
        self.pivots.pop()
        self.phis.pop()


def _kernel(rows: list[list[int]]) -> list[int]:
    """Primitive integer c with M[:,S] c[:-1] + c[-1] M[:,x] = 0, from the rows of `_exact_rows(x)`.

    For rows whose last entry, x's pivot, is zero: back-substitution with
    c[-1] = -1, each step scaled by its pivot to stay integral.  The kernel
    of M[:,S+x] is one-dimensional, so this is the vector any exact
    elimination finds.
    """
    c = [-1]
    for row in reversed(rows[:-1]):
        pivot = row[0]
        c = [-sum(map(mul, row[1:], c))] + [v * pivot for v in c]
        g = gcd(*c)
        c = [v // g for v in c]
    return c


def _next_prime(p: int) -> int:
    """The least prime above p."""
    p += 1
    while not all(p % d for d in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _witness_from_kernel(
    chosen: list[int], coeff: list[int], n: int, q: int
) -> GridFunction:
    nums = [0] * q**n
    for vertex, c in zip(chosen, coeff):
        nums[vertex] = c
    f = GridFunction(n, q, nums)
    return -f if next(filter(None, nums)) < 0 else f


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
    validate_shape(n, q)
    size = q**n
    # the all-zero word is pinned into every candidate set
    if s < _least_support(n, q, lo, hi, budget):
        return SearchOutcome(SearchStatus.EXHAUSTED, None, 0)
    # slice deficits prune with the orbits; the plain DFS is the reference
    slices = _SliceFilter(n, q, lo, hi, s) if budget.symmetry_pruning else None

    gram = _GramPath(n, q, lo, hi, RANK_PRIME)
    limit = budget.max_subsets
    tests = 0

    def charge(k: int) -> None:
        """Count k rank tests; past the cap the count stops at the cap."""
        nonlocal tests
        if limit is not None and tests + k > limit:
            tests = limit
            raise _BudgetExceeded
        tests += k

    def expand(canon: Optional[_Canon], x: int):
        """The node of S + [x] and its children: the vertices after x, then slices, then orbits."""
        children = range(x + 1, size)
        if slices:
            children = slices.allowed(gram.vertices + [x], children)
        if canon and children:
            canon = canon.child(x, children)
            children = canon.children
        return canon, children

    def descend() -> Optional[tuple[list[int], list[int]]]:
        """Depth-first from the zero word, one (node, candidates) frame per depth."""
        # every map fixes the zero word, so the empty node holds them all
        empty = _Canon([], list(_pruning_maps(n, q)), [], {}, frozenset()) if slices else None
        stack: list = [(empty, iter([0]))]
        while stack:
            canon, candidates = stack[-1]
            depth = len(gram.vertices)
            for x in candidates:
                charge(1)
                coeff = gram.dependency(x)
                if coeff is not None:
                    return gram.vertices + [x], coeff
                if depth + 1 == s:
                    continue
                child, kids = expand(canon, x)
                if kids and depth + 2 == s:
                    # the last level: children up to the first candidate need no push
                    first = gram.first_candidate(x, kids)
                    charge(first)
                    kids = kids[first:]
                if not kids:
                    continue
                gram.push(x)
                stack.append((child, iter(kids)))
                break
            else:
                stack.pop()
                if stack:
                    gram.pop()
        return None

    try:
        hit = descend()
    except _BudgetExceeded:
        return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, tests)

    if hit is None:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, tests)
    chosen, coeff = hit
    witness = _witness_from_kernel(chosen, coeff, n, q)
    # re-validate through the membership test before reporting
    if witness.is_zero() or witness.support_size() > s:
        raise RuntimeError(f"kernel vector of support {witness.support_size()}, not 1..{s}")
    if not spectra.in_direct_sum(witness, lo, hi):
        raise RuntimeError(f"kernel vector is not in U_[{lo},{hi}]({n},{q})")
    return SearchOutcome(SearchStatus.FOUND, witness, tests)


def find_minimum(
    n: int,
    q: int,
    lo: int,
    hi: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MinimumReport:
    """Smallest support of a nonzero member of U_[lo,hi](n,q), by linear search.

    The search counts up from `_least_support`: `slice_lower`, or 1 without pruning.
    """
    spectra.validate_range(n, lo, hi)
    validate_shape(n, q)
    ceiling = budget.max_support if budget.max_support is not None else q**n
    total = 0
    for s in range(_least_support(n, q, lo, hi, budget), ceiling + 1):
        left = None if budget.max_subsets is None else budget.max_subsets - total
        outcome = exists_with_support_at_most(n, q, lo, hi, s, replace(budget, max_subsets=left))
        total += outcome.subsets_examined
        if outcome.status is SearchStatus.FOUND:
            found = outcome.witness.support_size()
            if found != s:  # nothing of support below s exists
                raise RuntimeError(f"witness of support {found} at s = {s}")
            return MinimumReport(s, outcome.witness, s, s, True, total)
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            return MinimumReport(None, None, s, None, False, total)
    return MinimumReport(None, None, ceiling + 1, None, False, total)
