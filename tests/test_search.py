import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, inf
from operator import eq, mul
from pathlib import Path

import pytest

from hammingsupport import (
    GridFunction,
    SearchBudget,
    build_F1,
    build_F2,
    min_support_bound,
    SearchStatus,
    exists_with_support_at_most,
    find_minimum,
    hamming_distance,
    in_direct_sum,
    index_to_word,
    constructions,
    krawtchouk,
    search,
)
from hammingsupport.claims import ClaimFailure, _verify_minimality
from hammingsupport.constructions import f1_support_size, f2_support_size
from hammingsupport.core import ScaleError, word_map

from conftest import fraction_matrix_rank, is_orbit_minimal


def brute_force_exists(n, q, lo, hi, s):
    """Independent decision: Fraction-rank over every support subset."""
    size = q**n
    words = [index_to_word(t, n, q) for t in range(size)]
    inside = [
        sum(krawtchouk(n, q, t, d) for t in range(lo, hi + 1)) for d in range(n + 1)
    ]
    kappa = [(size if d == 0 else 0) - inside[d] for d in range(n + 1)]
    for k in range(1, s + 1):
        for subset in combinations(range(size), k):
            rows = [
                [kappa[hamming_distance(words[y], words[x])] for x in subset]
                for y in range(size)
            ]
            if fraction_matrix_rank(rows) < k:
                return True
    return False


# slice deficits prune the last four below the root
PRUNING_CASES = [
    (2, 3, 1, 1, 3), (2, 3, 1, 1, 4), (2, 3, 0, 1, 2), (2, 3, 0, 1, 3),
    (1, 5, 1, 1, 1), (1, 5, 1, 1, 2), (2, 4, 1, 2, 2), (3, 2, 1, 2, 2),
    (3, 3, 2, 2, 5), (2, 5, 1, 1, 7), (2, 5, 1, 1, 8), (3, 3, 1, 2, 3),
    (4, 2, 1, 2, 4),
]


class TestExists:
    def test_exhausted_below_bound(self):
        outcome = exists_with_support_at_most(2, 3, 1, 1, 3)
        assert outcome.status is SearchStatus.EXHAUSTED
        assert outcome.witness is None

    def test_found_at_bound(self):
        outcome = exists_with_support_at_most(2, 3, 1, 1, 4)
        assert outcome.status is SearchStatus.FOUND
        assert outcome.witness.support_size() == 4
        assert in_direct_sum(outcome.witness, 1, 1)

    def test_found_support_six_open_regime(self):
        outcome = exists_with_support_at_most(3, 3, 2, 2, 6)
        assert outcome.status is SearchStatus.FOUND
        assert outcome.witness.support_size() == 6

    def test_full_range_delta(self):
        outcome = exists_with_support_at_most(2, 3, 0, 2, 1)
        assert outcome.status is SearchStatus.FOUND
        assert outcome.witness.support_size() == 1

    def test_zero_support_vacuous(self):
        outcome = exists_with_support_at_most(2, 3, 1, 1, 0)
        assert outcome.status is SearchStatus.EXHAUSTED
        assert outcome.subsets_examined == 0

    def test_against_unpruned_brute_force(self):
        ranges = {
            (2, 3): ((1, 1), (0, 1), (1, 2), (2, 2)),
            (2, 4): ((1, 1), (0, 1), (1, 2), (2, 2)),
            (3, 2): ((1, 1), (0, 1), (1, 2), (2, 3), (3, 3)),
        }
        for (n, q), pairs in ranges.items():
            for lo, hi in pairs:
                for s in (1, 2, 3):
                    ours = exists_with_support_at_most(n, q, lo, hi, s)
                    assert (ours.status is SearchStatus.FOUND) == brute_force_exists(
                        n, q, lo, hi, s
                    ), (n, q, lo, hi, s)

    def test_pruning_never_changes_decision(self):
        for n, q, lo, hi, s in PRUNING_CASES:
            pruned = exists_with_support_at_most(
                n, q, lo, hi, s, SearchBudget(symmetry_pruning=True)
            )
            plain = exists_with_support_at_most(
                n, q, lo, hi, s, SearchBudget(symmetry_pruning=False)
            )
            assert pruned.status == plain.status
            assert pruned.subsets_examined <= plain.subsets_examined

    def test_budget_exceeded(self):
        outcome = exists_with_support_at_most(
            3, 3, 2, 2, 6, SearchBudget(max_subsets=10)
        )
        assert outcome.status is SearchStatus.BUDGET_EXCEEDED
        assert outcome.subsets_examined == 10

    @pytest.mark.parametrize(
        "n, q, lo, hi, s, prune",
        [
            (3, 3, 2, 2, 5, True),
            (2, 3, 1, 1, 4, True),
            (2, 3, 1, 1, 4, False),
            (3, 3, 2, 2, 6, True),  # found at a last-level zero, after 200 tests
            (2, 5, 1, 1, 7, True),  # exhausted after 137 tests
        ],
    )
    def test_every_budget_boundary(self, n, q, lo, hi, s, prune):
        # a budget of L tests stops after exactly L, wherever the L-th falls
        full = exists_with_support_at_most(n, q, lo, hi, s, SearchBudget(symmetry_pruning=prune))
        assert full.status is not SearchStatus.BUDGET_EXCEEDED
        for limit in range(full.subsets_examined + 2):
            budget = SearchBudget(max_subsets=limit, symmetry_pruning=prune)
            outcome = exists_with_support_at_most(n, q, lo, hi, s, budget)
            if limit < full.subsets_examined:
                assert outcome.status is SearchStatus.BUDGET_EXCEEDED, limit
                assert outcome.subsets_examined == limit
            else:
                assert outcome == full, limit

    def test_deep_path_needs_no_recursion(self):
        # U_0(1,300) is the constants: every proper subset of the 300 columns
        # is independent, so the path grows to 299 vertices, three times the
        # recursion limit, before the budget runs out
        script = (
            "import sys\n"
            "from hammingsupport import SearchBudget, exists_with_support_at_most\n"
            "sys.setrecursionlimit(100)\n"
            "budget = SearchBudget(max_subsets=299, symmetry_pruning=False)\n"
            "o = exists_with_support_at_most(1, 300, 0, 0, 300, budget)\n"
            "print(o.status.value, o.subsets_examined)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-500:]
        assert done.stdout.split() == ["budget_exceeded", "299"]

    def test_witness_normalized_and_deterministic(self):
        a = exists_with_support_at_most(3, 3, 2, 2, 6).witness
        b = exists_with_support_at_most(3, 3, 2, 2, 6).witness
        assert a == b
        from math import gcd

        nums = [v.numerator for v in a.values if v]
        assert all(v.denominator == 1 for v in a.values)
        g = 0
        for v in nums:
            g = gcd(g, v)
        assert g == 1
        assert nums[0] > 0

    def test_reference_counts(self):
        # the reference points quoted in the README; the slice deficits rule
        # out the zero word itself, before its rank test
        pruned = exists_with_support_at_most(3, 3, 2, 2, 5)
        plain = exists_with_support_at_most(
            3, 3, 2, 2, 5, SearchBudget(symmetry_pruning=False)
        )
        assert pruned.status is plain.status is SearchStatus.EXHAUSTED
        assert (pruned.subsets_examined, plain.subsets_examined) == (0, 17902)

    def test_reference_count_at_q4(self):
        # the fifth reference point of the README: U_[2,2](3,4) has nothing
        # of support <= 8, while the minimum (12) is out of reach here
        outcome = exists_with_support_at_most(3, 4, 2, 2, 8)
        assert (outcome.status, outcome.subsets_examined) == (SearchStatus.EXHAUSTED, 2594)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            exists_with_support_at_most(17, 2, 1, 1, 2)


class TestFindMinimum:
    def test_single_point(self):
        report = find_minimum(1, 3, 0, 1)
        assert report.conclusive and report.minimum == 1

    @pytest.mark.parametrize("q, expected", [(3, 3), (4, 4)])
    def test_one_a3_column(self, q, expected):
        report = find_minimum(2, q, 0, 1)
        assert report.conclusive and report.minimum == expected

    def test_open_regime_value(self):
        report = find_minimum(3, 3, 2, 2)
        assert report.conclusive
        assert report.minimum == 6
        assert report.witness.support_size() == 6
        assert in_direct_sum(report.witness, 2, 2)

    def test_budget_interval(self):
        report = find_minimum(3, 3, 2, 2, SearchBudget(max_subsets=50))
        assert not report.conclusive
        assert report.minimum is None
        assert report.lower >= 1 and report.upper is None

    def test_q7_minimum_within_budget(self):
        # U_[1,1](2,7): slice_lower is 10, and the involution table (346 maps)
        # closes support 10 and 11 and finds the minimum 12 in 9949 tests
        report = find_minimum(2, 7, 1, 1, SearchBudget(max_subsets=20000))
        assert report.conclusive and report.minimum == 12
        assert in_direct_sum(report.witness, 1, 1)

    def test_ceiling(self):
        # the ceiling lies below slice_lower = 3, so no search runs
        report = find_minimum(2, 3, 1, 1, SearchBudget(max_support=2))
        assert not report.conclusive
        assert (report.lower, report.subsets_examined) == (3, 0)

    def test_starts_at_slice_lower(self, monkeypatch):
        # U_0(16,2) is the constants, and slice_lower is q^n: the search for
        # s = 65536 is the only one, where a start at 1 makes 65536
        calls = []

        def spy(n, q, lo, hi, s, budget):
            calls.append(s)
            return exists_with_support_at_most(n, q, lo, hi, s, budget)

        monkeypatch.setattr(search, "exists_with_support_at_most", spy)
        report = find_minimum(16, 2, 0, 0, SearchBudget(max_subsets=3))
        assert calls == [65536]
        assert not report.conclusive
        assert (report.lower, report.subsets_examined) == (65536, 3)
        calls.clear()
        report = find_minimum(2, 3, 1, 1, SearchBudget(symmetry_pruning=False))
        assert calls == [1, 2, 3, 4] and report.minimum == 4


class TestMinimalityClaim:
    """`claims._verify_minimality`: formula bound, construction and search agree."""

    def test_holds(self):
        _verify_minimality([(2, 3, 1, 1, 4)])

    def test_search_below_the_formula_fails(self):
        # the formula's 8 is invalid at q = 3: the search finds support 6 <= 7
        with pytest.raises(ClaimFailure, match="found below 8, witness support 6"):
            _verify_minimality([(3, 3, 2, 2, 8)])

    def test_plain_search_does_not_rest_on_slice_lower(self, monkeypatch):
        # a bound that rules out every set leaves the pruned search no rank
        # test, but the plain DFS still finds support 6 below the formula's 8
        monkeypatch.setattr(search, "slice_lower", lambda n, q, lo, hi: inf)
        with pytest.raises(ClaimFailure, match="plain search found below 8, witness support 6"):
            _verify_minimality([(3, 3, 2, 2, 8)])

    def test_wrong_value_fails(self):
        with pytest.raises(ClaimFailure, match="bound 4, construction 4, expected 5"):
            _verify_minimality([(2, 3, 1, 1, 5)])

    def test_non_member_construction_fails(self, monkeypatch):
        # four points of support, as F1 has, but the indicator of a set is
        # no member of U_1(2,3)
        fake = GridFunction(2, 3, [1, 1, 1, 1, 0, 0, 0, 0, 0])
        monkeypatch.setattr(constructions, "build_F1", lambda n, q, lo, hi: fake)
        with pytest.raises(ClaimFailure, match="construction not a member"):
            _verify_minimality([(2, 3, 1, 1, 4)])

    def test_construction_off_the_bound_fails(self, monkeypatch):
        # a member of U_1(2,3) with support 6, not the bound 4
        wide = build_F1(2, 3, 1, 1, [constructions.a1(0, 0)])
        wide += build_F1(2, 3, 1, 1, [constructions.a1(1, 1)]).scale(2)
        assert in_direct_sum(wide, 1, 1)
        monkeypatch.setattr(constructions, "build_F1", lambda n, q, lo, hi: wide)
        with pytest.raises(ClaimFailure, match="bound 4, construction 6, expected 4"):
            _verify_minimality([(2, 3, 1, 1, 4)])


class TestWitnessSoundness:
    def test_every_witness_revalidates(self):
        for n, q, lo, hi in ((2, 3, 1, 1), (2, 4, 1, 2), (3, 3, 1, 2), (1, 4, 1, 1)):
            report = find_minimum(n, q, lo, hi)
            assert report.conclusive
            w = report.witness
            assert not w.is_zero()
            assert w.support_size() == report.minimum
            assert in_direct_sum(w, lo, hi)

    def test_deep_confirmation_at_q_n_4096(self):
        # a zero at depth 15 is confirmed on the 16-square minor alone
        outcome = exists_with_support_at_most(12, 2, 4, 12, 16)
        assert outcome.status is SearchStatus.FOUND
        w = outcome.witness
        assert w.support_size() == 16
        assert in_direct_sum(w, 4, 12)


class TestSliceDeficits:
    """The closed-form bound of the descent rules, and the pruning it drives."""

    @pytest.mark.parametrize(
        "n, q, lo, hi, value",
        [(0, 3, 0, 0, 1), (1, 3, 2, 2, inf), (1, 3, 0, 1, 1), (1, 3, 0, 0, 3), (2, 3, 1, 1, 3),
         (2, 2, 1, 1, 2), (3, 3, 2, 2, 6), (3, 3, 0, 1, 9), (3, 4, 2, 2, 8), (8, 2, 1, 1, 128),
         (4000, 2, 1000, 2000, 2**2000)],
    )
    def test_values(self, n, q, lo, hi, value):
        assert search.slice_lower(n, q, lo, hi) == value

    def test_closed_form_equals_the_recursion(self):
        # the recursion of the descent rules, as the module docstring states
        # it: all slices nonzero (q m3), exactly one (m0), or two or more
        # with a zero slice left over (2 m1, q >= 3); windows clipped to [0, n]
        @lru_cache(maxsize=None)
        def recursion(n, q, lo, hi):
            lo, hi = max(lo, 0), min(hi, n)
            if lo > hi:
                return inf
            if n == 0:
                return 1
            m3 = recursion(n - 1, q, lo - 1, hi)
            m1 = recursion(n - 1, q, lo - 1, hi - 1)
            m0 = recursion(n - 1, q, lo, hi - 1)
            return min(q * m3, m0, 2 * m1 if q >= 3 else inf)

        cells = 0
        for q in range(2, 17):
            for n in range(41):
                for lo in range(-1, n + 2):
                    for hi in range(lo - 1, n + 2):
                        bound = search.slice_lower(n, q, lo, hi)
                        assert bound == recursion(n, q, lo, hi), (n, q, lo, hi)
                        if 0 <= lo <= hi <= n:  # never above the F1/F2 support
                            size = f1_support_size if lo + hi <= n else f2_support_size
                            assert bound <= size(n, q, lo, hi), (n, q, lo, hi)
                        cells += 1
        assert cells == 226935

    def test_pruned_search_starts_at_it(self):
        # the zero word's slice deficit is slice_lower - 1 (n = 0 has no
        # coordinate, and slice_lower = 1): a pruned search runs no rank
        # test exactly when s < slice_lower, on every cell with q^n <= 64
        budget = SearchBudget(max_subsets=1)
        for q in range(2, 9):
            n = 0
            while q**n <= 64:
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        bound = search.slice_lower(n, q, lo, hi)
                        for s in range(bound - 2, bound + 1):
                            at = (n, q, lo, hi, s)
                            if n:
                                zero = search._SliceFilter(n, q, lo, hi, s).allowed([], [0])
                                assert (not zero) == (s < bound), at
                            o = exists_with_support_at_most(n, q, lo, hi, s, budget)
                            skipped = (o.status, o.subsets_examined) == (SearchStatus.EXHAUSTED, 0)
                            assert skipped == (s < bound), at
                n += 1

    @pytest.mark.parametrize("n, q", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2)])
    def test_no_support_below_it(self, n, q):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                bound = search.slice_lower(n, q, lo, hi)
                assert not brute_force_exists(n, q, lo, hi, bound - 1), (lo, hi)

    def test_never_above_the_formula(self):
        # where the formula is proven it is the least support, so the bound
        # may not exceed it; how often it meets it pins the bound's strength
        proven = met = 0
        for q in range(2, 8):
            for n in range(1, 9):
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        formula = min_support_bound(n, q, lo, hi)
                        if formula.valid:
                            bound = search.slice_lower(n, q, lo, hi)
                            assert bound <= formula.value, (n, q, lo, hi)
                            proven += 1
                            met += bound == formula.value
        assert (proven, met) == (750, 364)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_deficit_against_every_choice_of_nonzero_slices(self, q):
        # the fewest points to add, over every set N of nonzero slices that
        # holds the occupied ones: all slices (case A), one slice (m0), or
        # at least two with a zero slice left over (m1 each); the rule is
        # sound for any lower bounds, so they range freely here
        def oracle(counts, m3, m1, m0):
            occupied = {a for a, c in enumerate(counts) if c}
            best = inf
            for k in range(1, q + 1):
                for nonzero in combinations(range(q), k):
                    if not occupied <= set(nonzero):
                        continue
                    need = m3 if k == q else m0 if k == 1 else m1
                    best = min(best, sum(max(0, need - counts[a]) for a in nonzero))
            return best

        values = (1, 2, 3, 5, inf)
        for counts in product(range(3), repeat=q):
            if any(counts):
                for m3, m1, m0 in product(values, repeat=3):
                    bounds = (m3, m1, m0)
                    assert search._deficit(list(counts), *bounds) == oracle(counts, *bounds), (
                        counts, bounds)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_allowed_symbols_against_every_symbol(self, q):
        # one deficit per distinct count decides each symbol as the
        # per-symbol rule does: count plus one point, deficit <= slack
        values = (1, 2, 3, 5, inf)
        for counts in product(range(3), repeat=q):
            for bounds in product(values, repeat=3):
                for slack in range(-1, 5):
                    allowed = []
                    for a in range(q):
                        grown = list(counts)
                        grown[a] += 1
                        allowed.append(search._deficit(grown, *bounds) <= slack)
                    expected = None if all(allowed) else tuple(allowed)
                    assert search._allowed_symbols(counts, slack, bounds) == expected, (
                        counts, bounds, slack)

    @pytest.mark.parametrize(
        "n, q, lo, hi, minimum, tests",
        [(3, 3, 0, 1, 9, 9), (2, 5, 1, 1, 8, 216), (3, 3, 2, 2, 6, 208), (2, 3, 1, 1, 4, 11),
         (2, 4, 1, 1, 6, 44), (3, 4, 1, 2, 6, 111), (5, 2, 1, 2, 8, 19), (6, 2, 2, 4, 4, 23),
         (6, 2, 1, 2, 16, 95)],
    )
    def test_reference_counts(self, n, q, lo, hi, minimum, tests):
        report = find_minimum(n, q, lo, hi)
        assert (report.minimum, report.subsets_examined) == (minimum, tests)

    @pytest.mark.parametrize(
        "n, q, compared", [(1, 4, 3), (2, 2, 6), (2, 3, 6), (2, 4, 5), (3, 2, 10), (4, 2, 13)]
    )
    def test_witnesses_match_the_plain_search(self, n, q, compared):
        # the first dependent set of the plain DFS is the least minimum
        # support in DFS order, which meets every deficit bound; the plain
        # search is capped, and the windows it settles are counted
        settled = 0
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                pruned = find_minimum(n, q, lo, hi)
                plain = find_minimum(
                    n, q, lo, hi, SearchBudget(max_subsets=20000, symmetry_pruning=False)
                )
                assert pruned.conclusive and pruned.lower >= plain.lower
                if plain.conclusive:
                    assert (pruned.minimum, pruned.witness) == (plain.minimum, plain.witness)
                    settled += 1
        assert settled == compared

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_a_raised_bound_changes_a_decision(self, monkeypatch, which):
        # one more than m3, m1 or m0 is unsound, and some minimum is missed
        cases = [(2, 2, 0, 1, 2), (2, 3, 1, 2, 2), (2, 3, 0, 1, 3), (2, 3, 1, 1, 4),
                 (3, 3, 2, 2, 6)]
        plain = SearchBudget(symmetry_pruning=False)
        truth = [exists_with_support_at_most(*case, plain).status for case in cases]
        assert set(truth) == {SearchStatus.FOUND}
        made = search._SliceFilter.__init__

        def raised(slices, *args):
            made(slices, *args)
            slices.bounds = tuple(m + (i == which) for i, m in enumerate(slices.bounds))

        monkeypatch.setattr(search._SliceFilter, "__init__", raised)
        missed = [case for case in cases
                  if exists_with_support_at_most(*case).status is SearchStatus.EXHAUSTED]
        assert missed


def walk_against_oracle(n, q, depth):
    """Each node's children down to `depth` elements, against the brute-force oracle."""
    index_maps = search._pruning_maps(n, q)
    size = q**n
    checked = 0

    def walk(canon):
        # the deepest nodes are never expanded, as at the last level
        nonlocal checked
        prefix = canon.prefix
        ahead = range(prefix[-1] + 1, size)
        minimal = [x for x in ahead if is_orbit_minimal(prefix + [x], index_maps)]
        assert canon.children == minimal, prefix
        checked += len(ahead)
        if len(prefix) + 1 < depth:
            for x in minimal:
                node = canon.child(x, range(x + 1, size))
                # on a subset of the candidates: the same children among
                # them, and the same state handed down
                subset = range(x + 1, size, 2)
                part = canon.child(x, subset)
                assert part.children == [z for z in node.children if z in subset], (prefix, x)
                assert (part.fixers, part.ties, part.thresholds) == (
                    node.fixers, node.ties, node.thresholds), (prefix, x)
                walk(node)

    # the root [0] is a child of the empty node, as in a search
    walk(search._Canon([], list(index_maps), [], {}, frozenset()).child(0, range(1, size)))
    assert checked > size


class TestCanonicity:
    @pytest.mark.parametrize(
        "n, q, depth", [(2, 3, 6), (3, 3, 5), (2, 4, 5), (2, 5, 4), (3, 4, 5), (4, 2, 7)]
    )
    def test_agrees_with_brute_force_oracle(self, n, q, depth):
        walk_against_oracle(n, q, depth)

    @pytest.mark.parametrize("n, q, depth, kept", [(4, 2, 7, 4), (2, 4, 5, 10)])
    def test_capped_table_agrees_with_brute_force_oracle(self, monkeypatch, n, q, depth, kept):
        # a cut table is a subset of the group, not a group: (4, 2) has 6
        # transpositions and 3 products, and keeps 4 transpositions; (2, 4)
        # has 7 transpositions and 9 products, and keeps 3 of the products
        monkeypatch.setattr(search, "MAX_MAP_ENTRIES", kept * q**n)
        search._pruning_maps.cache_clear()
        try:
            assert len(search._pruning_maps(n, q)) == kept
            walk_against_oracle(n, q, depth)
        finally:
            search._pruning_maps.cache_clear()

    @pytest.mark.parametrize("n, q, depth", [(3, 3, 5), (4, 2, 7)])
    def test_a_map_that_is_no_involution_breaks_the_walk(self, monkeypatch, n, q, depth):
        # the nodes read g^-1 off g itself, so a coordinate 3-cycle, which is
        # an automorphism fixing the zero word but not its own inverse, must
        # give children the oracle disagrees with
        cycle = array("B", word_map(n, q, [1, 2, 0] + list(range(3, n))))
        assert any(cycle[cycle[x]] != x for x in range(q**n))
        monkeypatch.setattr(search, "_pruning_maps", lambda n, q: (cycle,))
        with pytest.raises(AssertionError):
            walk_against_oracle(n, q, depth)

    @pytest.mark.parametrize(
        "n, q", [(2, 3), (3, 3), (2, 5), (3, 4), (4, 2), (7, 3), (2, 6), (1, 9), (3, 5)]
    )
    def test_maps_are_automorphisms_fixing_zero(self, n, q):
        # the transpositions of the stabilizer, coordinates first, then
        # symbols per coordinate, followed by the products of commuting
        # pairs of them, counted here in closed form, up to the cut
        size = q**n
        maps = search._pruning_maps(n, q)
        words = [index_to_word(t, n, q) for t in range(size)]
        index = {w: t for t, w in enumerate(words)}
        expected = []
        for a, b in combinations(range(n), 2):
            swap = {a: b, b: a}
            expected.append([index[tuple(w[swap.get(j, j)] for j in range(n))] for w in words])
        for j in range(n):
            for a, b in combinations(range(1, q), 2):
                swap = {a: b, b: a}
                expected.append([index[w[:j] + (swap.get(w[j], w[j]),) + w[j + 1:]] for w in words])
        coordinates, symbols = comb(n, 2), comb(q - 1, 2)
        assert len(expected) == coordinates + n * symbols
        commuting = (
            coordinates * comb(max(n - 2, 0), 2) // 2  # disjoint coordinate transpositions
            + coordinates * (n - 2) * symbols  # a symbol swap off a coordinate transposition
            + coordinates * symbols**2  # symbol swaps at two coordinates
            + n * symbols * comb(max(q - 3, 0), 2) // 2  # disjoint symbol swaps at one coordinate
        )
        cap = search.MAX_MAP_ENTRIES // size
        assert len(maps) == min(len(expected) + commuting, cap)
        assert [list(g) for g in maps[:len(expected)]] == expected[:cap]
        assert len({tuple(g) for g in maps} | {tuple(range(size))}) == len(maps) + 1
        pairs = [(x, (x * 7 + 3) % size) for x in range(0, size, max(size // 40, 1))]
        for g in maps:
            assert g[0] == 0 and all(g[g[x]] == x for x in range(size))
            for x, y in pairs:
                assert hamming_distance(words[g[x]], words[g[y]]) == hamming_distance(
                    words[x], words[y]
                )

    @pytest.mark.parametrize("n, q", [(1, 2), (2, 3), (3, 4), (2, 17), (1, 300), (9, 2)])
    def test_word_codes_give_hamming_distance(self, n, q):
        codes, low, guard = search._word_codes(n, q)
        size = q**n
        words = [index_to_word(t, n, q) for t in range(size)]
        for x in range(0, size, max(size // 30, 1)):
            for y in range(size - 1, -1, -max(size // 30, 1)):
                distance = (((codes[x] ^ codes[y]) + low) & guard).bit_count()
                assert distance == hamming_distance(words[x], words[y])

    def test_map_count_capped_for_large_groups(self):
        # (16, 2) has 120 coordinate transpositions, and the cut keeps the
        # first 16; (2, 16) has 211 transpositions and more products than
        # the 4096 maps the cut keeps
        maps = search._pruning_maps(16, 2)
        assert len(maps) == search.MAX_MAP_ENTRIES // 2**16 == 16
        # coordinate 0 is the most significant: maps[0] swaps 0 and 1, maps[-1] 1 and 2
        assert maps[0][2**14] == 2**15 and maps[-1][2**13] == 2**14 and maps[-1][2**15] == 2**15
        assert len(search._pruning_maps(2, 16)) == search.MAX_MAP_ENTRIES // 16**2 == 4096

    @staticmethod
    def with_array_products(swaps, cap):
        """swaps, then the products of the pairs for which g h == h g over all q^n entries, up to cap maps."""
        table = list(swaps)
        for g, h in combinations(swaps, 2):
            if len(table) >= cap:
                break
            # compared entry by entry, up to the first difference
            if all(map(eq, map(g.__getitem__, h), map(h.__getitem__, g))):
                table.append(array(g.typecode, map(g.__getitem__, h)))
        return table

    def test_commuting_read_off_the_swaps(self, monkeypatch):
        # every (n, q) with q^n <= 4096 whose table has room for a product,
        # n = 1 up to q = 64, cut 16 products after the transpositions so the
        # sweep stays short; the full cut at a few tables, the capped (2, 16)
        # and (16, 2) among them.  The transpositions themselves are checked
        # by test_maps_are_automorphisms_fixing_zero
        cases = []
        for q in range(2, 65):
            n = 0
            while q**n <= 4096:
                maps = search.MAX_MAP_ENTRIES // q**n
                swaps = comb(n, 2) + n * comb(q - 1, 2)
                if swaps < maps:
                    cases.append((n, q, min(maps, swaps + 16)))
                n += 1
        full = [(2, 16), (16, 2), (3, 4), (2, 6), (4, 4), (3, 5)]
        cases += [(n, q, search.MAX_MAP_ENTRIES // q**n) for n, q in full]
        products = 0
        try:
            for n, q, kept in cases:
                monkeypatch.setattr(search, "MAX_MAP_ENTRIES", kept * q**n)
                search._pruning_maps.cache_clear()
                table = search._pruning_maps(n, q)
                swaps = table[:min(comb(n, 2) + n * comb(q - 1, 2), kept)]
                assert list(table) == self.with_array_products(swaps, kept), (n, q)
                products += len(table) - len(swaps)
        finally:
            search._pruning_maps.cache_clear()
        assert len(cases) == 198 and products == 6203

    def test_symbol_permutations_generated_lazily(self):
        # the transpositions are generated one at a time: (1, 65536) has
        # about 2*10^9 symbol swaps, terabytes if materialized; under a 1 GB
        # address space each table is built up to its cut, n = 0 included
        script = (
            "import resource\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "limit = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "from hammingsupport import search\n"
            "for n, q in [(0, 12), (1, 12), (1, 65536), (2, 256)]:\n"
            "    print(len(search._pruning_maps(n, q)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-500:]
        assert done.stdout.split() == ["0", "1045", "16", "16"]


class TestChildrenPipeline:
    """The children of a vertex: the vertices after it, then slice deficits, then canonicity."""

    def test_slice_deficits_prune_without_maps(self, monkeypatch):
        # the filter does not depend on the map table
        plain = exists_with_support_at_most(3, 3, 2, 2, 6, SearchBudget(symmetry_pruning=False))
        monkeypatch.setattr(search, "_pruning_maps", lambda n, q: ())
        sliced = exists_with_support_at_most(3, 3, 2, 2, 6)
        assert sliced.status is plain.status is SearchStatus.FOUND
        assert sliced.witness == plain.witness
        assert sliced.subsets_examined < plain.subsets_examined

    def test_no_node_without_candidates(self, monkeypatch):
        # canonicity runs on what the slice deficits leave, and only when
        # something is left; with the filter after canonicity these searches
        # made 174, 93 and 157 nodes, root included.  Each search makes its
        # own root, and (2, 5, 1, 1) searches at s = 5, 6, 7 and 8
        child = search._Canon.child
        sizes = []

        def spy(canon, x, candidates):
            sizes.append(len(candidates))
            return child(canon, x, candidates)

        monkeypatch.setattr(search._Canon, "child", spy)
        made = []
        for case in ((3, 3, 2, 2), (6, 2, 1, 2), (2, 5, 1, 1)):
            assert find_minimum(*case).conclusive
            made.append(len(sizes) - sum(made))
        assert made == [89, 54, 155]
        assert 0 not in sizes


def exact_schur(columns, fingerprint, path):
    """z -> (pivot, fingerprint) of z against path over Q, for every z after path[-1].

    An LDL^T of M[S,S] in Fractions: t = L^-1 M[S,z], the pivot
    M[z,z] - sum of t_i^2 / d_i, and the fingerprint G(z) - sum of
    t_i gamma_i / d_i with gamma = L^-1 G[S].
    """
    def forward(entries):
        t = []
        for j, row in enumerate(L):
            t.append(entries[j] - sum(map(mul, row, t)))
        return t

    L, d = [], []
    for i, v in enumerate(path):
        t = forward([Fraction(columns[v][u]) for u in path[:i]])
        L.append([tj / dj for tj, dj in zip(t, d)])
        d.append(columns[v][v] - sum(tj * tj / dj for tj, dj in zip(t, d)))
    gamma = forward([Fraction(fingerprint[v]) for v in path])
    exact = {}
    for z in range(path[-1] + 1, len(columns)):
        t = forward([Fraction(columns[z][v]) for v in path])
        exact[z] = (columns[z][z] - sum(tj * tj / dj for tj, dj in zip(t, d)),
                    fingerprint[z] - sum(tj * gj / dj for tj, gj, dj in zip(t, gamma, d)))
    return exact


class TestCachedPivots:
    """The cached Schur pivots and fingerprints against exact arithmetic, along random paths."""

    @pytest.mark.parametrize("prime", [search.RANK_PRIME, 3])
    @pytest.mark.parametrize(
        "n, q, lo, hi", [(2, 3, 1, 1), (3, 3, 2, 2), (2, 4, 2, 2), (3, 4, 2, 3)]
    )
    def test_zero_exactly_when_dependent(self, n, q, lo, hi, prime):
        size = q**n
        words = [index_to_word(t, n, q) for t in range(size)]
        kappa = search._complement_kernel(n, q, lo, hi)
        fingerprint = search._fingerprint(n, q, lo, hi)
        columns = [
            [kappa[hamming_distance(words[y], words[x])] for y in range(size)]
            for x in range(size)
        ]

        def dependent(vertices):
            rows = list(zip(*(columns[x] for x in vertices)))
            return fraction_matrix_rank(rows) < len(vertices)

        # the walk starts down the support of a minimum witness, then wanders
        witness = find_minimum(n, q, lo, hi).witness
        support = [x for x, value in enumerate(witness.values) if value]
        rng = random.Random(size * prime)
        gram = search._GramPath(n, q, lo, hi, prime)
        assert gram.dependency(0) is None
        gram.push(0)
        zeros = skipped = last_zeros = 0
        for _ in range(15):
            path = list(gram.vertices)
            independent = []
            for z in range(path[-1] + 1, size):
                rows = list(zip(*(columns[x] for x in path + [z])))
                confirmed = not gram.pivots[-1][z]
                c = gram.dependency(z)
                assert (c is not None) == dependent(path + [z]), (path, z)
                if confirmed:
                    # the exact check leaves every path list in residues mod the prime
                    lists = gram.pivots + gram.phis + gram.cols + [gram.inverses]
                    assert all(type(v) is int and 0 <= v < gram.prime for v in chain(*lists))
                if c is not None:
                    zeros += 1
                    assert all(sum(map(mul, c, row)) == 0 for row in rows)
                else:
                    independent.append(z)
            assert gram.vertices == path

            # every pivot and fingerprint the path holds is its exact value mod the prime
            p = gram.prime
            exact = {
                z: tuple(v.numerator * pow(v.denominator, -1, p) % p for v in pair)
                for z, pair in exact_schur(columns, fingerprint, path).items()
            }
            assert exact == {z: (gram.pivots[-1][z], gram.phis[-1][z]) for z in exact}

            # the last level below a parent x, on the witness's support when
            # the path is a prefix of it: the first child whose exact values
            # meet the congruence, and every child before it independent over Q
            on_support = path == support[:len(path)] and len(path) + 1 < len(support)
            parents = [support[len(path)]] if on_support else independent[:1]
            for x in parents:
                later = list(range(x + 1, size))
                first = gram.first_candidate(x, later)
                dx, fx = exact[x]
                meets = [(exact[z][1] ** 2 * dx - fx**2 * exact[z][0]) % p == 0 for z in later]
                assert first == (meets.index(True) if True in meets else len(later)), (path, x)
                deps = [dependent(path + [x, z]) for z in later[:first + 1]]
                assert not any(deps[:first]), (path, x)
                skipped += first
                last_zeros += sum(deps)
            if on_support:
                gram.push(support[len(path)])
            elif independent and len(path) < 6 and rng.random() < 0.75:
                gram.push(rng.choice(independent))
            elif len(path) > 1:
                gram.pop()
        assert zeros, "no path reached a dependency"
        assert last_zeros, "no last level held a dependent child"
        assert skipped, "no last level skipped a child"

    @pytest.mark.parametrize(
        "n, q, lo, hi, s, prune, status",
        [(3, 3, 1, 2, 3, False, SearchStatus.EXHAUSTED), (2, 5, 1, 1, 8, True, SearchStatus.FOUND)],
    )
    def test_last_level_reads_the_new_prime_after_a_false_alarm(
        self, monkeypatch, n, q, lo, hi, s, prune, status
    ):
        # at prime 2 a candidate among a last level's children is often a
        # false alarm, after which the path is factored again at a larger
        # prime; the next parent on the same path must read pivots and
        # fingerprints mod that prime.  The pruned search for (3, 3, 1, 2, 3)
        # reaches its last level only after its false alarms, so the plain
        # one runs there
        first_candidate = search._GramPath.first_candidate
        calls = []

        def checked(gram, x, zs):
            fresh = search._GramPath(n, q, lo, hi, gram.prime)
            for v in gram.vertices:
                fresh.push(v)
            assert gram.pivots[-1] == fresh.pivots[-1], (gram.vertices, x)
            assert gram.phis[-1] == fresh.phis[-1], (gram.vertices, x)
            first = first_candidate(gram, x, zs)
            assert first == first_candidate(fresh, x, zs), (gram.vertices, x)
            calls.append((gram.vertices[:], gram.prime))
            return first

        monkeypatch.setattr(search, "RANK_PRIME", 2)
        monkeypatch.setattr(search._GramPath, "first_candidate", checked)
        budget = SearchBudget(symmetry_pruning=prune)
        assert exists_with_support_at_most(n, q, lo, hi, s, budget).status is status
        reprimed = [b for a, b in zip(calls, calls[1:]) if a[0] == b[0] and a[1] != b[1]]
        assert reprimed, "no parent followed a false alarm on the same path"


def _small_shapes(limit):
    """Every (n, q) with q^n <= limit, n = 0 included."""
    return [(n, q) for q in range(2, limit + 1) for n in range(limit.bit_length()) if q**n <= limit]


class TestFingerprint:
    """The extra row G of the last level against M w, with M built entry by entry."""

    def test_high_window_built_from_the_top(self):
        # G at (16, 2, 15, 15) runs the mirrored transform, two arrays of
        # q^n entries; the forward one kept sixteen and peaked at 136 MB.
        # The digest is that of the forward transform's G.  A spawned
        # process's ru_maxrss counts the process that spawned it (Linux
        # keeps it across exec), so G is built in a fork, which starts afresh
        script = (
            "import hashlib, os, resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "limit = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "if os.fork():\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
            "from hammingsupport import search\n"
            "G = search._fingerprint(16, 2, 15, 15)\n"
            "print(hashlib.sha256(repr(G).encode()).hexdigest()[:16])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-500:]
        digest, maxrss_kb = done.stdout.split()
        assert digest == "c52bc5b412aa3e24"
        assert int(maxrss_kb) < 80 * 1024

    @pytest.mark.parametrize("n, q", _small_shapes(81))
    def test_equals_brute_force_m_w(self, n, q):
        w = [1]
        for j in range(n):
            w = [v * (31 * (a + 1) ** 3 + (j + 1) ** 2 * (a + 1) + j) for v in w for a in range(q)]
        words = [index_to_word(t, n, q) for t in range(q**n)]
        distances = [[hamming_distance(x, y) for y in words] for x in words]
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                kappa = search._complement_kernel(n, q, lo, hi)
                expected = tuple(sum(kappa[d] * v for d, v in zip(row, w)) for row in distances)
                assert search._fingerprint(n, q, lo, hi) == expected, (n, q, lo, hi)


class TestExactCheck:
    """The exact check on the (k+1)-square minor against an exact rank, on random paths."""

    @pytest.mark.parametrize(
        "n, q, lo, hi", [(3, 3, 2, 2), (2, 5, 1, 1), (3, 4, 2, 3), (4, 2, 1, 2)]
    )
    def test_zero_exactly_when_dependent(self, n, q, lo, hi):
        size = q**n
        words = [index_to_word(t, n, q) for t in range(size)]
        kappa = search._complement_kernel(n, q, lo, hi)
        columns = [
            [kappa[hamming_distance(words[y], words[x])] for y in range(size)]
            for x in range(size)
        ]
        # every path holds all but the last vertex of a construction's support
        f = build_F1(n, q, lo, hi) if lo + hi <= n else build_F2(n, q, lo, hi)
        support = [x for x, value in enumerate(f.nums) if value]
        rng = random.Random(size)
        zeros = 0
        for _ in range(4):
            gram = search._GramPath(n, q, lo, hi, search.RANK_PRIME)
            found = 0
            for x in range(size):
                rows = list(zip(*(columns[v] for v in gram.vertices + [x])))
                dependent = fraction_matrix_rank(rows) <= len(gram.vertices)
                eliminated = gram._exact_rows(x)
                assert (not eliminated[-1][0]) == dependent, (gram.vertices, x)
                if dependent:
                    c = search._kernel(eliminated)
                    assert c[-1] and all(sum(map(mul, c, row)) == 0 for row in rows)
                    found += 1
                    if found == 3:
                        break
                elif x in support or (len(gram.vertices) < 10 and rng.random() < 0.2):
                    gram.push(x)
            zeros += found
        assert zeros, "no path reached a dependency"


class TestModularRankTests:
    """A tiny prime makes false alarms common; outcomes must not move."""

    CASES = [(*case, prune, None) for case in PRUNING_CASES for prune in (True, False)]
    CASES.append((3, 3, 2, 2, 6, True, None))
    # budgets that run out at a last level after a false alarm: in the
    # counted step of its first zero (the first, second and last case) or
    # among the children tested one by one on the pushed path (the third);
    # under prime 2 for the first two, under prime 3 for the last two
    CASES += [
        (3, 3, 2, 2, 6, True, 33), (2, 5, 1, 1, 3, False, 117),
        (2, 5, 1, 1, 3, False, 10), (2, 5, 1, 1, 8, True, 9),
    ]

    @staticmethod
    def outcomes():
        rows = []
        for n, q, lo, hi, s, prune, limit in TestModularRankTests.CASES:
            o = exists_with_support_at_most(
                n, q, lo, hi, s, SearchBudget(max_subsets=limit, symmetry_pruning=prune)
            )
            rows.append((o.status, o.subsets_examined, o.witness))
        return rows

    @pytest.mark.parametrize("prime", [2, 3])
    def test_tiny_prime_same_outcomes(self, monkeypatch, prime):
        expected = self.outcomes()
        checks, primes = [], []
        exact_rows, next_prime = search._GramPath._exact_rows, search._next_prime

        def spy_check(gram, x):
            rows = exact_rows(gram, x)
            checks.append(rows[-1][0])
            return rows

        def spy_prime(p):
            primes.append(next_prime(p))
            return primes[-1]

        monkeypatch.setattr(search, "RANK_PRIME", prime)
        monkeypatch.setattr(search._GramPath, "_exact_rows", spy_check)
        monkeypatch.setattr(search, "_next_prime", spy_prime)
        assert self.outcomes() == expected
        # each witness needs one exact zero; a nonzero exact pivot is a false alarm
        found = sum(status is SearchStatus.FOUND for status, _, _ in expected)
        alarms = len(checks) - found
        assert checks.count(0) == found
        assert alarms, "the tiny prime raised no false alarm"
        # every false alarm moves the prime, and a zero pivot at the new prime moves it again
        assert len(primes) > alarms, "no false alarm needed a second prime"
