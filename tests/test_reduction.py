from fractions import Fraction

import pytest

import hammingsupport.reduction as reduction
from hammingsupport import (
    GridFunction,
    a1,
    a2,
    a3,
    a4,
    build_F1,
    build_F2,
    check_lemma_reduction,
    check_lemma_vanishing_slices,
    counterexample_g,
    counterexample_v,
    elementary,
    in_direct_sum,
    is_uniform,
    restrict,
    slices,
    support_lower_bound_inequality,
)
from hammingsupport.reduction import slice_lists

from conftest import (
    fraction_restrict,
    fraction_sub,
    random_family_instance,
    random_member,
    random_values,
)


class TestRestrict:
    def test_constant(self):
        f = GridFunction.constant(3, 3, 5)
        assert restrict(f, 1, 2) == GridFunction.constant(2, 3, 5)

    def test_a1_peak_slice_is_complement_indicator(self):
        q, k, m = 4, 1, 2
        f = elementary(a1(k, m), q)
        top = restrict(f, 0, k)
        assert top.support_size() == q - 1
        assert all(top((y,)) == (0 if y == m else 1) for y in range(q))

    def test_a4_tensor_slices(self):
        q = 3
        base = GridFunction.from_dict(2, q, {(0, 1): 2, (2, 2): -1})
        f = base.tensor(elementary(a4(q - 1), q))
        assert restrict(f, 2, q - 1) == base
        assert restrict(f, 2, 0).is_zero()

    def test_defining_equation(self, rng):
        f = random_values(3, 3, rng)
        r, k = 1, 2
        g = restrict(f, r, k)
        for y0 in range(3):
            for y1 in range(3):
                assert g((y0, y1)) == f((y0, k, y1))

    def test_errors(self):
        f = GridFunction.zero(2, 3)
        with pytest.raises(ValueError):
            restrict(f, 2, 0)
        with pytest.raises(ValueError):
            restrict(f, 0, 3)
        with pytest.raises(ValueError):
            restrict(GridFunction.zero(0, 3), 0, 0)


class TestSlicePartition:
    def test_random_functions(self, rng):
        for n, q in ((2, 3), (3, 3), (3, 4), (2, 5)):
            f = random_values(n, q, rng)
            for r in range(n):
                parts = slices(f, r)
                assert sum(p.support_size() for p in parts) == f.support_size()


class TestSliceLists:
    def test_against_fraction_slices(self, rng):
        for n, q in ((1, 3), (2, 3), (3, 2), (3, 4)):
            f = random_values(n, q, rng)
            values = list(f.values)
            for r in range(n):
                parts = slice_lists(f.nums, n, q, r)
                assert [[Fraction(v, f.den) for v in p] for p in parts] == [
                    fraction_restrict(values, n, q, r, k) for k in range(q)
                ]

    def test_coordinate_out_of_range(self):
        for n, r in ((2, -1), (2, 2), (0, 0)):
            with pytest.raises(ValueError, match="out of range"):
                slice_lists([0] * 3**n, n, 3, r)


class TestUniform:
    def test_constant(self):
        rep = is_uniform(GridFunction.constant(2, 4, 3))
        assert rep.uniform and rep.witnesses == (0, 0)

    def test_needs_a_coordinate(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            is_uniform(GridFunction.constant(0, 3, 1))

    def test_f1_instances(self, rng):
        for q in (3, 4):
            for n in range(1, 4):
                for i in range(n + 1):
                    for j in range(i, n - i + 1):
                        f = random_family_instance(n, q, i, j, rng)
                        assert is_uniform(f).uniform

    def test_f2_not_uniform_beyond_q2(self, rng):
        # every F2 product contains an a2 factor, which has two distinct
        # nonzero slices once q >= 3
        for q in (3, 4, 5):
            f = random_family_instance(3, q, 2, 2, rng)
            assert not is_uniform(f).uniform

    def test_a2_slices_scalars(self):
        assert not is_uniform(elementary(a2(0, 1), 4)).uniform
        # q = 2 leaves a single slice after removing the exception: vacuous
        assert is_uniform(elementary(a2(0, 1), 2)).uniform

    def test_counterexample_v_not_uniform(self):
        rep = is_uniform(counterexample_v())
        assert not rep.uniform
        assert rep.witnesses[2] is None  # three pairwise distinct slices

    def test_smallest_witness_chosen(self):
        q = 3
        f = elementary(a4(1), q)  # slices 0,1,0: only l = 1 works... check
        rep = is_uniform(f)
        assert rep.uniform and rep.witnesses == (1,)

    def test_exceptional_slice_detected(self):
        q = 4
        f = elementary(a1(2, 3), q)
        rep = is_uniform(f)
        assert rep.uniform
        assert rep.witnesses == (2, 3)  # peak row and valley column

    def test_against_every_exceptional_symbol(self, rng):
        # the rule that tries each symbol as the exception, smallest first
        def every_symbol(f):
            witnesses = []
            for r in range(f.n):
                parts = slice_lists(f.nums, f.n, f.q, r)
                found = None
                for l in range(f.q):
                    rest = [parts[k] for k in range(f.q) if k != l]
                    if all(p == rest[0] for p in rest[1:]):
                        found = l
                        break
                witnesses.append(found)
            return tuple(witnesses)

        seen = set()
        for q in range(2, 6):
            for n in range(1, 5):
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        product = random_family_instance(n, q, i, j, rng)
                        values = list(product.values)
                        values[rng.randrange(q**n)] += 1
                        for f in (product, GridFunction(n, q, values),
                                  random_values(n, q, rng, 0, 1)):
                            rep = is_uniform(f)
                            assert rep.witnesses == every_symbol(f), (f.n, f.q, f.nums)
                            assert rep.uniform == (None not in rep.witnesses)
                            seen.update(rep.witnesses)
        assert seen == {None, 0, 1, 2, 3, 4}


class TestLemmaReduction:
    def test_a1_differences_drop_to_u0(self):
        f = elementary(a1(0, 0), 3)
        report = check_lemma_reduction(f, 1, 1, 0)
        assert report.precondition_ok and report.passed
        parts = slices(f, 0)
        assert in_direct_sum(parts[0] - parts[1], 0, 0)

    def test_constant_trivial(self):
        f = GridFunction.constant(2, 3, 2)
        assert check_lemma_reduction(f, 0, 0, 1).passed

    def test_random_projected(self, rng):
        for n, q in ((2, 3), (3, 4)):
            for _ in range(5):
                lo = rng.randint(0, n)
                hi = rng.randint(lo, n)
                f = random_member(n, q, lo, hi, rng)
                for r in range(n):
                    assert check_lemma_reduction(f, lo, hi, r).passed

    def test_top_range_forces_zero_slice_sum(self, rng):
        # members of U_[n,n] have slice sums in an empty window
        f = random_member(2, 3, 2, 2, rng)
        report = check_lemma_reduction(f, 2, 2, 0)
        assert report.passed
        parts = slices(f, 0)
        assert (parts[0] + parts[1] + parts[2]).is_zero()

    def test_precondition_reported(self):
        delta = GridFunction.from_dict(2, 3, {(0, 0): 1})
        report = check_lemma_reduction(delta, 1, 1, 0)
        assert not report.precondition_ok and not report.passed

    def test_structural_errors(self):
        with pytest.raises(ValueError):
            check_lemma_reduction(GridFunction.zero(1, 3), 0, 0, 0)
        with pytest.raises(ValueError):
            check_lemma_reduction(GridFunction.zero(2, 3), 1, 0, 0)


    @staticmethod
    def first_failing_pair(f, lo, hi, r):
        """detail naming the first pair k < m whose difference leaves U_[lo,hi](n-1)."""
        parts, lo, hi = slices(f, r), max(lo, 0), min(hi, f.n - 1)
        for k in range(f.q):
            for m in range(k + 1, f.q):
                d = parts[k] - parts[m]
                if not (in_direct_sum(d, lo, hi) if lo <= hi else d.is_zero()):
                    return f"slice pair k={k}, m={m} at coordinate {r}"
        return ""

    def test_first_failing_pair_under_a_narrower_window(self, monkeypatch, rng):
        # U_[lo-1, hi-2] is still a subspace, so the differences against
        # slice 0 still decide every pair once the window is narrowed to it
        window = reduction._in_window

        def narrowed(g, n, q, a, b):
            # lo and hi are the loop variables below
            return window(g, n, q, a, b - 1 if (a, b) == (lo - 1, hi - 1) else b)

        monkeypatch.setattr(reduction, "_in_window", narrowed)
        cases = []
        for q in (3, 4):
            # slices 0 and 1 agree at the last coordinate, slice 2 does not
            v = GridFunction(1, q, [1, 1, -2] + [0] * (q - 3))
            cases.append((random_member(2, q, 1, 1, rng).tensor(v), 2, 2))
            cases.append((random_member(3, q, 1, 2, rng), 1, 2))
            cases.append((random_member(3, q, 1, 1, rng), 1, 2))
            cases.append((random_member(3, q, 0, 3, rng), 0, 3))
        seen = set()
        for f, lo, hi in cases:
            for r in range(f.n):
                detail = check_lemma_reduction(f, lo, hi, r).cases[0].detail
                assert detail == self.first_failing_pair(f, lo - 1, hi - 2, r)
                seen.add(detail.split(" at ")[0])
        assert {"", "slice pair k=0, m=1", "slice pair k=0, m=2"} <= seen

    def test_one_window_test_per_difference(self, monkeypatch, rng):
        calls = []
        window = reduction._in_window
        monkeypatch.setattr(reduction, "_in_window", lambda *a: calls.append(a) or window(*a))
        for q in (2, 3, 5):
            calls.clear()
            f = random_member(3, q, 1, 2, rng)
            assert check_lemma_reduction(f, 1, 2, 1).passed
            # q - 1 differences, the slice sum, and the q slices
            assert len(calls) == (q - 1) + 1 + q


class TestVanishingSlices:
    def test_product_with_a4(self):
        q = 3
        inner = build_F1(2, q, 1, 1)  # in U_[1,1](2,3)
        f = inner.tensor(elementary(a4(q - 1), q))  # in U_[1,2](3,3)
        report = check_lemma_vanishing_slices(f, 1, 2, 2, q - 1)
        assert report.precondition_ok and report.passed
        assert restrict(f, 2, q - 1) == inner

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError, match="symbol 3 out of range for q = 3"):
            check_lemma_vanishing_slices(GridFunction.zero(2, 3), 0, 1, 0, 3)

    def test_zero_function_vacuous(self):
        report = check_lemma_vanishing_slices(GridFunction.zero(2, 3), 0, 1, 0, 1)
        assert report.passed

    def test_equal_range_forces_zero(self):
        q = 4
        f = build_F2(1, q, 1, 1).tensor(elementary(a4(0), q))  # in U_[1,2](2,q)
        # with lo = hi = 2 the conclusion window is empty; f is NOT in
        # U_[2,2] so the precondition correctly fails
        report = check_lemma_vanishing_slices(f, 2, 2, 1, 0)
        assert not report.precondition_ok

    def test_counterexample_g_two_live_slices(self):
        report = check_lemma_vanishing_slices(counterexample_g(4), 1, 2, 0, 0)
        assert not report.precondition_ok
        assert report.nonzero_slices == (0, 3)


class TestSliceInequality:
    def test_constant(self):
        q = 3
        f = GridFunction.constant(2, q, 1)
        report = support_lower_bound_inequality(f, 0)
        assert report.precondition_ok
        assert report.lhs == 9 and report.rhs == (q - 2) * 3
        assert report.passed

    def test_tight_a1_case(self):
        q = 4
        f = elementary(a1(q - 1, q - 1), q)
        report = support_lower_bound_inequality(f, 0)
        # slices 0..q-2 all equal the valley indicator; supports are disjoint
        assert report.precondition_ok
        assert report.lhs == report.rhs == 2 * (q - 1)

    def test_f1_instance_with_slack(self):
        q = 3
        f = elementary(a3(), q).tensor(elementary(a1(q - 1, q - 1), q))
        report = support_lower_bound_inequality(f, 0)
        assert report.precondition_ok
        assert report.lhs == q * 2 * (q - 1) == 12
        assert report.rhs == (q - 2) * 2 * (q - 1) + 0 == 4
        assert report.passed

    def test_not_applicable(self):
        f = counterexample_v()
        report = support_lower_bound_inequality(f, 2)
        assert not report.precondition_ok

    def test_random_members_when_applicable(self, rng):
        hits = 0
        for _ in range(60):
            f = random_member(2, 3, 0, 1, rng)
            report = support_lower_bound_inequality(f, 0)
            if report.precondition_ok:
                hits += 1
                assert report.passed
        # constructed equal-slice instance to keep the check non-vacuous
        g = elementary(a3(), 3).tensor(elementary(a2(0, 2), 3))
        report = support_lower_bound_inequality(g, 0)
        assert report.precondition_ok and report.passed


class TestNumeratorSlices:
    """is_uniform and the slice inequality on numerators, against Fraction slices."""

    @staticmethod
    def mixed_denominators(n, q, r, l, rng):
        """Slices at r all equal one function over halves, except slice l over thirds."""
        base = [Fraction(rng.randint(-2, 2), 2) for _ in range(q ** (n - 1))]
        odd = [Fraction(rng.randint(-2, 2), 3) for _ in range(q ** (n - 1))]

        def value(w):
            rest = w[:r] + w[r + 1:]
            index = sum(x * q ** (n - 2 - t) for t, x in enumerate(rest))
            return (odd if w[r] == l else base)[index]

        return GridFunction.from_callable(n, q, value)

    @staticmethod
    def witness(parts):
        for e in range(len(parts)):
            rest = parts[:e] + parts[e + 1:]
            if rest.count(rest[0]) == len(rest):
                return e
        return None

    def test_against_fraction_slices(self, rng):
        def support(values):
            return sum(map(bool, values))

        mixed = 0
        for n, q in ((2, 3), (3, 3), (2, 4), (3, 2), (2, 5)):
            for _ in range(6):
                r0, l = rng.randrange(n), rng.randrange(q)
                f = self.mixed_denominators(n, q, r0, l, rng)
                values = list(f.values)
                witnesses = is_uniform(f).witnesses
                for r in range(n):
                    parts = [fraction_restrict(values, n, q, r, k) for k in range(q)]
                    assert witnesses[r] == self.witness(parts), (n, q, r)
                    report = support_lower_bound_inequality(f, r)
                    equal = all(parts[k] == parts[0] for k in range(q - 1))
                    rhs = (q - 2) * support(parts[0]) + support(
                        fraction_sub(parts[q - 2], parts[q - 1])
                    )
                    assert (report.precondition_ok, report.lhs, report.rhs) == (
                        equal, support(values), rhs
                    ), (n, q, r)
                # the slices reduce to different denominators
                mixed += len({restrict(f, r0, k).den for k in range(q)}) > 1
        assert mixed > 10
