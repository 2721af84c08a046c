import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from hammingsupport import (
    FactorizeStatus,
    GridFunction,
    a1,
    a2,
    a3,
    a4,
    build_F1,
    build_F2,
    counterexample_g,
    counterexample_h,
    counterexample_v,
    elementary,
    factorize,
    is_minimum_and_characterized,
)

import hammingsupport.characterize as characterize
from hammingsupport.constructions import family_template
from hammingsupport.reduction import slice_lists

from conftest import random_factors, random_family_instance


def shuffled(f, rng):
    sigma = list(range(f.n))
    rng.shuffle(sigma)
    return f.permute(tuple(sigma))


class TestRoundTrip:
    def test_fixed_f1(self, rng):
        f = build_F1(3, 3, 1, 1, [a1(0, 2), a3()], c=Fraction(-5, 3))
        g = f.permute((2, 0, 1))
        result = factorize(g, 1, 1)
        assert result.status is FactorizeStatus.CERTIFIED
        assert result.certificate.matches(g)
        assert result.certificate.family == "F1"

    def test_fixed_f2(self):
        f = build_F2(3, 5, 2, 2, [a1(1, 3), a2(4, 2)], c=7)
        g = f.permute((1, 2, 0))
        result = factorize(g, 2, 2)
        assert result.status is FactorizeStatus.CERTIFIED
        assert result.certificate.matches(g)
        assert result.certificate.family == "F2"

    def test_randomized_instances(self, rng):
        done = 0
        while done < 30:
            q = rng.choice((3, 4, 5))
            n = rng.randint(1, 4)
            i = rng.randint(0, n)
            j = rng.randint(i, n)
            c = Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))
            if i + j <= n:
                f = build_F1(n, q, i, j, random_factors(n, q, i, j, rng), c)
            elif i == j:
                f = build_F2(n, q, i, j, random_factors(n, q, i, j, rng), c)
            else:
                continue
            g = shuffled(f, rng)
            result = factorize(g, i, j)
            assert result.status is FactorizeStatus.CERTIFIED, (n, q, i, j)
            assert result.certificate.matches(g)
            done += 1

    def test_unpermuted_instance(self):
        f = build_F1(2, 4, 1, 1)
        result = factorize(f, 1, 1)
        assert result.status is FactorizeStatus.CERTIFIED
        assert result.certificate.sigma == (0, 1)

    def test_scalar_only(self):
        f = build_F1(1, 3, 0, 0, c=Fraction(2, 7))
        result = factorize(f, 0, 0)
        assert result.status is FactorizeStatus.CERTIFIED
        assert result.certificate.c == Fraction(2, 7)


class TestPinnedCertificates:
    """Exact certificates (sigma, factors, c) for layouts that exercise each peel."""

    @pytest.mark.parametrize(
        "f, lo, hi, family, sigma, factors, c",
        [
            # a4 coordinates side by side: the second shifts into the first's place
            (build_F1(3, 3, 0, 2, [a3(), a4(1), a4(2)], c=Fraction(5, 2)).permute((2, 0, 1)),
             0, 2, "F1", (1, 2, 0), ["a3", "a4(1)", "a4(2)"], Fraction(5, 2)),
            # an a3 between two a4 coordinates
            (build_F1(3, 3, 0, 2, [a3(), a4(0), a4(2)], c=-4).permute((1, 0, 2)),
             0, 2, "F1", (1, 0, 2), ["a3", "a4(0)", "a4(2)"], Fraction(-4)),
            (build_F1(5, 4, 1, 3, [a1(2, 0), a3(), a4(3), a4(1)], c=Fraction(-7, 3))
             .permute((3, 1, 4, 0, 2)),
             1, 3, "F1", (3, 0, 4, 1, 2), ["a1(0,2)", "a3", "a4(3)", "a4(1)"], Fraction(7, 3)),
            # an a1 pair in the transposed orientation
            (build_F1(2, 4, 1, 1, [a1(1, 2)], c=Fraction(3, 4)).permute((1, 0)),
             1, 1, "F1", (0, 1), ["a1(2,1)"], Fraction(-3, 4)),
            # q = 2: a1(1,1) = -a1(0,0), and the smaller k wins
            (build_F1(2, 2, 1, 1, [a1(1, 1)], c=3),
             1, 1, "F1", (0, 1), ["a1(0,0)"], Fraction(-3)),
            (build_F1(3, 2, 1, 1, [a1(1, 0), a3()], c=-1).permute((2, 0, 1)),
             1, 1, "F1", (0, 2, 1), ["a1(0,1)", "a3"], Fraction(1)),
            # a negative c absorbed by the first a2
            (build_F2(4, 3, 3, 3, [a1(0, 2), a2(2, 1), a2(0, 1)], c=Fraction(-5, 2))
             .permute((2, 3, 0, 1)),
             3, 3, "F2", (2, 3, 0, 1), ["a1(0,2)", "a2(1,2)", "a2(0,1)"], Fraction(5, 2)),
            # q = 2: each a1 coordinate has two nonzero slices, not negatives
            (build_F2(3, 2, 2, 2, [a1(0, 1), a2(1, 0)], c=Fraction(-2, 3)).permute((1, 2, 0)),
             2, 2, "F2", (2, 0, 1), ["a1(0,1)", "a2(0,1)"], Fraction(2, 3)),
        ],
    )
    def test_certificate(self, f, lo, hi, family, sigma, factors, c):
        result = factorize(f, lo, hi)
        assert result.status is FactorizeStatus.CERTIFIED
        cert = result.certificate
        assert (cert.family, cert.sigma, list(map(str, cert.factors)), cert.c) == (
            family, sigma, factors, c
        )


class TestMatchA1:
    def test_certificates_as_with_every_pair_tried(self, monkeypatch):
        # the rule that tries every (k, m) in row-major order, against the
        # one that tries only full rows and columns
        def every_pair(parts, n, q, s):
            pair_slices = [slice_lists(part, n - 1, q, s - 1) for part in parts]
            nonzero = {(x, y) for x in range(q) for y in range(q) if any(pair_slices[x][y])}
            if len(nonzero) != 2 * (q - 1):
                return None
            for k in range(q):
                for m in range(q):
                    want = {(k, y) for y in range(q) if y != m}
                    want |= {(x, m) for x in range(q) if x != k}
                    if nonzero != want:
                        continue
                    ys = [y for y in range(q) if y != m]
                    h = pair_slices[k][ys[0]]
                    if any(pair_slices[k][y] != h for y in ys[1:]):
                        continue
                    minus_h = [-v for v in h]
                    if any(pair_slices[x][m] != minus_h for x in range(q) if x != k):
                        continue
                    return k, m, h
            return None

        cases = []
        for q in range(2, 6):
            for k in range(q):
                for m in range(q):
                    for build, n, lo, hi, cofactor in (
                        (build_F1, 2, 1, 1, []), (build_F1, 3, 1, 1, [a3()]),
                        (build_F1, 3, 1, 2, [a4(q - 1)]), (build_F2, 3, 2, 2, [a2(0, q - 1)]),
                        (build_F1, 4, 2, 2, [a1(1, 0)]),
                    ):
                        f = build(n, q, lo, hi, [a1(k, m)] + cofactor, c=-2)
                        cases += [(f.permute(sigma), lo, hi) for sigma in permutations(range(n))]
        found = [factorize(*case) for case in cases]
        monkeypatch.setattr(characterize, "_match_a1", every_pair)
        assert found == [factorize(*case) for case in cases]
        assert all(result.status is FactorizeStatus.CERTIFIED for result in found)


def _detect_a4(parts):
    live = [k for k, part in enumerate(parts) if any(part)]
    return (a4(live[0]), parts[live[0]]) if len(live) == 1 else None


def _detect_a3(parts):
    return (a3(), parts[0]) if parts.count(parts[0]) == len(parts) else None


def _detect_a2(parts):
    live = [k for k, part in enumerate(parts) if any(part)]
    if len(live) != 2 or parts[live[0]] != [-v for v in parts[live[1]]]:
        return None
    return a2(*live), parts[live[0]]


def pass_per_kind_peel(f, family, i, j):
    """The peel with one pass for a4, then one for a3 or a2, and coordinate 0
    cut again for every candidate a1 partner."""
    q = f.q
    g = list(f.nums)
    coords = list(range(f.n))

    def one_pass(detect):
        nonlocal g
        items = []
        r = 0
        while r < len(coords):
            hit = detect(slice_lists(g, len(coords), q, r))
            if hit is None:
                r += 1
            else:
                factor, g = hit
                items.append((factor, (coords.pop(r),)))
        return items

    a4_items = one_pass(_detect_a4)
    mid_items = one_pass(_detect_a2 if family == "F2" else _detect_a3)
    a1_items = []
    while coords:
        for s in range(1, len(coords)):
            parts = slice_lists(g, len(coords), q, 0)
            match = characterize._match_a1(parts, len(coords), q, s)
            if match:
                break
        else:
            return None
        k, m, g = match
        a1_items.append((a1(k, m), (coords[0], coords[s])))
        del coords[s], coords[0]
    items = a1_items + mid_items + a4_items
    if [factor.kind for factor, _ in items] != family_template(family, f.n, i, j):
        return None
    return items, Fraction(g[0], f.den)


def peel_grid(rng):
    """Members of every window with q = 2..5 and n <= 4: three permuted
    products of each family window inside it, with rational c, sums of two
    of them, and the fixtures g, h and v."""
    cases = [(counterexample_g(q), 1, 2) for q in range(2, 6)]
    cases += [(counterexample_h(), 2, 2), (counterexample_v(), 2, 2)]
    for q in range(2, 6):
        for n in range(5):
            windows = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
            family = [(i, j) for i, j in windows if i + j <= n or i == j]
            for lo, hi in windows:
                inner = [(i, j) for i, j in family if lo <= i and j <= hi]
                products = []
                for i, j in inner * 3:
                    c = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
                    products.append(shuffled(random_family_instance(n, q, i, j, rng, c), rng))
                sums = [f + rng.choice(products) for f in products]
                cases += [(f, lo, hi) for f in products + sums if not f.is_zero()]
    return cases


class TestOnePass:
    def test_results_as_with_a_pass_per_kind(self, rng, monkeypatch):
        cases = peel_grid(rng)
        found = [factorize(*case) for case in cases]
        monkeypatch.setattr(characterize, "_peel", pass_per_kind_peel)
        assert found == [factorize(*case) for case in cases]
        statuses = Counter(result.status for result in found)
        assert len(statuses) == 3 and min(statuses.values()) >= 4


class TestNormalization:
    def test_negative_scalar_absorbed_by_a2(self):
        f = build_F2(2, 5, 2, 2, [a2(0, 4), a2(1, 2)], c=-3)
        result = factorize(f, 2, 2)
        assert result.status is FactorizeStatus.CERTIFIED
        assert result.certificate.c > 0
        assert result.certificate.matches(f)

    def test_negative_scalar_stays_without_a2(self):
        f = build_F1(1, 3, 0, 0, c=-2)
        result = factorize(f, 0, 0)
        assert result.status is FactorizeStatus.CERTIFIED
        assert result.certificate.c == -2


class TestNegativeFixtures:
    def test_h_rejected(self):
        result = factorize(counterexample_h(), 2, 2)
        assert result.status is FactorizeStatus.NOT_IN_FAMILY
        assert result.certificate is None

    def test_g_uncharacterized_regime(self):
        for q in (4, 5, 6):
            result = factorize(counterexample_g(q), 1, 2)
            assert result.status is FactorizeStatus.UNCHARACTERIZED_REGIME
            assert result.certificate is None

    def test_wrong_template_rejected(self):
        # a3 x a4 lies in U_[0,1] inside U_[0,2], whose F1 template is a4 x a4
        f = elementary(a3(), 3).tensor(elementary(a4(1), 3))
        result = factorize(f, 0, 2)
        assert result.status is FactorizeStatus.NOT_IN_FAMILY
        assert result.certificate is None

    def test_v_rejected(self):
        result = factorize(counterexample_v(), 2, 2)
        assert result.status is FactorizeStatus.NOT_IN_FAMILY

    def test_non_product_member_rejected(self, rng):
        # a generic member of U_[1,1](2,3) with support above the minimum
        from conftest import random_member

        while True:
            f = random_member(2, 3, 1, 1, rng)
            if f.support_size() > 4:
                break
        assert factorize(f, 1, 1).status is FactorizeStatus.NOT_IN_FAMILY


class TestEquivariance:
    def test_success_invariant_under_permutation(self, rng):
        f = build_F2(4, 4, 3, 3, [a1(0, 1), a2(0, 3), a2(2, 1)])
        for _ in range(6):
            g = shuffled(f, rng)
            assert factorize(g, 3, 3).status is FactorizeStatus.CERTIFIED

    def test_failure_invariant_under_permutation(self, rng):
        h = counterexample_h()
        for _ in range(6):
            g = shuffled(h, rng)
            assert factorize(g, 2, 2).status is FactorizeStatus.NOT_IN_FAMILY


class TestPreconditions:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(GridFunction.zero(2, 3), 1, 1)

    def test_membership_required(self):
        delta = GridFunction.from_dict(2, 3, {(0, 0): 1})
        with pytest.raises(ValueError):
            factorize(delta, 1, 1)


class TestVerdicts:
    def test_minimum_and_characterized(self):
        f = build_F1(4, 3, 1, 1)
        verdict = is_minimum_and_characterized(f, 1, 1)
        assert verdict.support == 36
        assert verdict.meets_bound
        assert verdict.factorization.status is FactorizeStatus.CERTIFIED
        assert "characterized" in verdict.summary

    def test_certified_where_the_equality_case_is_open(self):
        verdict = is_minimum_and_characterized(build_F2(3, 4, 2, 2), 2, 2)
        assert verdict.support == 12 and verdict.meets_bound
        assert verdict.bound.valid and not verdict.bound.characterized
        assert verdict.factorization.status is FactorizeStatus.CERTIFIED
        assert verdict.summary == (
            "support equals the formula value 12; member of F2 "
            "(equality case not characterized at q=4)"
        )

    def test_h_minimum_not_in_family(self):
        verdict = is_minimum_and_characterized(counterexample_h(), 2, 2)
        assert verdict.support == 12 and verdict.meets_bound
        assert verdict.bound.valid and not verdict.bound.characterized
        assert verdict.factorization.status is FactorizeStatus.NOT_IN_FAMILY
        assert "outside the product family" in verdict.summary

    def test_v_below_formula_open_regime(self):
        verdict = is_minimum_and_characterized(counterexample_v(), 2, 2)
        assert verdict.support == 6 and not verdict.meets_bound
        assert not verdict.bound.valid
        assert "below the formula value" in verdict.summary

    def test_g_minimum_uncharacterized_regime(self):
        verdict = is_minimum_and_characterized(counterexample_g(5), 1, 2)
        assert verdict.support == 2 and verdict.meets_bound
        assert (
            verdict.factorization.status is FactorizeStatus.UNCHARACTERIZED_REGIME
        )
        assert "no characterization known" in verdict.summary

    def test_oversized_member(self, rng):
        from conftest import random_member

        while True:
            f = random_member(2, 3, 1, 1, rng)
            if f.support_size() > 4:
                break
        verdict = is_minimum_and_characterized(f, 1, 1)
        assert not verdict.meets_bound
        assert "exceeds" in verdict.summary


class TestRevalidation:
    def test_invalid_certificate_raises_under_optimize(self):
        # python -O strips assert statements; the re-validation must still raise
        script = (
            "import hammingsupport.characterize as chz\n"
            "import hammingsupport.constructions as cons\n"
            "cons.FactorizationCertificate.matches = lambda self, f: False\n"
            "try:\n"
            "    chz.factorize(cons.build_F1(2, 3, 1, 1), 1, 1)\n"
            "except RuntimeError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout == "False peeling produced an invalid certificate\n"
