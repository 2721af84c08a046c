import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hammingsupport import (
    GridFunction,
    a1,
    a2,
    a4,
    apply_adjacency,
    counterexample_g,
    decompose,
    eigenspace_dimension,
    eigenvalue,
    elementary,
    in_direct_sum,
    index_to_word,
    is_eigenfunction,
    krawtchouk,
    project_eigenspace,
    project_span,
    spectral_profile,
    spectra,
)
from hammingsupport.core import ScaleError

from conftest import (
    lagrange_project,
    naive_adjacency,
    random_family_instance,
    random_member,
    random_values,
)


class TestEigenvalue:
    def test_examples(self):
        assert eigenvalue(2, 3, 0) == 4
        assert eigenvalue(2, 3, 1) == 1
        assert eigenvalue(3, 4, 2) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvalue(2, 3, 3)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 7))
    def test_additivity(self, m, n, q):
        for i in range(m + 1):
            for j in range(n + 1):
                assert eigenvalue(m, q, i) + eigenvalue(n, q, j) == eigenvalue(
                    m + n, q, i + j
                )


class TestKrawtchouk:
    def test_k0_is_one(self):
        assert all(krawtchouk(4, 3, 0, d) == 1 for d in range(5))

    def test_k1_linear(self):
        n, q = 4, 5
        for d in range(n + 1):
            assert krawtchouk(n, q, 1, d) == n * (q - 1) - q * d

    def test_at_zero_distance(self):
        for n in range(1, 5):
            for q in (2, 3, 5):
                for i in range(n + 1):
                    assert krawtchouk(n, q, i, 0) == comb(n, i) * (q - 1) ** i


class TestAdjacency:
    def test_regular_degree(self):
        f = GridFunction.constant(2, 3, 1)
        assert apply_adjacency(f) == GridFunction.constant(2, 3, 4)

    def test_a2_eigen(self):
        f = elementary(a2(0, 1), 5)
        assert apply_adjacency(f) == f.scale(-1)

    def test_zero(self):
        assert apply_adjacency(GridFunction.zero(2, 4)).is_zero()

    def test_matches_neighbor_sum(self, rng):
        for n, q in ((1, 4), (2, 3), (3, 2), (2, 5)):
            f = random_values(n, q, rng)
            assert apply_adjacency(f) == naive_adjacency(f)

    def test_rational_values(self):
        f = GridFunction.from_dict(1, 3, {(0,): Fraction(1, 2), (2,): Fraction(-1, 3)})
        assert apply_adjacency(f) == naive_adjacency(f)


class TestIsEigenfunction:
    def test_a1_in_u1(self):
        assert is_eigenfunction(elementary(a1(1, 1), 3), 1)

    def test_constant_in_u0(self):
        assert is_eigenfunction(GridFunction.constant(3, 3, 5), 0)

    def test_zero_vacuous(self):
        assert all(is_eigenfunction(GridFunction.zero(2, 3), i) for i in range(3))

    def test_rejects(self):
        assert not is_eigenfunction(elementary(a1(0, 0), 3), 0)


class TestProjectors:
    def test_constant_fixed_by_e0(self):
        f = GridFunction.constant(2, 3, Fraction(7, 2))
        assert project_eigenspace(f, 0) == f

    def test_a2_fixed_by_e1(self):
        f = elementary(a2(0, 1), 4)
        assert project_eigenspace(f, 1) == f

    def test_a2_killed_by_e0(self):
        # mean of a2 is zero, so the U_0 component vanishes
        f = elementary(a2(0, 1), 4)
        assert project_eigenspace(f, 0).is_zero()

    def test_matches_lagrange_oracle(self, rng):
        for n, q in ((1, 3), (2, 3), (2, 4), (3, 2), (3, 3)):
            f = random_values(n, q, rng)
            for i in range(n + 1):
                assert project_eigenspace(f, i) == lagrange_project(f, i)

    def test_projection_is_eigenfunction(self, rng):
        for n, q in ((2, 3), (3, 4)):
            f = random_values(n, q, rng)
            for i in range(n + 1):
                assert is_eigenfunction(project_eigenspace(f, i), i)

    def test_decompose_completeness(self, rng):
        f = random_values(3, 3, rng)
        parts = decompose(f)
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total == f
        for i, part in enumerate(parts):
            assert part == project_eigenspace(f, i)

    def test_project_span_is_partial_sum(self, rng):
        f = random_values(2, 4, rng)
        span = project_span(f, 1, 2)
        assert span == project_eigenspace(f, 1) + project_eigenspace(f, 2)

    def test_idempotent_and_annihilating(self, rng):
        n, q = 2, 4
        f = random_values(n, q, rng)
        parts = decompose(f)
        for i, part in enumerate(parts):
            for j, piece in enumerate(decompose(part)):
                assert piece == (part if i == j else GridFunction.zero(n, q))


class TestMembership:
    def test_g_in_u12(self):
        assert in_direct_sum(counterexample_g(5), 1, 2)

    def test_a4_in_u01(self):
        assert in_direct_sum(elementary(a4(2), 4), 0, 1)

    def test_a1_not_in_u00(self):
        assert not in_direct_sum(elementary(a1(0, 0), 3), 0, 0)

    def test_matches_projection_sum(self, rng):
        for n, q in ((2, 3), (3, 3)):
            f = random_values(n, q, rng)
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    expected = project_span(f, lo, hi) == f
                    assert in_direct_sum(f, lo, hi) == expected

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            in_direct_sum(GridFunction.zero(2, 3), 1, 0)
        with pytest.raises(ValueError):
            in_direct_sum(GridFunction.zero(2, 3), 0, 3)


class TestProfile:
    def test_delta_full_profile(self):
        delta = GridFunction.from_dict(2, 3, {(1, 2): 1})
        assert spectral_profile(delta) == (0, 1, 2)

    def test_zero_empty_profile(self):
        assert spectral_profile(GridFunction.zero(2, 3)) == ()

    def test_profile_consistent_with_projection(self, rng):
        f = random_member(3, 3, 1, 2, rng)
        assert spectral_profile(f) in ((1,), (2,), (1, 2))
        assert not project_eigenspace(f, 0).support_size()
        assert not project_eigenspace(f, 3).support_size()


class TestDimensions:
    def test_examples(self):
        assert eigenspace_dimension(2, 3, 0) == 1
        assert eigenspace_dimension(2, 3, 1) == 4

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_out_of_range(self, i):
        with pytest.raises(ValueError, match="out of range"):
            eigenspace_dimension(2, 3, i)

    def test_e1_trace_computed(self):
        # trace of E_1 on H(2,3) summed from explicit kernel diagonal values
        n, q = 2, 3
        trace = sum(Fraction(krawtchouk(n, q, 1, 0), q**n) for _ in range(q**n))
        assert trace == eigenspace_dimension(n, q, 1)

    def test_completeness(self):
        assert sum(eigenspace_dimension(3, 4, i) for i in range(4)) == 64

    def test_dimension_equals_projector_rank(self, rng):
        from conftest import fraction_matrix_rank

        n, q = 2, 3
        for i in range(n + 1):
            columns = []
            for index in range(q**n):
                delta = GridFunction(
                    n, q, tuple(Fraction(int(t == index)) for t in range(q**n))
                )
                columns.append(project_eigenspace(delta, i).values)
            rank = fraction_matrix_rank(list(map(list, zip(*columns))))
            assert rank == eigenspace_dimension(n, q, i)


class TestTensorCompatibility:
    def test_products_of_members(self, rng):
        for q in (3, 4):
            for m, n in ((1, 1), (1, 2), (2, 2), (1, 3)):
                for i in range(m + 1):
                    for j in range(n + 1):
                        f = random_member(m, q, i, i, rng)
                        g = random_member(n, q, j, j, rng)
                        assert is_eigenfunction(f.tensor(g), i + j)


class TestScaleGuard:
    def test_too_large(self):
        # 2^17 vertices is above MAX_VERTICES = 2^16
        with pytest.raises(ScaleError):
            project_eigenspace(GridFunction.zero(17, 2), 1)


def _oracle_shapes():
    """Every (n, q) with q <= 16 and q^n <= 256, n = 0 included, plus (1, 256)."""
    shapes = [(1, 256)]
    for q in range(2, 17):
        n = 0
        while q**n <= 256:
            shapes.append((n, q))
            n += 1
    return shapes


def _rational_values(n, q, rng):
    return GridFunction(
        n,
        q,
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(q**n)),
    )


class TestEngineAgainstOracle:
    """The graded transform and the slice descent against Lagrange interpolation."""

    @pytest.mark.parametrize("n,q", _oracle_shapes())
    def test_decompose_and_membership(self, n, q, rng):
        f = _rational_values(n, q, rng)
        oracle = [lagrange_project(f, i) for i in range(n + 1)]
        assert decompose(f) == oracle
        # keep a random set of components so membership has both answers
        kept = [i for i in range(n + 1) if rng.random() < 0.5]
        g = GridFunction.zero(n, q)
        for i in kept:
            g = g + oracle[i]
        vanishing = [lagrange_project(g, w).is_zero() for w in range(n + 1)]
        assert spectral_profile(g) == tuple(w for w in range(n + 1) if not vanishing[w])
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                expected = all(
                    vanishing[w] for w in range(n + 1) if not lo <= w <= hi
                )
                assert expected == all(lo <= i <= hi for i in kept)
                assert in_direct_sum(g, lo, hi) == expected


class TestGradedTop:
    """`_graded(f, top)` drops the weights from top on, and keeps the ones below exact."""

    @pytest.mark.parametrize("n,q", _oracle_shapes())
    def test_prefix_of_the_full_transform(self, n, q, rng):
        f = _rational_values(n, q, rng)
        full = spectra._graded(f, n + 1)
        assert len(full) == n + 1
        for top in range(1, n + 2):
            assert spectra._graded(f, top) == full[:top], top


class TestBeyondOldCap:
    """q^n = 16384, with every component known by construction."""

    @staticmethod
    def _product(pattern, rng, q):
        # pattern[c] is 1 for a zero-sum factor on coordinate c, 0 for a constant
        out = GridFunction.constant(0, q, 1)
        for zero_sum in pattern:
            if zero_sum:
                head = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q - 1)]
                if not any(head):
                    head[0] = Fraction(1)
                factor = head + [-sum(head)]
            else:
                factor = [Fraction(rng.randint(1, 5), rng.randint(1, 3))] * q
            out = out.tensor(GridFunction(1, q, tuple(factor)))
        return out

    def test_components_and_membership(self, rng):
        n, q = 7, 4
        patterns = {
            2: [(1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 1)],
            3: [(0, 1, 0, 1, 0, 1, 0)],
            5: [(1, 1, 1, 0, 1, 0, 1)],
        }
        expected = [GridFunction.zero(n, q) for _ in range(n + 1)]
        for w, group in patterns.items():
            for pattern in group:
                assert sum(pattern) == w
                expected[w] = expected[w] + self._product(pattern, rng, q)
        f = expected[0]
        for part in expected[1:]:
            f = f + part
        assert decompose(f) == expected
        assert spectral_profile(f) == (2, 3, 5)
        assert project_span(f, 3, 5) == expected[3] + expected[5]
        for lo, hi in ((2, 5), (0, 7), (1, 6), (2, 6)):
            assert in_direct_sum(f, lo, hi)
        for lo, hi in ((3, 5), (2, 4), (0, 2), (5, 7), (3, 3)):
            assert not in_direct_sum(f, lo, hi)


def _point(n, q, index):
    return GridFunction.from_dict(n, q, {index_to_word(index, n, q): 1})


def _one_slice(g, q, k):
    """g on the first n-1 coordinates, times the point mass at k on the last."""
    return g.tensor(_point(1, q, k))


def _descent_inputs():
    """(label, f) pairs that reach every branch of the slice descent."""
    rng = random.Random(20181)
    out = []
    for n, q, index in ((0, 3, 0), (1, 2, 1), (1, 5, 3), (2, 2, 3), (3, 3, 0),
                        (3, 3, 13), (2, 4, 9), (4, 2, 6), (3, 4, 63)):
        out.append((f"point mass {index} on H({n},{q})", _point(n, q, index)))
    for n, q, i, j in ((2, 2, 1, 1), (3, 3, 1, 1), (3, 3, 2, 2), (3, 3, 1, 2),
                       (3, 4, 0, 2), (4, 2, 1, 2), (4, 2, 3, 3), (2, 5, 1, 2)):
        f = random_family_instance(n, q, i, j, rng, c=Fraction(-3, 7))
        out.append((f"product in U_[{i},{j}]({n},{q})", f))
        index = rng.randrange(q**n)
        out.append((f"product in U_[{i},{j}]({n},{q}) plus a point mass",
                    f + _point(n, q, index)))
    for n, q, lo, hi in ((1, 3, 0, 0), (2, 3, 1, 1), (2, 4, 0, 1), (3, 2, 1, 2), (2, 2, 2, 2)):
        k = rng.randrange(q)
        out.append((f"one nonzero slice over U_[{lo},{hi}]({n},{q})",
                    _one_slice(random_member(n, q, lo, hi, rng).scale(Fraction(1, 6)), q, k)))
        out.append((f"one nonzero slice, rational values on H({n + 1},{q})",
                    _one_slice(_rational_values(n, q, rng), q, k)))
    for n, q, lo, hi in ((2, 3, 1, 1), (3, 3, 2, 3), (3, 2, 1, 1), (4, 2, 2, 2),
                         (2, 4, 0, 1), (4, 3, 2, 2), (1, 2, 1, 1), (1, 4, 0, 0)):
        f = random_member(n, q, lo, hi, rng).scale(Fraction(5, 12))
        out.append((f"dense member of U_[{lo},{hi}]({n},{q})", f))
        if hi < n:
            g = f + random_member(n, q, hi + 1, hi + 1, rng)
            out.append((f"dense member of U_[{lo},{hi + 1}]({n},{q})", g))
    for n, q in ((0, 2), (1, 2), (1, 3), (2, 2), (3, 2), (5, 2), (3, 3)):
        out.append((f"rational values on H({n},{q})", _rational_values(n, q, rng)))
    return out


class TestSliceDescentAgainstOracle:
    """Membership on every window, and the profile, against Lagrange interpolation."""

    @pytest.mark.parametrize("f", [pytest.param(f, id=label) for label, f in _descent_inputs()])
    def test_profile_and_every_window(self, f):
        n = f.n
        profile = tuple(w for w in range(n + 1) if not lagrange_project(f, w).is_zero())
        assert spectral_profile(f) == profile
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert in_direct_sum(f, lo, hi) == all(lo <= w <= hi for w in profile)

    def test_inputs_reach_every_branch(self):
        inputs = [f for _, f in _descent_inputs()]
        # (nonzero last-coordinate slices, q) of each input with n >= 2
        shapes = [(sum(any(f.nums[k::f.q]) for k in range(f.q)), f.q) for f in inputs if f.n >= 2]
        assert any(c == 1 for c, q in shapes)
        assert any(1 < c < q for c, q in shapes)  # a zero reference among nonzero slices
        assert any(c == q for c, q in shapes)  # the last slice is the reference
        assert {0, 1} <= {f.n for f in inputs}
        assert any(f.q == 2 and f.n >= 3 for f in inputs)
        assert any(f.den > 1 for f in inputs)


class TestBoundedRecursion:
    def test_deepest_shape_under_low_recursion_limit(self):
        # the descent recurses once per coordinate, so n = 16 must fit in a
        # stack far below the default limit
        script = (
            "import sys\n"
            "from hammingsupport import GridFunction, in_direct_sum, spectral_profile\n"
            "odd, even = GridFunction(1, 2, (1, -1)), GridFunction(1, 2, (1, 1))\n"
            "f = GridFunction.constant(0, 2, 1)\n"
            "g = GridFunction.constant(0, 2, 1)\n"
            "for c in range(16):\n"
            "    f = f.tensor(odd if c < 8 else even)\n"
            "    g = g.tensor(odd if c % 2 else even)\n"
            "member = f + g.scale(3)\n"
            "other = member + GridFunction.from_dict(16, 2, {(0,) * 16: 1})\n"
            "sys.setrecursionlimit(60)\n"
            "print(in_direct_sum(member, 8, 8), spectral_profile(member))\n"
            "print(in_direct_sum(other, 8, 8), len(spectral_profile(other)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "RecursionError" not in done.stderr
        assert done.stdout.splitlines() == ["True (8,)", "False 17"]
