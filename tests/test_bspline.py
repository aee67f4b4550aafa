"""B-spline evaluation against hand-coded closed forms, plus spline algebra."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinephase
from splinephase import (
    SampleSet,
    SplineFunction,
    UnsignedSamples,
    build_collocation,
    build_counterexample,
    eval_bspline,
    eval_spline,
    is_almost_phaseless,
    is_local_phaseless,
    is_local_sampling,
    is_separable,
    partition_oracle,
    reconstruct,
    schoenberg_whitney,
)
from splinephase.bspline import MAX_DEGREE, as_fraction, touched_shifts


def triangle(x: Fraction) -> Fraction:
    """Degree-1 cardinal B-spline, written out piecewise."""
    if 0 <= x <= 1:
        return Fraction(x)
    if 1 <= x <= 2:
        return 2 - Fraction(x)
    return Fraction(0)


def quadratic(x: Fraction) -> Fraction:
    """Degree-2 cardinal B-spline, written out piecewise."""
    x = Fraction(x)
    if 0 <= x <= 1:
        return x * x / 2
    if 1 <= x <= 2:
        return -x * x + 3 * x - Fraction(3, 2)
    if 2 <= x <= 3:
        return (3 - x) * (3 - x) / 2
    return Fraction(0)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=64)


class TestEvalBspline:
    def test_support_boundary(self):
        assert eval_bspline(1, 0) == 0
        assert eval_bspline(1, 2) == 0
        assert eval_bspline(3, 4) == 0

    def test_triangle_midpoint(self):
        # closed form: the triangle rises linearly, so the value at 1/2 is 1/2
        assert eval_bspline(1, Fraction(1, 2)) == Fraction(1, 2)

    def test_quadratic_at_three_halves(self):
        # middle piece of the convolution integral gives 3/4 at 3/2
        assert eval_bspline(2, Fraction(3, 2)) == Fraction(3, 4)

    @pytest.mark.parametrize("m,closed_form", [(1, triangle), (2, quadratic)])
    def test_matches_piecewise_formulas(self, m, closed_form):
        rng = random.Random(5 + m)
        for _ in range(100):
            x = Fraction(rng.randint(-20, 4 * 20), 16)
            assert eval_bspline(m, x) == closed_form(x)

    @given(x=rationals, m=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, x, m):
        total = sum(
            eval_bspline(m, x - n)
            for n in range(int(x) - m - 2, int(x) + 2)
        )
        assert total == 1

    @given(x=rationals, m=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x, m):
        assert eval_bspline(m, x) == eval_bspline(m, (m + 1) - x)

    @given(x=rationals, m=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_support_is_exact(self, x, m):
        value = eval_bspline(m, x)
        if x <= 0 or x >= m + 1:
            assert value == 0
        else:
            assert value > 0

    def test_rejects_bad_degree_and_floats(self):
        with pytest.raises(ValueError):
            eval_bspline(0, Fraction(1, 2))
        with pytest.raises(TypeError):
            eval_bspline(1, 0.5)
        with pytest.raises(TypeError):
            as_fraction(True)


class TestDegreeCap:
    def test_evaluation_refuses_degrees_past_the_cap(self):
        m = MAX_DEGREE + 1
        E = SampleSet((Fraction(1, 3), Fraction(1, 2)), (0, 1))
        f = SplineFunction(m, -m, (1,) * (m + 1), (0, 1))
        calls = {
            "eval_bspline": lambda: eval_bspline(m, Fraction(1, 2)),
            "eval_spline": lambda: eval_spline(f, Fraction(1, 2)),
            "build_collocation": lambda: build_collocation(E, m),
            "schoenberg_whitney": lambda: schoenberg_whitney(m, [0], [Fraction(1, 2)]),
            "reconstruct": lambda: reconstruct(UnsignedSamples(E, (1, 1)), m),
            "partition_oracle": lambda: partition_oracle(E, m),
            "build_counterexample": lambda: build_counterexample(E, m),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="at most %d, got %d" % (MAX_DEGREE, m)):
                call()
                pytest.fail(name)

    def test_cap_admits_its_limit_and_spares_the_count_certifiers(self):
        assert eval_bspline(MAX_DEGREE, Fraction(MAX_DEGREE + 1, 2)) > 0
        E = SampleSet((Fraction(1, 3), Fraction(1, 2)), (0, 1))
        assert len(build_collocation(E, MAX_DEGREE).entries) == MAX_DEGREE + 1
        for certify in (is_local_sampling, is_almost_phaseless, is_local_phaseless):
            assert certify(E, 10 * MAX_DEGREE).violated.condition == "cardinality"


class TestSplineFunction:
    def test_zero_function(self):
        f = SplineFunction(1, 0, (0, 0, 0))
        assert eval_spline(f, Fraction(7, 3)) == 0

    def test_single_peak(self):
        f = SplineFunction(1, 0, (1,))
        assert eval_spline(f, 1) == 1

    def test_partition_sum_windowless(self):
        f = SplineFunction(2, -2, (1, 1, 1))
        assert eval_spline(f, Fraction(1, 2)) == 1

    def test_window_indicator_is_closed(self):
        f = SplineFunction(1, -1, (1, 1, 1), window=(0, 2))
        # endpoints evaluate as the unrestricted spline: partition of unity gives 1
        assert eval_spline(f, 0) == 1
        assert eval_spline(f, 2) == 1
        assert eval_spline(f, Fraction(-1, 10)) == 0
        assert eval_spline(f, Fraction(21, 10)) == 0

    def test_window_forces_coefficient_range(self):
        with pytest.raises(ValueError):
            SplineFunction(1, 0, (1, 1), window=(0, 2))
        SplineFunction(1, -1, (1, 1, 1), window=(0, 2))

    def test_evaluation_outside_coefficient_support(self):
        f = SplineFunction(2, 3, (1, 2))
        assert eval_spline(f, 3) == 0
        assert eval_spline(f, 8) == 0
        assert eval_spline(f, Fraction(9, 2)) != 0


class TestTouchedShifts:
    def test_matches_the_nonzero_values(self):
        # Sixths from -2 to 6 hold the integers and the window edges below.
        for m in (1, 2, 3, 4):
            ranges = [(n1 - m, n2 - 1) for n1, n2 in ((0, 1), (0, 3), (-2, 2), (1, 5))] + [(3, 1)]
            for lo, hi in ranges:
                for k in range(-12, 37):
                    x = Fraction(k, 6)
                    expected = [n for n in range(lo, hi + 1) if eval_bspline(m, x - n) != 0]
                    assert list(touched_shifts(m, x, lo, hi)) == expected, (m, x, lo, hi)


class TestSeparability:
    def test_short_window_never_separable(self):
        f = SplineFunction(1, -1, (5, -7), window=(0, 1))
        assert not is_separable(f)

    def test_dense_coefficients_not_separable(self):
        f = SplineFunction(2, -2, (1, 1, 1, 1, 1, 1), window=(0, 4))
        assert not is_separable(f)

    def test_gap_of_degree_plus_one_is_separable(self):
        f = SplineFunction(1, -1, (1, 0, 0, 1), window=(0, 3))
        assert is_separable(f)

    def test_requires_window(self):
        with pytest.raises(ValueError):
            is_separable(SplineFunction(1, 0, (1, 2)))

    def test_separable_split_has_zero_product(self):
        # cut at the zero gap and check f = f1 + f2 with f1*f2 = 0 pointwise
        rng = random.Random(11)
        f = SplineFunction(1, -1, (1, 0, 0, 1), window=(0, 3))
        left = SplineFunction(1, -1, (1, 0, 0, 0), window=(0, 3))
        right = SplineFunction(1, -1, (0, 0, 0, 1), window=(0, 3))
        for _ in range(50):
            x = Fraction(rng.randint(0, 48), 16)
            vl, vr = eval_spline(left, x), eval_spline(right, x)
            assert vl + vr == eval_spline(f, x)
            assert vl * vr == 0


class TestNumericTextBounds:
    def test_constructors_refuse_unbounded_text_promptly(self):
        # The check runs in a child process so the limit is hard: an
        # unbounded parse sits in C code that no signal here could stop.
        script = textwrap.dedent("""
            import time
            from splinephase import SampleSet, SplineFunction, UnsignedSamples
            E = SampleSet(("1/2",), (0, 1))
            builders = {
                "SampleSet": lambda t: SampleSet((t,), (0, 1)),
                "SplineFunction": lambda t: SplineFunction(1, 0, (t,)),
                "UnsignedSamples": lambda t: UnsignedSamples(E, (t,)),
            }
            start = time.perf_counter()
            for name, build in builders.items():
                for text in ("1e-999999999", "1E+1_000_000_000", "2/3e999999999", "1" * 1001, "1/0", "three"):
                    try:
                        build(text)
                    except ValueError:
                        continue
                    raise SystemExit("%s accepted %r" % (name, text[:20]))
            elapsed = time.perf_counter() - start
            if elapsed > 1.0:
                raise SystemExit("refusals took %.2f s" % elapsed)
        """)
        src = os.path.dirname(os.path.dirname(splinephase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_bounds_admit_their_limits(self):
        assert as_fraction("1e-1000") == Fraction(1, 10**1000)
        assert as_fraction("1" * 1000) == int("1" * 1000)
