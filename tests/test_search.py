import math

import numpy as np
import pytest

from tollgap.search import REFINE_POINTS, bisect_root, grid_refine_max, grid_refine_min


class TestBisectRoot:
    def test_zero_at_lower_endpoint_returned_exactly(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x - 1.0

        assert bisect_root(fn, 1.0, 30.0) == 1.0
        assert calls == [1.0, 30.0]

    def test_zero_at_upper_endpoint_returned_exactly(self):
        assert bisect_root(lambda x: 30.0 - x, 1.0, 30.0) == 30.0

    @pytest.mark.parametrize("fn", [lambda x: x * x + 1.0, lambda x: x - 50.0, lambda x: math.nan])
    def test_no_sign_change_returns_none(self, fn):
        assert bisect_root(fn, 1.0, 30.0) is None

    def test_rejects_nonpositive_xtol(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x - 2.0, 1.0, 30.0, xtol=0.0)

    @pytest.mark.parametrize("xtol", [1e-3, 1e-10])
    def test_linear_root_within_xtol(self, xtol):
        root = 21.0 / 11.5
        got = bisect_root(lambda x: 11.5 * x - 21.0, 1.0, 30.0, xtol=xtol)
        assert abs(got - root) <= xtol

    @pytest.mark.parametrize("xtol", [1e-4, 1e-10])
    def test_nonlinear_root_within_xtol(self, xtol):
        # Decreasing and convex: the sign runs + to -, the mirror of the linear case.
        got = bisect_root(lambda x: math.exp(-x) - 0.25, 0.0, 5.0, xtol=xtol)
        assert abs(got - math.log(4.0)) <= xtol

    def test_reversed_bracket(self):
        got = bisect_root(lambda x: x**3 - 2.0, 30.0, 1.0, xtol=1e-10)
        assert abs(got - 2.0 ** (1.0 / 3.0)) <= 1e-10


def counted(fn):
    """``fn`` with a ``calls`` list of the arguments it was called with."""

    def wrapped(x):
        wrapped.calls.append(x)
        return fn(x)

    wrapped.calls = []
    return wrapped


class TestGridRefine:
    @pytest.mark.parametrize("center", [0.3, 3.3, math.pi, 9.999])
    def test_interior_minimizer_within_tolerance(self, center):
        lo, hi = 0.0, 10.0
        x, value = grid_refine_min(lambda t: (t - center) ** 2, lo, hi, 4096)
        assert abs(x - center) <= (hi - lo) * 1e-12
        assert value == (x - center) ** 2

    def test_kink_minimizer_within_tolerance(self):
        x, _ = grid_refine_min(lambda t: abs(t - 0.7) + 0.5 * t, 0.0, 1.0, 100)
        assert abs(x - 0.7) <= 1e-12

    def test_minimum_at_lo_returned_exactly(self):
        assert grid_refine_min(lambda t: t * t, 0.1, 7.3, 4096) == (0.1, 0.1 * 0.1)

    def test_maximum_at_hi_returned_exactly(self):
        assert grid_refine_max(lambda t: t * t, 0.1, 7.3, 4096) == (7.3, 7.3 * 7.3)

    def test_empty_interval_gives_lo(self):
        assert grid_refine_min(lambda t: t + 1.0, 2.0, 2.0, 16) == (2.0, 3.0)

    def test_rejects_fewer_than_two_grid_points(self):
        with pytest.raises(ValueError):
            grid_refine_min(lambda t: t, 0.0, 1.0, 1)

    def test_tie_between_ends_goes_to_lo(self):
        assert grid_refine_min(lambda t: -t * t, -1.0, 1.0, 64) == (-1.0, -1.0)

    def test_tie_on_a_plateau_goes_to_the_refined_point(self):
        # The minimum value 0 is taken on all of [0.5, 1]: the scan argmin,
        # the refined point and hi tie, and the refined point comes first.
        x, value = grid_refine_min(lambda t: np.where(t < 0.5, 1.0, 0.0), 0.0, 1.0, 64)
        assert value == 0.0
        assert 0.5 <= x <= 0.5 + 1e-12

    def test_search_of_4096_points_makes_at_most_8_calls(self):
        fn = counted(lambda t: np.cos(t) + 0.1 * t)
        x, _ = grid_refine_min(fn, 0.0, 10.0, 4096)
        assert abs(x - (math.pi - math.asin(0.1))) <= 1e-7  # float-flat near its minimum
        assert len(fn.calls) <= 8
        assert np.shape(fn.calls[0]) == (4096,) and isinstance(fn.calls[-1], float)
        # Each zoom row is np.linspace over its bracket, bit for bit.
        zooms = fn.calls[1:-1]
        assert zooms and all(np.array_equal(z, np.linspace(z[0], z[-1], REFINE_POINTS)) for z in zooms)
