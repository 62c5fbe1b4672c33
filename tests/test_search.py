import math

import numpy as np
import pytest

from tollgap.search import (
    REFINE_POINTS,
    bisect_root,
    grid_refine_max,
    grid_refine_min,
    grid_refine_mins,
)


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

    def test_two_objectives_match_single_calls(self):
        # One minimum at lo (its bracket starts half as wide) and one inside,
        # so the two objectives stop after different numbers of passes.
        first = lambda t: t * t
        second = lambda t: (t - 0.37) ** 2 + np.sin(40.0 * t) * 1e-3
        joint = counted(lambda t: (first(t), second(t)))
        [both] = grid_refine_mins(lambda k, t: joint(t), [0.0], [1.0], 4096)
        singles = [grid_refine_min(fn, 0.0, 1.0, 4096) for fn in (first, second)]
        assert [(x, fn(x)) for x, fn in zip(both, (first, second))] == singles
        zooms = [np.shape(x) for x in joint.calls[1:]]
        assert zooms == [(2, REFINE_POINTS)] * 4 + [(1, REFINE_POINTS)]

    def test_problems_match_single_calls(self):
        # 70 problems, each with its own band and minimizer, two objectives a
        # problem: the zoom rows of all of them share calls, and calls of 31
        # rows do not divide the 134 brackets of the 67 nonempty bands.
        rng = np.random.default_rng(3)
        lo = rng.uniform(-1.0, 1.0, 70)
        hi = lo + rng.uniform(0.0, 3.0, 70)
        hi[:3] = lo[:3]  # empty bands answer lo
        centers = rng.uniform(lo - 0.5, hi + 0.5)
        fns = [
            (lambda t, c=c: (t - c) ** 2, lambda t, c=c: np.abs(t - c) + np.sin(9.0 * t) * 1e-3)
            for c in centers
        ]
        calls, zoom_rows = [], []

        def fn(k, t):
            calls.append((np.ndim(k), np.shape(t)))
            if np.ndim(k) == 0:
                return [f(t) for f in fns[k]]
            zoom_rows.extend(t)
            c = centers[k][:, None]
            return [(t - c) ** 2, np.abs(t - c) + np.sin(9.0 * t) * 1e-3]

        got = grid_refine_mins(fn, lo, hi, 4096)
        want = [[grid_refine_min(f, a, b, 4096)[0] for f in pair] for pair, a, b in zip(fns, lo, hi)]
        assert got == want
        assert got[:3] == [[a, a] for a in lo[:3]]
        scans, zooms = calls[:70], calls[70:]
        assert scans == [(0, (4096,))] * 70
        assert all(ndim == 1 for ndim, _ in zooms)
        assert max(shape[0] for _, shape in zooms) == 4096 // REFINE_POINTS
        assert all(shape[1] == REFINE_POINTS for _, shape in zooms)
        # Each zoom row is np.linspace over its bracket, bit for bit.
        assert all(np.array_equal(z, np.linspace(z[0], z[-1], REFINE_POINTS)) for z in zoom_rows)

    def test_no_problems(self):
        assert grid_refine_mins(lambda k, t: (t,), [], [], 64) == []

    def test_search_of_4096_points_makes_at_most_8_calls(self):
        fn = counted(lambda t: np.cos(t) + 0.1 * t)
        x, _ = grid_refine_min(fn, 0.0, 10.0, 4096)
        assert abs(x - (math.pi - math.asin(0.1))) <= 1e-7  # float-flat near its minimum
        assert len(fn.calls) <= 8
        assert np.shape(fn.calls[0]) == (4096,) and isinstance(fn.calls[-1], float)
