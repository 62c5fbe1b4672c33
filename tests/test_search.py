import math

import pytest

from tollgap.search import bisect_root


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
