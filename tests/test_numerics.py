import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craftfaces.errors import EvaluationError, ShapeError
from craftfaces.numerics import (
    RngStream,
    finite_diff_grad,
    softmax_rows,
    tensor,
)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.zeros((1, 3)))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_extreme_logit_is_stable(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert abs(out[0, 0] - 1.0) <= 1e-12
        assert abs(out[0, 1]) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 5),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m)
        assert np.all(out >= 0.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros(4))


class TestGaussian:
    def test_same_seed_bit_identical(self):
        a = RngStream(seed=11).normal((4, 7))
        b = RngStream(seed=11).normal((4, 7))
        assert a.tobytes() == b.tobytes()

    def test_counter_is_the_state(self):
        s = RngStream(seed=11)
        first = s.normal((3,))
        second = s.normal((3,))
        assert not np.array_equal(first, second)
        resumed = RngStream(seed=11, counter=1)
        assert np.array_equal(resumed.normal((3,)), second)

    def test_sequence_does_not_depend_on_draw_shapes(self):
        s1 = RngStream(seed=2)
        s2 = RngStream(seed=2)
        s1.normal((5,))
        s2.normal((2, 2))  # different shape, same draw index
        assert np.array_equal(s1.normal((4,)), s2.normal((4,)))

    def test_split_streams_differ(self):
        root = RngStream(seed=3)
        a = root.split(0).normal((100,))
        b = root.split(1).normal((100,))
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_moments(self):
        n = 100_000
        x = RngStream(seed=7).normal((n,))
        assert abs(x.mean()) <= 3.0 / np.sqrt(n)
        assert abs(x.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-4)
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda x: 42.0, np.ones((2, 2)))
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_linear(self):
        c = np.array([1.5, -2.0, 0.25])
        g = finite_diff_grad(lambda x: float(c @ x), np.zeros(3))
        assert np.allclose(g, c, atol=1e-9)

    def test_random_quadratic_matches_analytic(self):
        rng = RngStream(seed=9)
        a = rng.normal((4, 4))
        a = a + a.T
        b = rng.normal((4,))
        x = rng.normal((4,))
        g = finite_diff_grad(lambda v: float(0.5 * v @ a @ v + b @ v), x)
        assert np.max(np.abs(g - (a @ x + b))) <= 1e-6

    def test_non_finite_value_raises(self):
        with pytest.raises(EvaluationError):
            finite_diff_grad(lambda x: float("nan"), np.ones(2))

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.ones(2), h=0.0)


def test_tensor_is_float64_contiguous():
    t = tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float64
    assert t.flags["C_CONTIGUOUS"]
