import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craftfaces.errors import EvaluationError, ShapeError
from craftfaces.numerics import (
    RngStream,
    _mix64,
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

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6)),
            elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([np.inf, -np.inf, np.nan]),
        )
    )
    @example(np.array([[[-np.inf, -np.inf], [np.nan, 1.0]], [[np.inf, 0.0], [np.inf, np.inf]]]))
    def test_bytes_of_the_bare_max_formula(self, m):
        """Rows with +-inf and NaN entries, all--inf rows included, give
        the bytes of subtracting the max without an initial value."""
        with np.errstate(invalid="ignore", over="ignore"):
            e = m - m.max(axis=-1, keepdims=True)
            np.exp(e, out=e)
            e /= e.sum(axis=-1, keepdims=True)
            out = softmax_rows(m)
        assert out.tobytes() == e.tobytes()

    def test_stack_equals_each_matrix(self):
        m = RngStream(seed=12).normal((5, 16, 16)) * 4.0
        out = softmax_rows(m)
        for b in range(5):
            assert out[b].tobytes() == softmax_rows(m[b]).tobytes()


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


_seeds = st.integers(0, 2**63 - 1)
_paths = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=3)
_shapes = st.lists(st.integers(0, 5), max_size=3).map(tuple)
_kinds = st.sampled_from(["normal", "uniform", "integers"])


def _draw(source, kind: str, shape):
    """One draw of ``kind`` from an RngStream or from a numpy Generator."""
    if isinstance(source, RngStream):
        args = {"normal": (shape,), "uniform": (shape, -2.0, 3.0), "integers": (-7, 1000, shape)}
        return getattr(source, kind)(*args[kind])
    if kind == "normal":
        return source.standard_normal(size=shape, dtype=np.float64)
    if kind == "uniform":
        return source.uniform(-2.0, 3.0, size=shape)
    return source.integers(-7, 1000, size=shape)


def _stream(seed: int, path) -> RngStream:
    s = RngStream(seed=seed)
    for key in path:
        s = s.split(key)
    return s


def _fresh(seed: int, path, counter: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_mix64(seed, *path, counter)))


class TestStreamContract:
    """Draw ``counter`` of a stream is the first draw of a fresh
    ``Philox(key=_mix64(seed, *path, counter))`` generator, whatever was
    drawn before, from which stream and on which thread."""

    @settings(max_examples=150, deadline=None)
    @given(_seeds, _paths, st.integers(0, 2**40), st.lists(st.tuples(_kinds, _shapes), min_size=1, max_size=6))
    def test_draw_is_the_fresh_philox_draw(self, seed, path, counter, draws):
        s = _stream(seed, path)
        s.counter = counter
        for i, (kind, shape) in enumerate(draws):
            got = _draw(s, kind, shape)
            want = _draw(_fresh(seed, path, counter + i), kind, shape)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert s.counter == counter + len(draws)

    @settings(max_examples=150, deadline=None)
    @given(
        _seeds, _paths, st.lists(st.integers(-(2**63), 2**63 - 1) | st.text(max_size=4), max_size=3),
        st.integers(0, 2**40), st.integers(1, 4),
    )
    def test_key_hashes_seed_and_path_once(self, seed, path, children, counter, n):
        """With the seed and path hashed once per stream, every key is still
        ``_mix64(seed, *path, counter)``, for split children of a stream
        that has drawn and for a pickled copy; the cached hash is in
        neither ``==`` nor ``repr``."""
        s = _stream(seed, path)
        s.normal((2,))
        for key in children:
            s = s.split(key)
        s.counter = counter
        for i in range(n):
            assert s._key() == _mix64(seed, *s._path, counter + i)
            got = s.normal((3,))
            assert got.tobytes() == _draw(_fresh(seed, s._path, counter + i), "normal", (3,)).tobytes()
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and repr(copy) == repr(s)
        assert copy.normal((3,)).tobytes() == s.normal((3,)).tobytes()
        unused = RngStream(seed=seed, counter=s.counter, _path=s._path)
        assert unused == s and repr(unused) == repr(s)

    @settings(max_examples=60, deadline=None)
    @given(_seeds, st.lists(st.tuples(st.booleans(), _kinds, _shapes), min_size=1, max_size=12))
    def test_interleaved_streams_keep_their_sequences(self, seed, schedule):
        a, b = _stream(seed, [0]), _stream(seed, [1])
        interleaved = [(left, _draw(a if left else b, kind, shape)) for left, kind, shape in schedule]
        a_alone, b_alone = _stream(seed, [0]), _stream(seed, [1])
        for (left, got), (_, kind, shape) in zip(interleaved, schedule):
            want = _draw(a_alone if left else b_alone, kind, shape)
            assert got.tobytes() == want.tobytes()

    def test_streams_on_two_threads_keep_their_sequences(self):
        kinds = ["normal", "uniform", "integers"] * 100

        def run(stream, out, barrier):
            barrier.wait()
            out.extend(_draw(stream, kind, (7,)).tobytes() for kind in kinds)

        barrier = threading.Barrier(2)
        results = [[], []]
        threads = [
            threading.Thread(target=run, args=(_stream(5, [key]), results[key], barrier))
            for key in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between draws, not only between runs
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        for key in (0, 1):
            alone = _stream(5, [key])
            assert results[key] == [_draw(alone, kind, (7,)).tobytes() for kind in kinds]


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
