import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craftfaces.attention import (
    AttentionWeights,
    ExtendedAttentionWeights,
    _forward,
    _softmax_scores,
    attention_map,
    cross_attention,
    identity_self_attention,
    self_attention,
)
from craftfaces.errors import ShapeError
from craftfaces.numerics import RngStream, _softmax_in_place, softmax_rows


def random_weights(rng, d_model=3, d=3, d_id=4):
    base = AttentionWeights(
        w_q=rng.normal((d_model, d)),
        w_k=rng.normal((d_model, d)),
        w_v=rng.normal((d_model, d)),
    )
    return ExtendedAttentionWeights(base=base, u_q=rng.normal((d_id, d)), u_k=rng.normal((d_id, d)))


class TestSelfAttention:
    def test_single_token_returns_its_value_projection(self):
        rng = RngStream(seed=1)
        w = random_weights(rng).base
        tokens = rng.normal((1, 3))
        assert np.allclose(self_attention(tokens, w), tokens @ w.w_v, atol=1e-15)

    def test_two_identical_tokens(self):
        rng = RngStream(seed=2)
        w = random_weights(rng).base
        token = rng.normal((1, 3))
        tokens = np.vstack([token, token])
        amap = attention_map(tokens, None, w)
        assert np.allclose(amap, 0.5, atol=1e-15)
        out = self_attention(tokens, w)
        assert np.array_equal(out[0], out[1])

    def test_permutation_equivariance(self):
        rng = RngStream(seed=3)
        w = random_weights(rng).base
        tokens = rng.normal((5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        assert np.allclose(
            self_attention(tokens, w)[perm], self_attention(tokens[perm], w), atol=1e-12
        )

    def test_dimension_mismatch(self):
        w = random_weights(RngStream(seed=4)).base
        with pytest.raises(ShapeError):
            self_attention(np.ones((2, 5)), w)
        for w_k, w_v in ((np.ones((3, 2)), w.w_v), (w.w_k, np.ones((3, 4)))):
            with pytest.raises(ShapeError, match="must share head dim"):
                AttentionWeights(w_q=w.w_q, w_k=w_k, w_v=w_v)


class TestIdentitySelfAttention:
    def test_zero_identity_reduces_to_base(self):
        rng = RngStream(seed=5)
        for k in range(50):
            r = rng.split(k)
            w = random_weights(r)
            tokens = r.normal((4, 3))
            ident = np.zeros(4)
            diff = identity_self_attention(tokens, ident, w) - self_attention(tokens, w.base)
            assert np.max(np.abs(diff)) <= 1e-12

    def test_equal_inputs_bit_identical(self):
        rng = RngStream(seed=6)
        w = random_weights(rng)
        tokens = rng.normal((4, 3))
        ident = rng.normal((4,))
        a = identity_self_attention(tokens, ident, w)
        b = identity_self_attention(tokens.copy(), ident.copy(), w)
        assert a.tobytes() == b.tobytes()

    def test_hand_case(self):
        # tokens I2, W_q = I, W_k = swap, W_v = [[1,1],[0,1]], id = [1,2],
        # U_q = [[1,0],[0,0]], U_k = [[0,0],[0,1]].
        # Q' = [[2,0],[1,1]], K' = [[0,3],[1,2]], logits/sqrt(2) =
        # [[0, sqrt2],[3/sqrt2, 3/sqrt2]]; values below from an
        # independent pure-python evaluation of the closed form.
        w = ExtendedAttentionWeights(
            base=AttentionWeights(
                w_q=np.eye(2),
                w_k=np.array([[0.0, 1.0], [1.0, 0.0]]),
                w_v=np.array([[1.0, 1.0], [0.0, 1.0]]),
            ),
            u_q=np.array([[1.0, 0.0], [0.0, 0.0]]),
            u_k=np.array([[0.0, 0.0], [0.0, 1.0]]),
        )
        tokens = np.eye(2)
        ident = np.array([1.0, 2.0])
        amap = attention_map(tokens, ident, w)
        expected_map = np.array(
            [[0.19557031749304313, 0.8044296825069569], [0.5, 0.5]]
        )
        assert np.allclose(amap, expected_map, atol=1e-12)
        out = identity_self_attention(tokens, ident, w)
        expected_out = np.array([[0.19557031749304313, 1.0], [0.5, 1.0]])
        assert np.allclose(out, expected_out, atol=1e-12)

    def test_permutation_equivariance_with_identity(self):
        rng = RngStream(seed=7)
        w = random_weights(rng)
        tokens = rng.normal((5, 3))
        ident = rng.normal((4,))
        perm = np.array([4, 2, 0, 3, 1])
        assert np.allclose(
            identity_self_attention(tokens, ident, w)[perm],
            identity_self_attention(tokens[perm], ident, w),
            atol=1e-12,
        )

    def test_identity_dim_mismatch(self):
        w = random_weights(RngStream(seed=8))
        with pytest.raises(ShapeError):
            identity_self_attention(np.ones((2, 3)), np.ones(3), w)
        with pytest.raises(ShapeError, match="must share head dim 3"):
            ExtendedAttentionWeights(base=w.base, u_q=np.ones((4, 2)), u_k=w.u_k)
        with pytest.raises(ShapeError, match="must share id dim"):
            ExtendedAttentionWeights(base=w.base, u_q=w.u_q, u_k=np.ones((5, 3)))


class TestBatchedForward:
    @pytest.mark.parametrize("d", [3, 4, 8])
    @pytest.mark.parametrize("with_identity", [False, True])
    def test_batch_equals_separate_calls_bit_for_bit(self, d, with_identity):
        rng = RngStream(seed=14).split(d)
        w = random_weights(rng, d_model=d, d=d, d_id=6)
        for b in range(1, 17):
            tokens = rng.normal((b, 16, d))
            ident = rng.normal((b, 6)) if with_identity else None
            batched = _forward(tokens, ident, w)
            for i in range(b):
                single = _forward(tokens[i], None if ident is None else ident[i], w)
                for got, want in zip(batched, single):
                    assert got[i].tobytes() == want.tobytes()
                assert batched.out[i].tobytes() == single.out.tobytes()

    def test_batch_shape_errors(self):
        w = random_weights(RngStream(seed=15))
        tokens = np.ones((3, 2, 3))
        with pytest.raises(ShapeError):
            _forward(tokens, np.ones((2, 4)), w)  # one identity row short
        with pytest.raises(ShapeError):
            _forward(tokens, np.ones((3, 5)), w)  # wrong id dim
        with pytest.raises(ShapeError):
            _forward(np.ones((1, 3, 2, 3)), None, w)


class TestCrossAttention:
    def test_single_conditioning_token(self):
        rng = RngStream(seed=9)
        w = AttentionWeights(
            w_q=rng.normal((3, 2)), w_k=rng.normal((5, 2)), w_v=rng.normal((5, 2))
        )
        tokens = rng.normal((4, 3))
        cond = rng.normal((1, 5))
        out = cross_attention(tokens, cond, w)
        expected = cond @ w.w_v
        for row in out:
            assert np.allclose(row, expected[0], atol=1e-15)

    def test_zero_conditioning_gives_zero(self):
        rng = RngStream(seed=10)
        w = AttentionWeights(
            w_q=rng.normal((3, 2)), w_k=rng.normal((4, 2)), w_v=rng.normal((4, 2))
        )
        out = cross_attention(rng.normal((2, 3)), np.zeros((3, 4)), w)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_hand_case_two_queries_one_key(self):
        # queries from I2 tokens; single cond token [2,1]; with m=1 the
        # softmax column is all ones, so both rows equal [2,1] @ W_v = [2,3]
        w = AttentionWeights(
            w_q=np.eye(2),
            w_k=np.array([[0.0, 1.0], [1.0, 0.0]]),
            w_v=np.array([[1.0, 1.0], [0.0, 1.0]]),
        )
        out = cross_attention(np.eye(2), np.array([[2.0, 1.0]]), w)
        assert np.allclose(out, [[2.0, 3.0], [2.0, 3.0]], atol=1e-15)


class TestAttentionMap:
    def test_rows_sum_to_one(self):
        rng = RngStream(seed=11)
        w = random_weights(rng)
        amap = attention_map(rng.normal((6, 3)), rng.normal((4,)), w)
        assert np.max(np.abs(amap.sum(axis=1) - 1.0)) <= 1e-12

    def test_zero_identity_map_equals_baseline(self):
        rng = RngStream(seed=12)
        w = random_weights(rng)
        tokens = rng.normal((4, 3))
        assert np.allclose(
            attention_map(tokens, np.zeros(4), w),
            attention_map(tokens, None, w),
            atol=1e-15,
        )

    @pytest.mark.parametrize("identity", ["none", "shared", "per-item"])
    def test_batch_equals_per_item_calls_bit_for_bit(self, identity):
        """A (B, n, d) stack gives each item the map of its own (n, d) call,
        at the shape the attention ablation scores (16 tokens of 8)."""
        rng = RngStream(seed=16).split(identity)
        w = random_weights(rng, d_model=8, d=8, d_id=6)
        tokens = rng.normal((12, 16, 8))
        ident = {"none": None, "shared": rng.normal((6,)), "per-item": rng.normal((12, 6))}[identity]
        batched = attention_map(tokens, ident, w)
        assert batched.shape == (12, 16, 16)
        for i, item in enumerate(tokens):
            own = ident[i] if identity == "per-item" else ident
            assert batched[i].tobytes() == attention_map(item, own, w).tobytes()

    def test_identity_requires_extended_weights(self):
        w = random_weights(RngStream(seed=13))
        with pytest.raises(ShapeError):
            attention_map(np.ones((2, 3)), np.ones(4), w.base)

    def test_constructed_identity_weights_bias_face_tokens(self):
        # Face tokens carry content [1, 0]; background tokens [0, 1].
        # With W_k = I, the identity query shift id @ U_q = [8, 0] adds a
        # +8 logit to face columns only, so mass must concentrate there.
        face = np.array([[1.0, 0.0], [1.0, 0.0]])
        bg = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        tokens = np.vstack([face, bg])
        base = AttentionWeights(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        ext = ExtendedAttentionWeights(
            base=base,
            u_q=np.array([[8.0, 0.0]]),
            u_k=np.zeros((1, 2)),
        )
        ident = np.array([1.0])
        face_cols = [0, 1]
        baseline_mass = attention_map(tokens, None, ext)[:, face_cols].sum(axis=1).mean()
        identity_mass = attention_map(tokens, ident, ext)[:, face_cols].sum(axis=1).mean()
        assert identity_mass > baseline_mass
        assert identity_mass > 0.95


_SCORE_ENTRIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([np.inf, -np.inf, np.nan, 0.0])


class TestInPlaceSoftmax:
    """The attention path normalises its fresh score array in place; the
    public ``softmax_rows`` runs the same core on a copy."""

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 6)),
                  elements=_SCORE_ENTRIES),
           st.booleans())
    @example(np.array([[[-np.inf, -np.inf], [np.nan, 1.0]], [[np.inf, 0.0], [np.inf, np.inf]]]), False)
    def test_softmax_rows_keeps_its_argument_and_equals_the_core(self, m, transposed):
        """Rows with +-inf and NaN entries included, and a strided argument
        as well as a contiguous one."""
        if transposed:
            m = np.swapaxes(m, -1, -2)
        before = m.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            out = softmax_rows(m)
            core = _softmax_in_place(np.array(m, order="C"))
        assert m.tobytes() == before
        assert out.tobytes() == core.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 4), st.data())
    def test_scores_equal_softmax_rows_of_the_scaled_product(self, b, n, d, data):
        """``_softmax_scores`` equals ``softmax_rows`` of Q K^T / sqrt(d), the
        product and the scaling done apart, bit for bit, with +-inf and NaN
        among the entries of Q and K; neither Q nor K is written."""
        q = data.draw(arrays(np.float64, (b, n, d), elements=_SCORE_ENTRIES))
        k = data.draw(arrays(np.float64, (b, n, d), elements=_SCORE_ENTRIES))
        q_bytes, k_bytes = q.tobytes(), k.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            scores = q @ np.swapaxes(k, -1, -2)
            scores /= math.sqrt(d)
            want = softmax_rows(scores)
            got = _softmax_scores(q, k)
        assert got.tobytes() == want.tobytes()
        assert (q.tobytes(), k.tobytes()) == (q_bytes, k_bytes)
