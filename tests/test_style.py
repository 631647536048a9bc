import numpy as np
import pytest

from craftfaces.errors import ConfigError, ShapeError
from craftfaces.numerics import RngStream, finite_diff_grad
from craftfaces.style import (
    FeatureExtractor,
    StyleLossConfig,
    content_loss,
    gram,
    make_extractor,
    style_loss,
    total_loss,
    total_loss_grad,
)


def hand_extractor():
    """Single 1->1 channel layer: tanh(0.8 x + 0.1)."""
    return FeatureExtractor(
        in_channels=1, weights=(np.array([[0.8]]),), biases=(np.array([0.1]),)
    )


def random_case(seed, shape=(2, 4, 4), layers=(3, 4)):
    rng = RngStream(seed=seed)
    phi = make_extractor(shape[0], layers, rng.split("phi"))
    x = rng.uniform(shape)
    c = rng.uniform(shape)
    s = rng.uniform(shape)
    cfg = StyleLossConfig(
        lambda_c=0.2 + float(rng.uniform(())),
        lambda_s=0.2 + float(rng.uniform(())),
        content_layer=int(rng.integers(0, len(layers) + 1)),
    )
    return x, c, s, cfg, phi


class TestGram:
    def test_zero_features(self):
        assert np.array_equal(gram(np.zeros((3, 5))), np.zeros((3, 3)))

    def test_single_channel_hand_case(self):
        assert np.array_equal(gram(np.array([[1.0, 2.0, 2.0]])), [[9.0]])

    def test_symmetric_psd(self):
        rng = RngStream(seed=1)
        for k in range(10):
            g = gram(rng.split(k).normal((4, 7)))
            assert np.array_equal(g, g.T)
            assert np.min(np.linalg.eigvalsh(g)) >= -1e-10

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            gram(np.zeros(3))


class TestStyleLoss:
    def test_zero_when_equal(self):
        x = RngStream(seed=2).uniform((2, 3, 3))
        phi = make_extractor(2, [3], RngStream(seed=3))
        assert style_loss(x, x, phi) == 0.0

    def test_nonnegative_and_symmetric(self):
        rng = RngStream(seed=4)
        phi = make_extractor(1, [2, 3], rng.split("phi"))
        x = rng.uniform((3, 3))
        s = rng.uniform((3, 3))
        assert style_loss(x, s, phi) >= 0.0
        assert style_loss(x, s, phi) == style_loss(s, x, phi)

    def test_hand_case(self):
        # 1 layer, 1 channel, 2 positions with tanh(0.8 v + 0.1):
        # (G(phi(x)) - G(phi(s)))^2 evaluated independently = 0.010598...
        x = np.array([[0.3, -0.7]])
        s = np.array([[0.1, 0.4]])
        assert abs(style_loss(x, s, hand_extractor()) - 0.010598148547042496) <= 1e-15


class TestContentLoss:
    def test_zero_when_equal(self):
        x = RngStream(seed=5).uniform((2, 3, 3))
        phi = make_extractor(2, [4], RngStream(seed=6))
        assert content_loss(x, x, phi, layer=1) == 0.0

    def test_layer_zero_is_pixel_distance(self):
        x = np.array([[0.3, -0.7]])
        c = np.array([[0.25, -0.5]])
        assert abs(content_loss(x, c, hand_extractor(), layer=0) - 0.04249999999999998) <= 1e-15

    def test_hand_case_layer_one(self):
        x = np.array([[0.3, -0.7]])
        c = np.array([[0.25, -0.5]])
        assert abs(content_loss(x, c, hand_extractor(), layer=1) - 0.02056544815818493) <= 1e-15

    def test_invalid_layer(self):
        with pytest.raises(ConfigError):
            content_loss(np.ones((1, 2)), np.ones((1, 2)), hand_extractor(), layer=5)

    @pytest.mark.parametrize("shape, message", [
        ((1, 1, 2, 2), "expected a 2-D or 3-D image"),
        ((2, 2, 2), "image has 2 channels, extractor expects 1"),
    ])
    def test_image_shape_rejected(self, shape, message):
        with pytest.raises(ShapeError, match=message):
            content_loss(np.ones(shape), np.ones(shape), hand_extractor(), layer=1)


class TestTotalLoss:
    def test_style_weight_zero(self):
        x, c, s, _, phi = random_case(7)
        cfg = StyleLossConfig(lambda_c=1.3, lambda_s=0.0, content_layer=1)
        assert total_loss(x, c, s, cfg, phi) == 1.3 * content_loss(x, c, phi, 1)

    def test_all_zero_weights(self):
        x, c, s, _, phi = random_case(8)
        cfg = StyleLossConfig(lambda_c=0.0, lambda_s=0.0)
        assert total_loss(x, c, s, cfg, phi) == 0.0

    def test_affine_in_weights(self):
        x, c, s, _, phi = random_case(9)
        one = total_loss(x, c, s, StyleLossConfig(1.0, 2.0, 1), phi)
        two = total_loss(x, c, s, StyleLossConfig(2.0, 4.0, 1), phi)
        assert abs(two - 2.0 * one) <= 1e-12 * max(abs(two), 1.0)

    def test_hand_case_composition(self):
        x = np.array([[0.3, -0.7]])
        c = np.array([[0.25, -0.5]])
        s = np.array([[0.1, 0.4]])
        cfg = StyleLossConfig(lambda_c=1.0, lambda_s=2.0, content_layer=0)
        got = total_loss(x, c, s, cfg, hand_extractor())
        assert abs(got - 0.06369629709408497) <= 1e-15
        recomposed = 1.0 * content_loss(x, c, hand_extractor(), 0) + 2.0 * style_loss(
            x, s, hand_extractor()
        )
        assert got == recomposed

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            StyleLossConfig(lambda_c=-1.0)


class TestTotalLossGrad:
    def test_zero_at_global_minimum(self):
        x = RngStream(seed=10).uniform((2, 3, 3))
        phi = make_extractor(2, [3], RngStream(seed=11))
        g = total_loss_grad(x, x, x, StyleLossConfig(1.0, 1.0, 1), phi)
        assert np.max(np.abs(g)) <= 1e-14

    def test_matches_finite_differences(self):
        for seed in range(5):
            x, c, s, cfg, phi = random_case(seed + 20)
            analytic = total_loss_grad(x, c, s, cfg, phi)
            numeric = finite_diff_grad(lambda v: total_loss(v, c, s, cfg, phi), x)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-4

    def test_content_only_identity_layer_closed_form(self):
        # with content on the raw-input layer the gradient is 2 lc (x - c)
        rng = RngStream(seed=30)
        phi = make_extractor(2, [3], rng.split("phi"))
        x = rng.uniform((2, 4, 4))
        c = rng.uniform((2, 4, 4))
        cfg = StyleLossConfig(lambda_c=1.7, lambda_s=0.0, content_layer=0)
        g = total_loss_grad(x, c, x, cfg, phi)
        assert np.allclose(g, 2.0 * 1.7 * (x - c), atol=1e-12)
