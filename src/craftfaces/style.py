"""Gram-matrix style objective over a fixed random feature extractor.

The extractor is a stack of seeded affine channel maps with a tanh
nonlinearity: positions are preserved, channels mix, so layer l features
are (c_l x p) matrices and Gram matrices stay small. Weights are frozen
at construction; the smooth nonlinearity keeps the analytic gradient in
agreement with central finite differences everywhere.

Layer index 0 refers to the raw input features (the image itself), which
gives an identity feature map for content-loss checks. The style sum runs
over the computed layers 1..L with unit weights; Grams are not normalized
by size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import RngStream, tensor

__all__ = [
    "FeatureExtractor",
    "make_extractor",
    "StyleLossConfig",
    "gram",
    "style_loss",
    "content_loss",
    "total_loss",
    "total_loss_grad",
]


@dataclass(frozen=True, eq=False)
class FeatureExtractor:
    """Fixed affine maps (weights, biases) applied channel-wise with tanh."""

    in_channels: int
    weights: tuple[np.ndarray, ...]  # layer l: (c_l, c_{l-1})
    biases: tuple[np.ndarray, ...]  # layer l: (c_l,)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _as_features(self, img: np.ndarray) -> np.ndarray:
        img = tensor(img)
        if img.ndim == 2:
            feats = img.reshape(1, -1)
        elif img.ndim == 3:
            feats = img.reshape(img.shape[0], -1)
        else:
            raise ShapeError(f"expected a 2-D or 3-D image, got shape {img.shape}")
        if feats.shape[0] != self.in_channels:
            raise ShapeError(
                f"image has {feats.shape[0]} channels, extractor expects {self.in_channels}"
            )
        return feats

    def features(self, img: np.ndarray) -> list[np.ndarray]:
        """All feature maps [F_0 .. F_L]; F_0 is the flattened input."""
        f = self._as_features(img)
        out = [f]
        for w, b in zip(self.weights, self.biases):
            f = np.tanh(w @ f + b[:, None])
            out.append(f)
        return out


def make_extractor(in_channels: int, layer_channels, rng: RngStream) -> FeatureExtractor:
    """Seeded random extractor with the given per-layer channel counts and
    weights 0.8 N(0, 1) / sqrt(fan-in)."""
    weights = []
    biases = []
    prev = in_channels
    for c in layer_channels:
        weights.append(0.8 / np.sqrt(prev) * rng.normal((c, prev)))
        biases.append(0.1 * rng.normal((c,)))
        prev = c
    return FeatureExtractor(
        in_channels=in_channels, weights=tuple(weights), biases=tuple(biases)
    )


@dataclass(frozen=True)
class StyleLossConfig:
    lambda_c: float = 1.0
    lambda_s: float = 1.0
    content_layer: int = 0

    def __post_init__(self):
        if self.lambda_c < 0 or self.lambda_s < 0:
            raise ConfigError("loss weights must be nonnegative")


def gram(features: np.ndarray) -> np.ndarray:
    """Channel inner products over positions: G = F F^T."""
    features = tensor(features)
    if features.ndim != 2:
        raise ShapeError(f"gram expects (channels x positions), got {features.shape}")
    return features @ features.T


def _check_layer(phi: FeatureExtractor, layer: int):
    if not 0 <= layer <= phi.n_layers:
        raise ConfigError(f"layer {layer} outside 0..{phi.n_layers}")


def style_loss(x: np.ndarray, s: np.ndarray, phi: FeatureExtractor) -> float:
    """Sum over layers of squared Frobenius distance between Grams."""
    fx = phi.features(x)
    fs = phi.features(s)
    total = 0.0
    for l in range(1, phi.n_layers + 1):
        diff = gram(fx[l]) - gram(fs[l])
        total += float(np.sum(diff * diff))
    return total


def content_loss(x: np.ndarray, c_img: np.ndarray, phi: FeatureExtractor, layer: int) -> float:
    """Squared distance between feature maps at one layer."""
    _check_layer(phi, layer)
    fx = phi.features(x)[layer]
    fc = phi.features(c_img)[layer]
    diff = fx - fc
    return float(np.sum(diff * diff))


def total_loss(
    x: np.ndarray, c_img: np.ndarray, s: np.ndarray, cfg: StyleLossConfig, phi: FeatureExtractor
) -> float:
    """lambda_c * content + lambda_s * style."""
    return cfg.lambda_c * content_loss(x, c_img, phi, cfg.content_layer) + cfg.lambda_s * style_loss(
        x, s, phi
    )


def total_loss_grad(
    x: np.ndarray, c_img: np.ndarray, s: np.ndarray, cfg: StyleLossConfig, phi: FeatureExtractor
) -> np.ndarray:
    """Analytic d(total_loss)/dx via the chain rule, shaped like x.

    Per layer, d||G - G_s||_F^2 / dF = 4 (G - G_s) F; content adds
    2 (F_l - F_l^c) at its layer; tanh backprop multiplies by (1 - F^2)
    before each transposed weight map.
    """
    _check_layer(phi, cfg.content_layer)
    x = tensor(x)
    fx = phi.features(x)
    fs = phi.features(s)
    fc = phi.features(c_img)

    # upstream[l] accumulates dL/dF_l while walking backwards
    upstream = [np.zeros_like(f) for f in fx]
    for l in range(1, phi.n_layers + 1):
        upstream[l] += cfg.lambda_s * 4.0 * (gram(fx[l]) - gram(fs[l])) @ fx[l]
    upstream[cfg.content_layer] += cfg.lambda_c * 2.0 * (fx[cfg.content_layer] - fc[cfg.content_layer])

    for l in range(phi.n_layers, 0, -1):
        dz = upstream[l] * (1.0 - fx[l] * fx[l])  # tanh'
        upstream[l - 1] += phi.weights[l - 1].T @ dz
    return upstream[0].reshape(x.shape)
