"""Attribute extraction, attribute-restoring projection, and the
facial-feature cosine metric.

The extractor inverts the renderer: each attribute is read back as the
intensity centroid of its landmark band, so extraction is exact on clean
renders and degrades continuously (never catastrophically) on stylized
ones. ``project`` restores a target attribute vector by re-rendering: it
re-draws only the landmark bands, leaving every other channel of the
image (decoration, chroma, background) untouched, which makes the
restored attributes exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ExtractionError, InputError, ProjectionError
from .facegen import (
    ATTRIBUTE_NAMES, EYE_OFFSET, EYE_SPAN, X_MARGIN, X_SPAN, _band_index, _jitter_units, _landmark_rows,
    draw_landmarks,
)
from .numerics import tensor

__all__ = [
    "extract_attributes",
    "attr_loss",
    "attribute_embedding",
    "project",
    "ffc",
]

_MIN_BAND_MASS = 1e-9

# measurement precision floor: attributes matching the target this closely
# count as already restored, so projection leaves the image untouched
_ALREADY_THERE_TOL = 1e-12


def extract_attributes(img: np.ndarray) -> np.ndarray:
    """Recover the six attribute values from the landmark bands of a
    (2, H, W) image, or a (B, 6) array of them from a (B, 2, H, W) stack,
    each vector with the bits of extracting its image alone.

    Values are clamped to [0, 1]; a band with no intensity mass raises
    ExtractionError.
    """
    img = tensor(img)
    if img.ndim not in (3, 4) or img.shape[-3] != 2:
        raise ExtractionError(f"expected a (2, H, W) image or a (B, 2, H, W) stack, got shape {img.shape}")
    return _band_attributes(img[..., 0, _band_index(img.shape[-2]), :])


def _centroids(weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The intensity centroid at positions ``xs`` of each row of ``weights``."""
    mass = weights.sum(axis=-1)
    if np.any(mass <= _MIN_BAND_MASS):
        raise ExtractionError("no detectable face geometry (empty landmark band)")
    return (xs * weights).sum(axis=-1) / mass


def _band_attributes(bands: np.ndarray) -> np.ndarray:
    """The attributes of a (..., 6, W) stack of landmark band rows in
    ``ATTRIBUTE_NAMES`` order, one vector per (6, W) stack. Every row is
    reduced on the contiguous last axis, which numpy sums pairwise exactly
    as it sums that row alone, so each vector has the bits of extracting
    its image alone."""
    w = bands.shape[-1]
    mid = w // 2
    xs = np.arange(w, dtype=np.float64)
    half_spacing = (_centroids(bands[..., 0, mid:], xs[mid:]) - _centroids(bands[..., 0, :mid], xs[:mid])) / 2.0
    eye_spacing = (half_spacing / w - EYE_OFFSET) / EYE_SPAN
    singles = (_centroids(bands[..., 1:, :], xs) / w - X_MARGIN) / X_SPAN
    return np.clip(np.concatenate([eye_spacing[..., None], singles], axis=-1), 0.0, 1.0)


def attr_loss(x_img: np.ndarray, i_img: np.ndarray) -> float:
    """Squared distance between the attribute vectors of two images."""
    d = extract_attributes(x_img) - extract_attributes(i_img)
    return float(d @ d)


def attribute_embedding(attrs: np.ndarray) -> np.ndarray:
    """Attribute vector recentred to [-1, 1]; the shared identity code fed
    into identity-augmented attention. Neutral attributes (all 0.5) map to
    the zero embedding."""
    return 2.0 * tensor(attrs).reshape(-1) - 1.0


def _validate_target(target: np.ndarray) -> np.ndarray:
    target = tensor(target).reshape(-1)
    if target.shape[0] != len(ATTRIBUTE_NAMES):
        raise ProjectionError(
            f"target must have {len(ATTRIBUTE_NAMES)} components, got {target.shape[0]}"
        )
    if np.any(target < 0.0) or np.any(target > 1.0):
        raise ProjectionError(f"target attributes outside [0, 1]: {target}")
    return target


def project(img: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Return an image whose attributes equal ``target``.

    Redraws the landmark bands at the target values and copies everything
    else through, so stylized texture, palette, and background survive; an
    image that already carries the target attributes as clean landmarks
    passes through bit-identical.
    """
    img = tensor(img)
    target = _validate_target(target)
    if img.ndim != 3 or img.shape[0] != 2:
        raise ProjectionError(f"expected a (2, H, W) image, got shape {img.shape}")
    out = img.copy()
    if _already_there(_attributes_or_none(img), target):
        return out  # attributes already present; nothing to restore
    draw_landmarks(out[0], target)
    return out


def _attributes_or_none(img: np.ndarray) -> np.ndarray | None:
    """``extract_attributes(img)``, or None where extraction fails."""
    try:
        return extract_attributes(img)
    except ExtractionError:
        return None


def _already_there(current: np.ndarray | None, target: np.ndarray):
    """Whether an image with attributes ``current`` (None: not extractable)
    carries ``target`` already, so that projecting it onto ``target``
    redraws nothing; for a stack of attribute vectors, one bool per vector."""
    return current is not None and np.max(np.abs(current - target), axis=-1) <= _ALREADY_THERE_TOL


def _redrawn_attributes(shape: tuple[int, ...], target: np.ndarray) -> np.ndarray:
    """The attributes of any image of ``shape`` that ``project`` redraws
    onto ``target``. A redraw clears and rewrites every landmark row that
    extraction reads, so they depend on nothing else; they are measured
    here on a blank canvas."""
    canvas = np.zeros(shape)
    draw_landmarks(canvas[0], target)
    return extract_attributes(canvas)


def _order_attributes(img: np.ndarray, intensities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The attributes both composition orders leave on the face ``img`` at
    each of ``intensities``, without building a stylized or restored image:
    the face's own ``ref``, the (I, 6) attributes ``styled`` of each
    ``graffiti_stylize`` output (the reversed order's, whose restore is a
    bitwise no-op) and the (I, 6) attributes ``restored`` of projecting
    each onto ``ref``. One batch of landmark rows gives every ``styled``
    vector; a restore that redraws leaves ``_redrawn_attributes``, one that
    finds ``ref`` already there leaves the stylized image's. Each vector has
    the bits of ``extract_attributes`` of that image."""
    img = tensor(img)
    ref = extract_attributes(img)
    styled = _band_attributes(_landmark_rows(img, intensities, _jitter_units(img))[0])
    restored = np.where(_already_there(styled, ref)[:, None], styled, _redrawn_attributes(img.shape, ref))
    return ref, styled, restored


def ffc(emb1: np.ndarray, emb2: np.ndarray) -> float:
    """Cosine similarity of two embeddings: (u . v) / (|u| |v|).

    1 means identical direction, 0 no similarity, negative values opposite
    orientation. Zero vectors have no direction and are rejected.
    """
    u = tensor(emb1).reshape(-1)
    v = tensor(emb2).reshape(-1)
    if u.shape != v.shape:
        raise InputError(f"embedding lengths differ: {u.shape[0]} vs {v.shape[0]}")
    nu = math.sqrt(float(u @ u))  # the bits of np.linalg.norm(u), without its dispatch
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        raise InputError("cosine similarity undefined for zero vectors")
    return float(u @ v / (nu * nv))
