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

import functools

import numpy as np

from .errors import ExtractionError, InputError, ProjectionError
from .facegen import (
    ATTRIBUTE_NAMES, EYE_OFFSET, EYE_SPAN, X_MARGIN, X_SPAN, _band_index, _face_bands, _landmark_splats,
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


def _decoded_bands(zs: np.ndarray, codec) -> np.ndarray:
    """The landmark band rows of each latent of ``zs`` ((N, z)) decoded by
    the ``LatentCodec`` ``codec`` of (2, H, W) images and clipped to [0, 1],
    as an (N, 6, W) stack: the rows of ``np.clip(decode(z, codec), 0, 1)``
    that ``extract_attributes`` reads, with their bits, and no other row
    decoded. Channel 0's row r is the contiguous (W, z) slice
    ``codec.dec[r W : (r + 1) W]``, so each band row is one gemv over its
    slice, which rounds each entry as the whole decode's gemv does."""
    _, h, w = codec.image_shape
    slices = [codec.dec[r * w : (r + 1) * w] for r in _band_index(h)]
    out = np.empty((len(zs), len(slices), w))
    for z, bands in zip(zs, out):
        for rows, band in zip(slices, bands):
            np.matmul(rows, z, out=band)
    return np.clip(out, 0.0, 1.0, out=out)


def _decoded_attributes(zs: np.ndarray, codec) -> np.ndarray:
    """The (N, 6) attributes of the latents ``zs`` decoded by ``codec`` and
    clipped to [0, 1], each with the bits of ``extract_attributes`` of that
    image, from ``_decoded_bands`` alone."""
    return _band_attributes(_decoded_bands(zs, codec))


def _centroids(weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The intensity centroid at positions ``xs`` of each row of ``weights``."""
    mass = weights.sum(axis=-1)
    if (mass <= _MIN_BAND_MASS).any():
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
    out = np.empty(bands.shape[:-1])
    half_spacing = (_centroids(bands[..., 0, mid:], xs[mid:]) - _centroids(bands[..., 0, :mid], xs[:mid])) / 2.0
    out[..., 0] = (half_spacing / w - EYE_OFFSET) / EYE_SPAN
    out[..., 1:] = (_centroids(bands[..., 1:, :], xs) / w - X_MARGIN) / X_SPAN
    return np.clip(out, 0.0, 1.0, out=out)


def attr_loss(x_img: np.ndarray, i_img: np.ndarray) -> float:
    """Squared distance between the attribute vectors of two images."""
    d = extract_attributes(x_img) - extract_attributes(i_img)
    return float(_dots(d, d))


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
    return current is not None and np.abs(current - target).max(axis=-1) <= _ALREADY_THERE_TOL


def _face_attributes(params, size: int, intensities) -> np.ndarray:
    """The order sweep's read of one face: the (1 + I, 6) attributes of
    ``render_face(params, size)`` and then of its ``graffiti_stylize``
    output at each of ``intensities``, from one band read of the band rows
    ``facegen._face_bands`` splats from ``params`` and stylizes in one
    batch. Each vector has the bits of ``extract_attributes`` of that
    image, though no image is built."""
    return _band_attributes(_face_bands(params, size, intensities))


def _restored_attributes(refs: np.ndarray, styled: np.ndarray, width: int) -> np.ndarray:
    """The (F, I, 6) attributes of projecting each stylized image, with
    attributes ``styled`` ((F, I, 6)) and width ``width``, onto its face's
    ``refs`` ((F, 6)), without building an image. A restore that finds its
    ``ref`` already there leaves the stylized attributes. One that redraws
    rewrites every landmark row extraction reads, so it leaves the
    attributes of its face's redraw alone: every face's redraw is splatted
    into one zeroed block and read at once. Each vector has the bits of
    ``extract_attributes(project(styled_image, ref))``."""
    redrawn = _band_attributes(_landmark_splats(refs, width))
    return np.where(_already_there(styled, refs[:, None])[..., None], styled, redrawn[:, None])


def _sweep_attributes(faces, size: int, intensities, map_faces=map) -> tuple[np.ndarray, ...]:
    """The attributes both composition orders leave on each of ``faces``
    rendered at ``size``, at each of ``intensities``: the (F, 6) ``refs``,
    the (F, I, 6) ``styled`` attributes of each ``graffiti_stylize`` output
    (the reversed order's, whose restore is a bitwise no-op) and the
    (F, I, 6) ``restored`` ones of projecting each onto its face's ref.
    ``map_faces`` runs ``_face_attributes`` over the faces, in order (a
    process pool's ``map`` runs it in workers); the restore then runs once
    for all of them."""
    attrs = np.array(list(map_faces(functools.partial(_face_attributes, size=size, intensities=intensities),
                                    faces)))
    refs, styled = attrs[:, 0], attrs[:, 1:]
    return refs, styled, _restored_attributes(refs, styled, size)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each last-axis vector of ``a`` with the one of
    ``b`` it broadcasts against, as numpy's sum of the products: in order
    below 8 elements (every attribute vector), pairwise above, and never
    through BLAS, so the bits are those of scoring each vector alone on
    any machine."""
    return np.add.reduce(a * b, axis=-1)


def _cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u . v) / (|u| |v|) per last-axis vector pair; a zero vector raises."""
    nu, nv = np.sqrt(_dots(u, u)), np.sqrt(_dots(v, v))
    if (nu == 0.0).any() or (nv == 0.0).any():
        raise InputError("cosine similarity undefined for zero vectors")
    return _dots(u, v) / (nu * nv)


def _scores(attrs: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The loss (squared distance) and the FFC of each attribute vector of
    ``attrs`` against the vector of ``ref`` it broadcasts against, each
    with the bits of ``attr_loss`` and ``ffc`` of that pair alone, though
    the whole stack is scored at once."""
    d = attrs - ref
    return _dots(d, d), _cosines(attrs, ref)


def _in_range(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``v``, except that one which is not zero but whose squared
    norm overflows to inf or underflows to 0 is multiplied by the power of
    two that brings its largest magnitude into [0.5, 1). That scaling is
    exact, short of entries it takes below the smallest float, and keeps
    the direction, so the cosine is unchanged and its dot products stay
    finite; a vector whose squared norm is finite and nonzero passes
    through with its bits."""
    with np.errstate(over="ignore"):
        squares = _dots(u, u), _dots(v, v)
    return tuple(
        w if 0.0 < sq < np.inf or not w.any() else np.ldexp(w, -np.frexp(np.abs(w).max())[1])
        for w, sq in zip((u, v), squares)
    )


def ffc(emb1: np.ndarray, emb2: np.ndarray) -> float:
    """Cosine similarity of two embeddings: (u . v) / (|u| |v|).

    1 means identical direction, 0 no similarity, negative values opposite
    orientation. Zero vectors have no direction and are rejected. A finite
    vector whose squared norm overflows or underflows is scaled by a power
    of two first (``_in_range``), so it is neither scored ``nan`` nor
    called zero.
    """
    u = tensor(emb1).reshape(-1)
    v = tensor(emb2).reshape(-1)
    if u.shape != v.shape:
        raise InputError(f"embedding lengths differ: {u.shape[0]} vs {v.shape[0]}")
    return float(_cosines(*_in_range(u, v)))
