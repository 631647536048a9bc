"""Parametric face renderer, toy graffiti stylizer, and prompt embedder.

Images are (2, H, W) float64 tensors in [0, 1]: plane 0 is the geometry
channel, plane 1 the chroma channel. Six face attributes are drawn as
landmark splats in dedicated geometry rows; a splat places unit intensity
across two neighboring pixels with bilinear weights, so the intensity
centroid of the row recovers the continuous landmark position exactly.
That makes attribute extraction an exact inverse of rendering and keeps
it consistent across resolutions.

Landmark bands (``BAND_FRACTIONS``, fractions of image height; the x
positions use ``X_MARGIN``/``X_SPAN`` and ``EYE_OFFSET``/``EYE_SPAN``):

    brow   0.22  eye size          single splat, x = (0.15 + 0.70 a) W
    eyes   0.36  eye spacing       two splats at 0.5 W +- (0.12 + 0.13 a) W
    nose   0.50  nose length       single splat
    mouth  0.64  mouth width       single splat
    curve  0.72  mouth curvature   single splat
    chin   0.86  face radius       single splat

Decorative geometry (face ring, pupils, nose line, mouth stroke) is drawn
first at intensity <= 0.5, then the band rows are cleared before splats
are placed, so nothing contaminates the measurement rows. Stylization
warps intensities, boosts chroma edges, quantizes chroma to the spray
palette, and shifts the landmark splats horizontally; every effect scales
with the style intensity and the landmark jitter is what perturbs the
attributes.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, InputError
from .numerics import RngStream, tensor

__all__ = [
    "ATTRIBUTE_NAMES",
    "FaceParams",
    "StyleOp",
    "render_face",
    "graffiti_stylize",
    "embed_prompt",
    "face_grid",
    "draw_landmarks",
    "image_hash",
    "write_ppm",
]

ATTRIBUTE_NAMES = (
    "eye_spacing",
    "eye_size",
    "nose_length",
    "mouth_width",
    "mouth_curve",
    "face_radius",
)

# chroma base tones selectable per face
FACE_PALETTES = (0.30, 0.45, 0.60, 0.75)

# spray-paint tone set the stylizer quantizes chroma to
_SPRAY_PALETTE = (0.05, 0.25, 0.50, 0.75, 0.95)

MIN_SIZE = 32


@dataclass(frozen=True)
class FaceParams:
    """Six measured attributes in [0, 1] plus nuisance fields that the
    attribute extractor ignores (palette and background)."""

    eye_spacing: float = 0.5
    eye_size: float = 0.5
    nose_length: float = 0.5
    mouth_width: float = 0.5
    mouth_curve: float = 0.5
    face_radius: float = 0.5
    palette_id: int = 0
    background: float = 0.12

    def attributes(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in ATTRIBUTE_NAMES], dtype=np.float64)

    def validate(self, size: int = MIN_SIZE) -> "FaceParams":
        """Raise ConfigError unless every field is in range and the face can be drawn at ``size``."""
        for n in ATTRIBUTE_NAMES:
            v = getattr(self, n)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"attribute {n}={v} outside [0, 1]")
        if not 0.0 <= self.background <= 1.0:
            raise ConfigError(f"background {self.background} outside [0, 1]")
        if self.palette_id < 0:
            raise ConfigError(f"palette_id must be >= 0, got {self.palette_id}")
        if size < MIN_SIZE:
            raise ConfigError(f"size {size} below minimum {MIN_SIZE}")
        return self


# landmark layout shared by the renderer and the attribute extractor
BAND_FRACTIONS = (
    ("eye_size", 0.22),
    ("eye_spacing", 0.36),
    ("nose_length", 0.50),
    ("mouth_width", 0.64),
    ("mouth_curve", 0.72),
    ("face_radius", 0.86),
)
# the bands holding one splat each, at x = (X_MARGIN + X_SPAN a) W: all but the eye row
SINGLE_SPLAT_BANDS = ATTRIBUTE_NAMES[1:]
X_MARGIN = 0.15
X_SPAN = 0.70
EYE_OFFSET = 0.12
EYE_SPAN = 0.13


_BAND_ROWS: dict[int, MappingProxyType] = {}


def _band_rows(height: int) -> MappingProxyType:
    """The geometry row of each landmark band, by attribute name: one
    read-only table per height, shared by every caller."""
    if height not in _BAND_ROWS:
        _BAND_ROWS[height] = MappingProxyType({name: int(round(f * height)) for name, f in BAND_FRACTIONS})
    return _BAND_ROWS[height]


def _band_index(height: int) -> list[int]:
    """The geometry row of each landmark band, in ``ATTRIBUTE_NAMES`` order."""
    rows = _band_rows(height)
    return [rows[name] for name in ATTRIBUTE_NAMES]


def _landmark_splats(attrs: np.ndarray, w: int) -> np.ndarray:
    """The landmark band rows ``draw_landmarks`` draws at each attribute
    vector of ``attrs`` ((..., 6)), as a (..., 6, W) stack in
    ``ATTRIBUTE_NAMES`` order: the splat layout. A splat at position ``u``
    places ``1 - frac`` at pixel ``floor(u)`` and ``frac`` at the next one,
    so the row's intensity centroid is ``u``. The eye row's two splats lie
    apart, so no pixel gets two and each write is the sum into a zeroed row."""
    a = np.asarray(attrs, dtype=np.float64)
    flat = a.reshape(-1, len(ATTRIBUTE_NAMES))
    half = (EYE_OFFSET + EYE_SPAN * flat[:, :1]) * w
    # the left and the right eye on the eye row, then one splat on each other band
    u = np.concatenate([0.5 * w - half, 0.5 * w + half, (X_MARGIN + X_SPAN * flat[:, 1:]) * w], axis=1)
    x0 = np.floor(u)
    frac = u - x0
    x0 = x0.astype(np.intp)
    out = np.zeros((len(flat), len(ATTRIBUTE_NAMES), w))
    vec, band = np.arange(len(flat))[:, None], np.array([0, 0, 1, 2, 3, 4, 5])
    out[vec, band, x0] = 1.0 - frac
    out[vec, band, x0 + 1] = frac
    return out.reshape(*a.shape[:-1], len(ATTRIBUTE_NAMES), w)


def draw_landmarks(geometry: np.ndarray, attrs: np.ndarray) -> None:
    """Clear the landmark bands of a geometry plane and re-splat them at
    the given attribute values (in place)."""
    h, w = geometry.shape
    geometry[_band_index(h)] = _landmark_splats(attrs, w)


def _decorate(geometry: np.ndarray, p: FaceParams, dist: np.ndarray, radius: float) -> None:
    """Low-intensity face drawing around the ring ``dist == radius``; purely cosmetic, never measured."""
    h, w = geometry.shape
    cx = 0.5 * w
    ring = np.abs(dist - radius) < 0.9
    geometry[ring] = np.maximum(geometry[ring], 0.45)

    pupil_row = int(round(0.31 * h))
    half = (EYE_OFFSET + EYE_SPAN * p.eye_spacing) * w
    for x in (int(round(cx - half)), int(round(cx + half))):
        geometry[pupil_row, max(0, min(w - 1, x))] = 0.5

    nose_top = int(round(0.42 * h))
    nose_len = int(round((0.04 + 0.08 * p.nose_length) * h))
    geometry[nose_top : nose_top + nose_len, int(cx)] = np.maximum(
        geometry[nose_top : nose_top + nose_len, int(cx)], 0.35
    )

    stroke_row = int(round(0.68 * h))
    mouth_half = int(round((0.06 + 0.12 * p.mouth_width) * w))
    lo, hi = int(cx) - mouth_half, int(cx) + mouth_half + 1
    geometry[stroke_row, lo:hi] = np.maximum(
        geometry[stroke_row, lo:hi], 0.30 + 0.2 * p.mouth_curve
    )


@functools.lru_cache(maxsize=8)
def _centre_distances(size: int) -> np.ndarray:
    """Each pixel's distance from the face centre (0.54 size, 0.5 size) of a
    size x size image: one read-only grid per size, built on that size's
    first render and shared by the later ones while it is among the last
    eight sizes rendered."""
    yy, xx = np.arange(size, dtype=np.float64)[:, None], np.arange(size, dtype=np.float64)
    dist = np.hypot(yy - 0.54 * size, xx - 0.5 * size)
    dist.flags.writeable = False
    return dist


def render_face(p: FaceParams, size: int = 64) -> np.ndarray:
    """Deterministic (2, size, size) face image; landmark rows encode the
    attributes exactly."""
    p.validate(size)
    h = w = int(size)
    radius = (0.16 + 0.20 * p.face_radius) * min(h, w)
    dist = _centre_distances(h)
    out = np.empty((2, h, w), dtype=np.float64)
    geometry, chroma = out
    geometry.fill(0.0)
    _decorate(geometry, p, dist, radius)
    draw_landmarks(geometry, p.attributes())

    base = FACE_PALETTES[p.palette_id % len(FACE_PALETTES)]
    chroma.fill(p.background)
    inside = dist <= radius
    chroma[inside] = base + 0.25 * (dist[inside] / max(radius, 1.0))
    np.clip(chroma, 0.0, 1.0, out=chroma)
    return out


def image_hash(img: np.ndarray) -> int:
    """An 8-byte blake2b digest of the shape and the float64 bytes of ``img``,
    read from its C-contiguous buffer without a copy."""
    img = tensor(img)
    h = hashlib.blake2b(digest_size=8)
    h.update(str(img.shape).encode())
    h.update(img)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class StyleOp:
    """Toy graffiti operator. intensity 0 is the identity map; jitter of
    the landmark rows grows with intensity, which is what makes the
    operator perturb attributes."""

    intensity: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.intensity <= 1.0:
            raise ConfigError(f"style intensity {self.intensity} outside [0, 1]")


def _smooth_warp(g: np.ndarray) -> np.ndarray:
    # fixes 0 and 1, bends midtones
    return g * g * (3.0 - 2.0 * g)


def _laplacian(c: np.ndarray) -> np.ndarray:
    """Periodic 4-neighbour Laplacian of a plane, the chroma edge signal."""
    return 4.0 * c - (
        np.roll(c, 1, axis=0) + np.roll(c, -1, axis=0) + np.roll(c, 1, axis=1) + np.roll(c, -1, axis=1)
    )


JITTER_TRACKS = ("eye_left", "eye_right", *SINGLE_SPLAT_BANDS)
JITTER_MIN_PX = 0.4
JITTER_MAX_PX = 1.6


def _jitter_units(bands: np.ndarray) -> np.ndarray:
    """Per-landmark shift units in pixels, one per ``JITTER_TRACKS`` entry,
    seeded by ``image_hash`` of an image's (6, W) landmark band rows
    ``bands``: stylization is a pure function of (image, op), and images
    that differ only off those rows share their jitter. Magnitudes stay in
    [JITTER_MIN_PX, JITTER_MAX_PX] so jitter dominates the small centroid
    drift the intensity warp induces; the two eye tracks get opposite signs
    so the eye-spacing drift never collapses to zero."""
    js = RngStream(seed=image_hash(bands)).split("landmark-jitter")
    mags = js.uniform((len(JITTER_TRACKS),), JITTER_MIN_PX, JITTER_MAX_PX)
    signs = np.where(js.uniform((len(JITTER_TRACKS),)) < 0.5, -1.0, 1.0)
    units = mags * signs
    units[0] = -units[1] / abs(units[1]) * abs(units[0])
    return units


def graffiti_stylize(img: np.ndarray, op: StyleOp) -> np.ndarray:
    """Apply the graffiti surrogate: chroma edge boost + palette
    quantization, geometry contrast warp, and intensity-scaled landmark
    jitter.

    Output depends only on (img, op): the jitter stream is keyed on the
    image's landmark band rows to keep repeated applications reproducible.
    """
    img = tensor(img)
    if img.ndim != 3 or img.shape[0] != 2:
        raise ConfigError(f"expected a (2, H, W) image, got shape {img.shape}")
    if op.intensity == 0.0:
        return img.copy()
    return _stylize(img, op, _jitter_units(img[0, _band_index(img.shape[1])]))


def _shift_tracks(tracks: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Shift each row of a (T, W) stack by its own continuous offset with
    linear resampling, which moves the row's intensity centroid by exactly
    that offset (mass stays inside). Row t is ``S(k)`` when the offset is
    the integer k, else ``(1 - frac) * S(k) + frac * S(k + 1)``, where
    ``S(n)`` is the row moved n pixels with zeros shifted in. One gather of
    W + 1 columns holds both ``S(k)`` and ``S(k + 1)`` as views."""
    n, w = tracks.shape
    k = np.floor(deltas)
    frac = (deltas - k)[:, None]
    pad = int(np.max(np.abs(k))) + 1
    padded = np.zeros((n, w + 2 * pad))
    padded[:, pad:pad + w] = tracks
    # S(k)[t, x] = tracks[t, x - k], so both[t, j] = padded[t, pad - 1 - k + j]; the padded
    # copy is dropped before the blend allocates, which keeps the peak memory down
    start = np.arange(pad - 1, padded.size, padded.shape[1]) - k.astype(np.intp)
    both = np.take(padded, start[:, None] + np.arange(w + 1))
    del padded
    at_k, at_k1 = both[:, 1:], both[:, :-1]
    out = (1.0 - frac) * at_k
    out += frac * at_k1
    np.copyto(out, at_k, where=frac == 0.0)
    return out


def _quantize(chroma: np.ndarray) -> np.ndarray:
    """The ``_SPRAY_PALETTE`` tone nearest each pixel; ``np.argmin`` keeps
    the first of tied tones."""
    palette = np.array(_SPRAY_PALETTE)
    return palette[np.argmin(np.abs(chroma[..., None] - palette), axis=-1)]


def _stylize(img: np.ndarray, op: StyleOp, units: np.ndarray) -> np.ndarray:
    """``graffiti_stylize`` of a (2, H, W) float64 image at a nonzero
    intensity, given its jitter units ``_jitter_units(img)``."""
    i = op.intensity
    geometry = (1.0 - i) * img[0] + i * _smooth_warp(img[0])
    geometry[_band_index(img.shape[1])] = _landmark_rows(_jitter_tracks(img), [i], units)[0]
    boosted = np.clip(img[1] + i * _laplacian(img[1]), 0.0, 1.0)
    chroma_out = (1.0 - i) * boosted + i * _quantize(boosted)
    return np.stack([geometry, chroma_out])


def _jitter_tracks(img: np.ndarray) -> np.ndarray:
    """The geometry rows under the ``JITTER_TRACKS`` of a (2, H, W) image, as
    a (7, W) copy: the eye row twice, for the left and the right eye's
    track, then each other band's row."""
    rows = _band_index(img.shape[1])
    return img[0, [rows[0], *rows]]


def _landmark_rows(tracks: np.ndarray, intensities, units: np.ndarray) -> np.ndarray:
    """The landmark band rows of ``_stylize``'s geometry plane at each
    intensity, as an (I, 6, W) stack in ``ATTRIBUTE_NAMES`` order, from the
    image's ``_jitter_tracks`` and jitter units: the warp blend of the seven
    tracks, the eye halves zeroed, one ``_shift_tracks`` over all
    (intensity, track) rows, and the two eye tracks merged back into the
    eye row."""
    w = tracks.shape[-1]
    i = np.asarray(intensities, dtype=np.float64)[:, None]
    blend = (1.0 - i[..., None]) * tracks
    blend += i[..., None] * _smooth_warp(tracks)
    mid = w // 2
    blend[:, 0, mid:] = 0.0  # the left eye's half of the eye row
    blend[:, 1, :mid] = 0.0  # the right eye's half
    shifted = _shift_tracks(blend.reshape(-1, w), (i * units).reshape(-1)).reshape(blend.shape)
    bands = shifted[:, 1:]
    bands[:, 0] += shifted[:, 0]
    return bands


def _face_bands(p: FaceParams, size: int, intensities) -> np.ndarray:
    """The landmark band rows of ``render_face(p, size)`` and then of its
    ``graffiti_stylize`` output at each of ``intensities``, as a
    (1 + I, 6, W) stack, with no face rendered: the render draws its band
    rows last, as the splats of ``p``'s attributes, so those splats with the
    eye row twice are its ``_jitter_tracks`` and key its jitter units."""
    p.validate(size)
    tracks = _landmark_splats(p.attributes(), size)[[0, 0, 1, 2, 3, 4, 5]]
    return np.concatenate([tracks[None, 1:], _landmark_rows(tracks, intensities, _jitter_units(tracks[1:]))])


def embed_prompt(text: str, dim: int = 8) -> np.ndarray:
    """Deterministic unit-norm embedding from a bag of lowercased tokens.
    A prompt with no UTF-8 form (say, undecodable command-line bytes, which
    Python passes on as lone surrogates) raises InputError."""
    if not text or not text.strip():
        raise InputError("prompt must be a nonempty string")
    try:
        text.encode()
    except UnicodeEncodeError:
        raise InputError(f"prompt {text!r} is not valid text: it has no UTF-8 form") from None
    if dim < 1:
        raise ConfigError(f"embedding dim must be >= 1, got {dim}")
    acc = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        seed = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "little")
        acc += RngStream(seed=seed).normal((dim,))
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:  # astronomically unlikely; guards the unit-norm contract
        acc[0] = 1.0
        norm = 1.0
    return acc / norm


def face_grid(n: int, seed: int = 0) -> list[FaceParams]:
    """Deterministic grid of ``n`` faces with attributes in [0.1, 0.9]."""
    if n < 1:
        raise ConfigError(f"face grid size must be >= 1, got {n}")
    stream = RngStream(seed=seed).split("face-grid")
    attrs = stream.uniform((n, len(ATTRIBUTE_NAMES)), 0.1, 0.9)
    shades = stream.uniform((n,), 0.05, 0.3)
    return [
        FaceParams(
            **dict(zip(ATTRIBUTE_NAMES, attrs[i])),
            palette_id=i % len(FACE_PALETTES),
            background=float(shades[i]),
        )
        for i in range(n)
    ]


def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6 export; geometry drives red, chroma drives green/blue."""
    img = tensor(img)
    if img.ndim != 3 or img.shape[0] != 2:
        raise ConfigError(f"expected a (2, H, W) image, got shape {img.shape}")
    g = np.clip(img[0], 0.0, 1.0)
    c = np.clip(img[1], 0.0, 1.0)
    rgb = np.stack(
        [g, 0.25 * g + 0.75 * c, 0.6 * (1.0 - c) + 0.4 * g], axis=-1
    )
    raw = np.round(255.0 * rgb).astype(np.uint8)
    h, w = g.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(raw.tobytes())

