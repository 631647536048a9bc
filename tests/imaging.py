"""Chroma-plane statistics that only the tests read."""

import numpy as np

from craftfaces.numerics import tensor


def palette_mass(img: np.ndarray, palette, tol: float = 1e-9) -> float:
    """Fraction of chroma pixels lying on palette tones."""
    chroma = tensor(img)[1]
    palette = np.asarray(palette, dtype=np.float64)
    hits = np.min(np.abs(chroma[..., None] - palette), axis=-1) <= tol
    return float(np.mean(hits))


def chroma_histogram(img: np.ndarray, bins: int = 16) -> np.ndarray:
    """Normalized histogram of the chroma plane over [0, 1]."""
    chroma = tensor(img)[1]
    counts, _ = np.histogram(chroma, bins=bins, range=(0.0, 1.0))
    return counts / counts.sum()
