"""Low-rank adapters for attention weights.

An adapter holds factors A (d x r) and B (r x k); merging adds
alpha * A @ B onto a frozen base matrix. B starts at zero so a freshly
initialized adapter leaves the merged model identical to the base.
Training updates only the factors, by gradient descent on the squared
noise-prediction error. The denoiser's backward pass gives the gradient
G_W of each merged matrix, and the chain rule through W + alpha * A @ B
gives the factor gradients alpha * G_W @ B^T and alpha * A^T @ G_W.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionWeights, ExtendedAttentionWeights
from .diffusion import DenoiserModel, _denoise_loss, _denoise_loss_and_grad
from .errors import ConfigError, ShapeError, TrainingError
from .numerics import RngStream, _flatten, _unflatten, tensor

__all__ = [
    "LoRAAdapter",
    "init_adapter",
    "merge",
    "apply_to_attention",
    "LoRATrainConfig",
    "train_lora",
    "save_adapters",
    "load_adapters",
]

TARGET_MATRICES = ("q", "k", "v")


@dataclass(frozen=True)
class LoRAAdapter:
    a: np.ndarray  # (d, r)
    b: np.ndarray  # (r, k)
    alpha: float
    rank: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError(f"adapter alpha must be > 0, got {self.alpha}")
        if self.a.shape[1] != self.rank or self.b.shape[0] != self.rank:
            raise ShapeError(
                f"factor shapes {self.a.shape}, {self.b.shape} disagree with rank {self.rank}"
            )
        if self.rank > min(self.a.shape[0], self.b.shape[1]):
            raise ConfigError(
                f"rank {self.rank} exceeds min{self.a.shape[0], self.b.shape[1]}"
            )

    def delta(self) -> np.ndarray:
        return self.alpha * (self.a @ self.b)


def init_adapter(d: int, k: int, rank: int, alpha: float, rng: RngStream) -> LoRAAdapter:
    """A ~ 0.2 N(0, 1), B = 0, so the initial update vanishes."""
    return LoRAAdapter(
        a=0.2 * rng.normal((d, rank)),
        b=np.zeros((rank, k)),
        alpha=alpha,
        rank=rank,
    )


def merge(w: np.ndarray, ad: LoRAAdapter) -> np.ndarray:
    """W + alpha * A @ B."""
    w = tensor(w)
    if w.shape != (ad.a.shape[0], ad.b.shape[1]):
        raise ShapeError(
            f"merge: base {w.shape} vs adapter {(ad.a.shape[0], ad.b.shape[1])}"
        )
    return w + ad.delta()


def apply_to_attention(
    w: AttentionWeights | ExtendedAttentionWeights,
    adapters: dict[str, LoRAAdapter],
) -> AttentionWeights | ExtendedAttentionWeights:
    """Merge per-matrix adapters into q/k/v; untargeted matrices pass
    through unchanged (same array objects)."""
    unknown = set(adapters) - set(TARGET_MATRICES)
    if unknown:
        raise ConfigError(f"unknown adapter targets {sorted(unknown)}")
    base = w.base if isinstance(w, ExtendedAttentionWeights) else w
    merged = AttentionWeights(
        w_q=merge(base.w_q, adapters["q"]) if "q" in adapters else base.w_q,
        w_k=merge(base.w_k, adapters["k"]) if "k" in adapters else base.w_k,
        w_v=merge(base.w_v, adapters["v"]) if "v" in adapters else base.w_v,
    )
    if isinstance(w, ExtendedAttentionWeights):
        return ExtendedAttentionWeights(base=merged, u_q=w.u_q, u_k=w.u_k)
    return merged


@dataclass(frozen=True)
class LoRATrainConfig:
    rank: int = 4
    alpha: float = 8.0
    lr: float = 0.1
    steps: int = 200
    targets: tuple[str, ...] = TARGET_MATRICES

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        bad = set(self.targets) - set(TARGET_MATRICES)
        if bad:
            raise ConfigError(f"unknown targets {sorted(bad)}")


def _factors(adapters: dict[str, LoRAAdapter]) -> dict:
    """The trained parameters in packed order: every A, then every B."""
    return {(name, t): getattr(ad, name.lower()) for name in "AB" for t, ad in adapters.items()}


def _with_factors(adapters: dict[str, LoRAAdapter], factors: dict) -> dict[str, LoRAAdapter]:
    """The adapters carrying ``factors``, keyed as by ``_factors``."""
    return {t: replace(ad, a=factors["A", t], b=factors["B", t]) for t, ad in adapters.items()}


def _batch(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(latent, cond, target) triples stacked into the (latents, conds,
    targets) arrays that ``_denoise_loss_and_grad`` takes."""
    return tuple(tensor([np.ravel(item[j]) for item in data]) for j in range(3))


def _adapted_loss(model: DenoiserModel, data, adapters: dict[str, LoRAAdapter]) -> float:
    merged = model.with_attention(apply_to_attention(model.attention, adapters))
    return _denoise_loss(merged, *_batch(data))


def _factor_grad(model: DenoiserModel, batch, adapters: dict[str, LoRAAdapter]) -> np.ndarray:
    """Exact gradient of the adapted loss over the packed factors: with
    G_W the gradient of the merged matrix, alpha * G_W @ B^T for A and
    alpha * A^T @ G_W for B. ``batch`` is ``_batch(data)``."""
    merged = model.with_attention(apply_to_attention(model.attention, adapters))
    _, g = _denoise_loss_and_grad(merged, *batch)
    ga = {("A", t): ad.alpha * (g["w_" + t] @ ad.b.T) for t, ad in adapters.items()}
    gb = {("B", t): ad.alpha * (ad.a.T @ g["w_" + t]) for t, ad in adapters.items()}
    return _flatten({**ga, **gb})


def train_lora(
    model: DenoiserModel,
    data,
    cfg: LoRATrainConfig,
    rng: RngStream,
) -> dict[str, LoRAAdapter]:
    """Gradient descent on squared noise-prediction error, through the
    adapter factors only. Base weights are never written.

    ``data`` is a list of (latent, cond, target) triples, scored with the
    model's own identity. Each step takes one exact gradient: the
    backward pass through the merged model, chained onto A and B.
    """
    base = model.attention.base
    adapters = {
        t: init_adapter(*getattr(base, "w_" + t).shape, cfg.rank, cfg.alpha, rng.split(t))
        for t in cfg.targets
    }
    if cfg.steps == 0:
        return adapters
    if not data:
        raise ConfigError("train_lora: no training data with steps > 0")

    batch = _batch(data)
    layout = _factors(adapters)
    vec = _flatten(layout)
    for _ in range(cfg.steps):
        current = _with_factors(adapters, _unflatten(vec, layout))
        vec = vec - cfg.lr * _factor_grad(model, batch, current)
        if not np.all(np.isfinite(vec)):
            raise TrainingError("train_lora: parameters became non-finite")
    return _with_factors(adapters, _unflatten(vec, layout))


def save_adapters(path, adapters: dict[str, LoRAAdapter]) -> None:
    """Flat CSV: one row per factor entry, alpha and rank repeated per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["target", "factor", "row", "col", "value", "alpha", "rank"])
        for t in sorted(adapters):
            ad = adapters[t]
            for name, m in (("A", ad.a), ("B", ad.b)):
                for (i, j), v in np.ndenumerate(m):
                    w.writerow([t, name, i, j, repr(float(v)), repr(ad.alpha), ad.rank])


def load_adapters(path) -> dict[str, LoRAAdapter]:
    cells: dict[str, dict[str, dict[tuple[int, int], float]]] = {}
    meta: dict[str, tuple[float, int]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            t = row["target"]
            cells.setdefault(t, {"A": {}, "B": {}})
            cells[t][row["factor"]][(int(row["row"]), int(row["col"]))] = float(row["value"])
            meta[t] = (float(row["alpha"]), int(row["rank"]))
    out = {}
    for t, factors in cells.items():
        mats = {}
        for name, entries in factors.items():
            rows = 1 + max(i for i, _ in entries)
            cols = 1 + max(j for _, j in entries)
            m = np.zeros((rows, cols))
            for (i, j), v in entries.items():
                m[i, j] = v
            mats[name] = m
        alpha, rank = meta[t]
        out[t] = LoRAAdapter(a=mats["A"], b=mats["B"], alpha=alpha, rank=rank)
    return out
