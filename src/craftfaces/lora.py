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
from dataclasses import dataclass

import numpy as np

from .attention import AttentionWeights, ExtendedAttentionWeights
from .diffusion import DenoiserModel, _condition, _conditioned_loss_and_grad, _denoise_loss_and_grad
from .errors import ConfigError, InputError, ShapeError, TrainingError
from .numerics import RngStream, tensor

__all__ = [
    "LoRAAdapter",
    "merge",
    "apply_to_attention",
    "LoRATrainConfig",
    "train_lora",
    "save_adapters",
    "load_adapters",
]

TARGET_MATRICES = ("q", "k", "v")
ADAPTER_COLUMNS = ("target", "factor", "row", "col", "value", "alpha", "rank")


@dataclass(frozen=True, eq=False)
class LoRAAdapter:
    a: np.ndarray  # (d, r)
    b: np.ndarray  # (r, k)
    alpha: float
    rank: int

    def __post_init__(self):
        if not 0.0 < self.alpha < float("inf"):
            raise ConfigError(f"adapter alpha must be finite and > 0, got {self.alpha}")
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


def _init_adapter(d: int, k: int, rank: int, alpha: float, rng: RngStream) -> LoRAAdapter:
    """A ~ 0.2 N(0, 1), B = 0, so the initial update vanishes. The rank is
    checked before A is drawn."""
    if rank > min(d, k):
        raise ConfigError(f"rank {rank} exceeds min{d, k}")
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
    w: ExtendedAttentionWeights, adapters: dict[str, LoRAAdapter]
) -> ExtendedAttentionWeights:
    """Merge per-matrix adapters into the base q/k/v; untargeted matrices
    and the identity blocks pass through unchanged (same array objects)."""
    unknown = set(adapters) - set(TARGET_MATRICES)
    if unknown:
        raise ConfigError(f"unknown adapter targets {sorted(unknown)}")
    base = w.base
    merged = AttentionWeights(
        w_q=merge(base.w_q, adapters["q"]) if "q" in adapters else base.w_q,
        w_k=merge(base.w_k, adapters["k"]) if "k" in adapters else base.w_k,
        w_v=merge(base.w_v, adapters["v"]) if "v" in adapters else base.w_v,
    )
    return ExtendedAttentionWeights(base=merged, u_q=w.u_q, u_k=w.u_k)


@dataclass(frozen=True)
class LoRATrainConfig:
    rank: int = 4
    alpha: float = 8.0
    lr: float = 0.1
    steps: int = 200

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 < self.lr < float("inf"):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 < self.alpha < float("inf"):
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")


def _batch(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(latent, cond, target) triples stacked into the (latents, conds,
    targets) arrays that ``_denoise_loss_and_grad`` takes."""
    return tuple(tensor([np.ravel(item[j]) for item in data]) for j in range(3))


def _adapted_loss(model: DenoiserModel, data, adapters: dict[str, LoRAAdapter]) -> float:
    merged = model.with_attention(apply_to_attention(model.attention, adapters))
    return _denoise_loss_and_grad(merged, *_batch(data), names=())[0]


def _stacked_grad(model: DenoiserModel, batch, targets, alpha: float):
    """The exact gradient of the adapted loss on ``batch`` (``_batch(data)``)
    as a function of the stacked factors A (T, d, r) and B (T, r, k) of
    ``targets``, which returns the stacked ``(dA, dB)``. The batch is
    conditioned once and the merged model built once, over one (T, d, k)
    buffer; each call merges into it, W0 + alpha * A @ B, runs one
    backward through the merged model and, with G_W the gradient of each
    merged matrix, returns alpha * G_W @ B^T and alpha * A^T @ G_W. Each
    slice has the bits of its target's own 2-D products."""
    latents, conds, eps = batch
    inputs = _condition(model, latents, conds)
    names = ["w_" + t for t in targets]
    weights = model.params()
    w0 = np.stack([weights[name] for name in names])
    w = np.empty_like(w0)
    weights.update(zip(names, w))
    merged = model.with_params(weights)

    def grad(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        merged_w = np.matmul(a, b, out=w)
        merged_w *= alpha
        merged_w += w0
        g = _conditioned_loss_and_grad(merged, *inputs, eps, names)[1]
        g = np.array([g[name] for name in names])
        da = g @ b.swapaxes(-1, -2)
        da *= alpha
        db = a.swapaxes(-1, -2) @ g
        db *= alpha
        return da, db

    return grad


def _factor_grad(
    model: DenoiserModel, batch, adapters: dict[str, LoRAAdapter]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """``_stacked_grad`` as ``{target: (dA, dB)}``, for adapters that share
    one alpha and one shape, as ``train_lora``'s do. ``batch`` is
    ``_batch(data)``."""
    ads = list(adapters.values())
    grad = _stacked_grad(model, batch, list(adapters), ads[0].alpha)
    da, db = grad(np.array([ad.a for ad in ads]), np.array([ad.b for ad in ads]))
    return dict(zip(adapters, zip(da, db)))


def train_lora(
    model: DenoiserModel,
    data,
    cfg: LoRATrainConfig,
    rng: RngStream,
) -> dict[str, LoRAAdapter]:
    """Gradient descent on squared noise-prediction error, through the
    adapter factors only. Base weights are never written.

    ``data`` is a list of (latent, cond, target) triples, scored with the
    model's own identity. The q, k and v factors train as one stacked
    pair, A (3, d, r) and B (3, r, k), on a batch conditioned once, since
    the conditioning and identity terms do not change while only the
    factors do. Each step takes one exact gradient, ``_stacked_grad``, and
    updates the factors in place; the adapters are built at the end.
    Factors that stop being finite raise TrainingError.
    """
    if not data:
        raise ConfigError("train_lora: no training data")
    base = model.attention.base
    initial = [
        _init_adapter(*getattr(base, "w_" + t).shape, cfg.rank, cfg.alpha, rng.split(t))
        for t in TARGET_MATRICES
    ]
    a = np.array([ad.a for ad in initial])
    b = np.array([ad.b for ad in initial])

    grad = _stacked_grad(model, _batch(data), TARGET_MATRICES, cfg.alpha)
    # overflow only ever ends in non-finite factors, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.steps):
            da, db = grad(a, b)
            da *= cfg.lr  # a - lr * dA, in place, has the same bits
            a -= da
            db *= cfg.lr
            b -= db
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise TrainingError("train_lora: parameters became non-finite")
    return {t: LoRAAdapter(a=a_t, b=b_t, alpha=cfg.alpha, rank=cfg.rank) for t, a_t, b_t in zip(TARGET_MATRICES, a, b)}


def save_adapters(path, adapters: dict[str, LoRAAdapter]) -> None:
    """Flat CSV: one row per factor entry, alpha and rank repeated per row,
    with the bytes ``csv.writer`` writes for those rows (each entry by the
    ``repr`` of its float). Every target must be one of
    ``TARGET_MATRICES``, the names ``load_adapters`` reads; none holds a
    comma, quote or line break, so no field is quoted."""
    unknown = set(adapters) - set(TARGET_MATRICES)
    if unknown:
        raise ConfigError(f"unknown adapter targets {sorted(unknown)}")
    lines = [",".join(ADAPTER_COLUMNS) + "\r\n"]
    for t in sorted(adapters):
        ad = adapters[t]
        tail = f"{ad.alpha!r},{ad.rank}\r\n"
        for name, m in (("A", ad.a), ("B", ad.b)):
            lines += [
                f"{t},{name},{i},{j},{v!r},{tail}"
                for i, row in enumerate(m.astype(float, copy=False).tolist())
                for j, v in enumerate(row)
            ]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def load_adapters(path) -> dict[str, LoRAAdapter]:
    """Read a ``save_adapters`` file; a header alone gives no adapters. A
    malformed file raises InputError: a missing column, a field that does
    not parse, an unknown target or factor, a repeated or non-finite
    entry, a factor whose entries do not fill its shape, rows of one
    target that disagree on alpha or rank, or an alpha that is not finite
    and positive."""
    cells: dict[tuple[str, str], dict[tuple[int, int], float]] = {}
    meta: dict[str, tuple[float, int]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not set(ADAPTER_COLUMNS) <= set(reader.fieldnames or ()):
            raise InputError(f"{path}: adapter CSV header must name {', '.join(ADAPTER_COLUMNS)}")
        try:
            for row in reader:
                t, name = row["target"], row["factor"]
                if t not in TARGET_MATRICES or name not in ("A", "B"):
                    raise ValueError(f"unknown target {t!r} or factor {name!r}")
                row_meta = (float(row["alpha"]), int(row["rank"]))
                if meta.setdefault(t, row_meta) != row_meta:
                    raise ValueError(f"alpha, rank {row_meta} after {meta[t]} for target {t!r}")
                entries = cells.setdefault((t, name), {})
                index = (int(row["row"]), int(row["col"]))
                if index in entries:
                    raise ValueError(f"repeated entry {index} of factor {name} of target {t!r}")
                entries[index] = float(row["value"])
                if not np.isfinite(entries[index]):
                    raise ValueError(f"non-finite entry {index} of factor {name} of target {t!r}")
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path} line {reader.line_num}: {exc}") from None
    out = {}
    for t, (alpha, rank) in meta.items():
        mats = []
        for name in "AB":
            entries = cells.get((t, name), {})
            shape = tuple(1 + max((index[k] for index in entries), default=-1) for k in (0, 1))
            if not entries or set(entries) != set(np.ndindex(shape)):
                raise InputError(f"{path}: factor {name} of target {t!r} does not fill a matrix")
            mats.append(np.array([entries[index] for index in np.ndindex(shape)]).reshape(shape))
        try:
            out[t] = LoRAAdapter(a=mats[0], b=mats[1], alpha=alpha, rank=rank)
        except (ConfigError, ShapeError) as exc:
            raise InputError(f"{path}: target {t!r}: {exc}") from None
    return out
