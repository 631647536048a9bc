"""Plain references that only the tests read: the per-item loss, the
per-cell composition orders and the report extras as row walks. Each is
the direct form of a batched path in the package, which the tests check
against it bit for bit."""

import numpy as np

from craftfaces.facegen import StyleOp, graffiti_stylize
from craftfaces.identity import _scores, extract_attributes, project
from craftfaces.pipeline import PipelineConfig, ReportRow


def denoise_loss(model, x_t: np.ndarray, cond: np.ndarray, eps: np.ndarray) -> float:
    """Mean squared noise-prediction error of the latents ``x_t`` against
    the noise ``eps`` (both ``(B, latent_size)``), with ``cond`` and the
    model's identity as in ``predict_noise``. One ``predict_noise`` call
    per item: the loop that ``diffusion._denoise_loss_and_grad`` is checked
    against."""
    n = len(x_t)
    conds = np.broadcast_to(cond, (n, model.cond_dim))
    ident = model.identity
    total = 0.0
    for i in range(n):
        item = model if np.ndim(ident) < 2 else model.with_identity(ident[i])
        err = item.predict_noise(x_t[i], conds[i]) - eps[i]
        total += float(np.mean(err * err))
    return total / n


def score_row(order: str, attrs: np.ndarray, ref: np.ndarray, intensity: float, seed: int,
              face_id: int) -> ReportRow:
    """Score one output from its attributes ``attrs`` against the input's
    ``ref``: the loss (the bits of ``attr_loss(out, input)``) and the FFC."""
    loss, cosine = _scores(attrs, ref)
    return ReportRow(
        face_id=face_id, order=order, intensity=intensity,
        attr_loss=float(loss), ffc=float(cosine), seed=seed,
    )


def run_style_first(i_img: np.ndarray, cfg: PipelineConfig, face_id: int = 0) -> tuple[np.ndarray, ReportRow]:
    """Stylize, then restore the input's attributes. The projection runs
    last, so the output carries the input's attributes whatever the
    stylizer did."""
    ref = extract_attributes(i_img)
    out = project(graffiti_stylize(i_img, StyleOp(intensity=cfg.style_intensity)), ref)
    return out, score_row("PS", extract_attributes(out), ref, cfg.style_intensity, cfg.seed, face_id)


def run_identity_first(i_img: np.ndarray, cfg: PipelineConfig, face_id: int = 0) -> tuple[np.ndarray, ReportRow]:
    """Reversed order: restore the input's attributes first, then stylize.
    The restore projects the input onto its own attributes, a bitwise
    no-op, so the output is the stylized input and whatever drift the
    stylizer causes stays in it. It extracts twice: the input's attributes
    and the output's."""
    styled = graffiti_stylize(i_img, StyleOp(intensity=cfg.style_intensity))
    return styled, score_row("SP", extract_attributes(styled), extract_attributes(i_img), cfg.style_intensity,
                             cfg.seed, face_id)


def mean_loss(rows: list[ReportRow], order: str) -> float:
    """The mean ``attr_loss`` of the rows of ``order``, in row order."""
    vals = [r.attr_loss for r in rows if r.order == order]
    return float(np.mean(vals)) if vals else float("nan")


def mean_ffc(rows: list[ReportRow], order: str) -> float:
    """The mean ``ffc`` of the rows of ``order``, in row order."""
    vals = [r.ffc for r in rows if r.order == order]
    return float(np.mean(vals)) if vals else float("nan")


def win_rate(rows: list[ReportRow]) -> float:
    """Fraction of (face, intensity, seed) cells where the style-first
    order's (PS) loss is <= the reversed order's (SP)."""
    by_cell: dict[tuple, dict[str, float]] = {}
    for r in rows:
        by_cell.setdefault((r.face_id, r.intensity, r.seed), {})[r.order] = r.attr_loss
    pairs = [c for c in by_cell.values() if "PS" in c and "SP" in c]
    if not pairs:
        return float("nan")
    wins = sum(1 for c in pairs if c["PS"] <= c["SP"])
    return wins / len(pairs)
