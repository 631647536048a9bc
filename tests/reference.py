"""Plain references that only the tests read: the noise schedule's
coefficients and the forward and reverse steps as scalar formulas, the
per-item loss, the per-row landmark splats, the per-face and per-cell composition orders, the
whole-image decode of sampled latents, the report extras as row walks and
the two CSV writers as ``csv.writer`` walks. Each is the direct form of a
batched path in the package, which the tests check against it bit for
bit."""

import csv
import math
from dataclasses import fields
from operator import attrgetter

import numpy as np

from craftfaces.diffusion import decode
from craftfaces.facegen import (
    ATTRIBUTE_NAMES, EYE_OFFSET, EYE_SPAN, SINGLE_SPLAT_BANDS, X_MARGIN, X_SPAN, StyleOp, _band_index, _band_rows,
    _jitter_tracks, _jitter_units, _landmark_rows, draw_landmarks, graffiti_stylize,
)
from craftfaces.identity import _already_there, _band_attributes, _scores, extract_attributes, project
from craftfaces.numerics import tensor
from craftfaces.pipeline import PipelineConfig, ReportRow


def schedule_entries(beta) -> dict[str, list[float]]:
    """Every per-step coefficient of the noise variances ``beta``, one step
    at a time in Python floats: the scalar expressions that
    ``NoiseSchedule``'s tables are checked against. A step whose
    1 - alpha_bar rounds to 0 scales eps by 0 / 0 = NaN at beta 0, else by
    inf, as numpy divides."""
    out = {name: [] for name in ("alpha", "alpha_bar", "root_alpha", "root_beta", "root_abar", "root_noise",
                                 "eps_scale")}
    ab = 1.0
    for b in map(float, beta):
        a = 1.0 - b
        ab *= a
        noise = math.sqrt(1.0 - ab)
        eps_scale = b / noise if noise else (math.nan if b == 0.0 else math.inf)
        for name, v in zip(out, (a, ab, math.sqrt(a), math.sqrt(b), math.sqrt(ab), noise, eps_scale)):
            out[name].append(v)
    return out


def _alpha_bar(beta, t: int) -> float:
    ab = 1.0
    for b in beta[:t]:
        ab *= 1.0 - float(b)
    return ab


def forward_step(x_prev: np.ndarray, t: int, beta, rng) -> np.ndarray:
    """sqrt(1 - beta_t) x + sqrt(beta_t) eps, from the scalar beta_t."""
    b = float(beta[t - 1])
    return math.sqrt(1.0 - b) * x_prev + math.sqrt(b) * rng.normal(np.shape(x_prev))


def forward_marginal(x0: np.ndarray, t: int, beta, rng) -> np.ndarray:
    """sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, with abar_t a running product."""
    ab = _alpha_bar(beta, t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * rng.normal(np.shape(x0))


def reverse_step(x_t: np.ndarray, t: int, cond: np.ndarray, model, beta, rng,
                 guidance_scale: float = 1.0) -> np.ndarray:
    """(x_t - beta_t / sqrt(1 - abar_t) eps_hat) / sqrt(1 - beta_t), plus
    sqrt(beta_t) z for t > 1, with eps_hat guided from two
    ``predict_noise`` calls, the second on a zero condition."""
    b, ab = float(beta[t - 1]), _alpha_bar(beta, t)
    eps = model.predict_noise(x_t, cond)
    if guidance_scale != 1.0:
        eps_u = model.predict_noise(x_t, np.zeros(model.cond_dim))
        eps = eps_u + guidance_scale * (eps - eps_u)
    mu = (x_t - b / math.sqrt(1.0 - ab) * eps) / math.sqrt(1.0 - b)
    return mu + math.sqrt(b) * rng.normal(np.shape(x_t)) if t > 1 else mu


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


def decoded_attributes(zs: np.ndarray, codec) -> np.ndarray:
    """The (N, 6) attributes of the latents ``zs``: each decoded whole by
    ``decode``, clipped to [0, 1], then one ``extract_attributes`` call over
    the stack of images. The full decode that
    ``identity._decoded_attributes`` reads only the landmark rows of."""
    return extract_attributes(np.stack([np.clip(decode(z, codec), 0.0, 1.0) for z in zs]))


def _splat(row: np.ndarray, u: float) -> None:
    """Deposit unit intensity across the two pixels bracketing position ``u``."""
    x0 = int(np.floor(u))
    frac = u - x0
    row[x0] += 1.0 - frac
    if frac > 0.0:
        row[x0 + 1] += frac


def splat_landmarks(geometry: np.ndarray, attrs: np.ndarray) -> None:
    """``draw_landmarks`` one row and one splat at a time: clear each band
    row, then add each splat to its row (in place)."""
    h, w = geometry.shape
    rows = _band_rows(h)
    a = {name: float(v) for name, v in zip(ATTRIBUTE_NAMES, attrs)}
    for name, r in rows.items():
        geometry[r, :] = 0.0
    half = (EYE_OFFSET + EYE_SPAN * a["eye_spacing"]) * w
    _splat(geometry[rows["eye_spacing"]], 0.5 * w - half)
    _splat(geometry[rows["eye_spacing"]], 0.5 * w + half)
    for name in SINGLE_SPLAT_BANDS:
        _splat(geometry[rows[name]], (X_MARGIN + X_SPAN * a[name]) * w)


def redrawn_attributes(shape: tuple[int, ...], target: np.ndarray) -> np.ndarray:
    """The attributes of any image of ``shape`` that ``project`` redraws
    onto ``target``. A redraw clears and rewrites every landmark row that
    extraction reads, so they depend on nothing else; they are measured
    here on a blank geometry plane."""
    plane = np.zeros(shape[-2:])
    draw_landmarks(plane, target)
    return _band_attributes(plane[_band_index(shape[-2])])


def order_attributes(img: np.ndarray, intensities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The attributes both composition orders leave on the face ``img`` at
    each of ``intensities``, one face at a time: its ``ref``, the (I, 6)
    attributes ``styled`` of each ``graffiti_stylize`` output and the
    (I, 6) attributes ``restored`` of projecting each onto ``ref``. One
    band read gives ``ref`` and every ``styled`` vector; a restore that
    redraws leaves ``redrawn_attributes`` of the face, a second read, and
    one that finds ``ref`` already there leaves the stylized image's."""
    img = tensor(img)
    rows = img[0, _band_index(img.shape[1])]
    bands = _landmark_rows(_jitter_tracks(img), intensities, _jitter_units(rows))
    attrs = _band_attributes(np.concatenate([rows[None], bands]))
    ref, styled = attrs[0], attrs[1:]
    restored = np.where(_already_there(styled, ref)[:, None], styled, redrawn_attributes(img.shape, ref))
    return ref, styled, restored


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


def report_csv(report, path) -> None:
    """Write ``report`` as ``csv.writer`` does: a header of ``ReportRow``'s
    field names, then each of ``report.rows`` (floats by ``repr``)."""
    names = [f.name for f in fields(ReportRow)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows(map(attrgetter(*names), report.rows))


def adapters_csv(path, adapters) -> None:
    """Write ``adapters`` as ``csv.writer`` does, one row per factor entry
    with alpha and rank repeated per row (each entry by the ``repr`` of its
    float)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("target", "factor", "row", "col", "value", "alpha", "rank"))
        for t in sorted(adapters):
            ad = adapters[t]
            for name, m in (("A", ad.a), ("B", ad.b)):
                for (i, j), v in np.ndenumerate(m):
                    w.writerow([t, name, i, j, repr(float(v)), repr(ad.alpha), ad.rank])
