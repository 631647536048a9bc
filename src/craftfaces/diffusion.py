"""Forward/reverse denoising processes, the noise schedule, a linear
latent codec, and the ancestral sampling loop with a guided composition
window.

The reverse model predicts the injected noise (epsilon parameterization)
and the per-step variance is fixed at beta_t. The sampler optionally
blends the running latent with a noised guide latent during the first
``window`` reverse steps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .attention import (
    AttentionWeights,
    ExtendedAttentionWeights,
    _forward,
)
from .errors import ConfigError, EvaluationError, ShapeError, StepError
from .numerics import RngStream, tensor

__all__ = [
    "NoiseSchedule",
    "build_schedule",
    "forward_step",
    "forward_marginal",
    "reverse_step",
    "sample",
    "LatentCodec",
    "make_codec",
    "encode",
    "decode",
    "DenoiserModel",
]

BETA_START = 1e-4
BETA_END = 0.02
_TRANSPOSE_BLOCK = 64  # rows of a codec's decoder per block of its transposed copy, the encoder


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Noise variances ``beta`` (1-D; step t at index t - 1) and the
    per-step coefficients derived from them at construction, each with the
    bits of its scalar expression: ``alpha`` = 1 - beta, its running
    product ``alpha_bar``, the roots ``root_alpha``, ``root_beta``,
    ``root_abar`` and ``root_noise`` = sqrt(1 - alpha_bar), and
    ``eps_scale`` = beta / root_noise (NaN or inf where root_noise is 0,
    as when every beta so far is 0: such a step is taken only forward).
    Only ``beta`` is settable; it is copied, and every array is read-only."""

    beta: np.ndarray
    T: int = field(init=False)
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    root_alpha: np.ndarray = field(init=False)
    root_beta: np.ndarray = field(init=False)
    root_abar: np.ndarray = field(init=False)
    root_noise: np.ndarray = field(init=False)
    eps_scale: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise ConfigError(f"schedule needs a nonempty 1-D beta, got shape {beta.shape}")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        root_noise = np.sqrt(1.0 - alpha_bar)
        with np.errstate(divide="ignore", invalid="ignore"):
            eps_scale = beta / root_noise
        for name, a in {"beta": beta, "alpha": alpha, "alpha_bar": alpha_bar, "root_alpha": np.sqrt(alpha),
                         "root_beta": np.sqrt(beta), "root_abar": np.sqrt(alpha_bar), "root_noise": root_noise,
                         "eps_scale": eps_scale}.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "T", len(beta))


def build_schedule(T: int) -> NoiseSchedule:
    """Linear beta schedule from ``BETA_START`` to ``BETA_END`` over T steps."""
    if T < 1:
        raise ConfigError(f"schedule needs T >= 1, got {T}")
    return NoiseSchedule(np.linspace(BETA_START, BETA_END, T))


def _check_step(t: int, sched: NoiseSchedule):
    if not 1 <= t <= sched.T:
        raise StepError(f"step {t} outside 1..{sched.T}")


def forward_step(
    x_prev: np.ndarray, t: int, sched: NoiseSchedule, rng: RngStream
) -> np.ndarray:
    """One Markov noising step: sqrt(1-beta_t) x + sqrt(beta_t) eps."""
    _check_step(t, sched)
    x_prev = tensor(x_prev)
    return sched.root_alpha[t - 1] * x_prev + sched.root_beta[t - 1] * rng.normal(x_prev.shape)


def forward_marginal(
    x0: np.ndarray, t: int, sched: NoiseSchedule, rng: RngStream | Sequence[RngStream]
) -> np.ndarray:
    """Closed form of t iterated noising steps:
    sqrt(abar_t) x0 + sqrt(1-abar_t) eps. ``rng`` is one stream, or one
    stream per row of a batch ``x0``."""
    _check_step(t, sched)
    x0 = tensor(x0)
    return sched.root_abar[t - 1] * x0 + sched.root_noise[t - 1] * _Streams.of(rng, x0.shape).normal(x0.shape)


@dataclass(frozen=True, eq=False)
class DenoiserModel:
    """Toy noise predictor: token reshape + one attention block + affine head.

    A latent of ``n_tokens * token_dim`` entries is reshaped to a token
    matrix, shifted by the projected conditioning vector, passed through
    (identity-augmented) self-attention, and mapped back per token. The
    optional ``identity`` embedding is fixed per subject; ``None`` selects
    the plain base-attention path.
    """

    n_tokens: int
    attention: ExtendedAttentionWeights
    head_w: np.ndarray  # (head_dim, token_dim)
    head_b: np.ndarray  # (token_dim,)
    cond_w: np.ndarray  # (cond_dim, token_dim)
    cond_b: np.ndarray  # (token_dim,)
    identity: np.ndarray | None = None

    @property
    def token_dim(self) -> int:
        return self.head_w.shape[1]

    @property
    def latent_size(self) -> int:
        return self.n_tokens * self.token_dim

    @property
    def cond_dim(self) -> int:
        return self.cond_w.shape[0]

    def with_identity(self, identity: np.ndarray | None) -> "DenoiserModel":
        return replace(self, identity=identity)

    def with_attention(self, attention: ExtendedAttentionWeights) -> "DenoiserModel":
        return replace(self, attention=attention)

    def params(self) -> dict[str, np.ndarray]:
        """Every weight by name, keyed and ordered as its gradient is."""
        a = self.attention
        return {
            "w_q": a.base.w_q, "w_k": a.base.w_k, "w_v": a.base.w_v,
            "u_q": a.u_q, "u_k": a.u_k,
            "head_w": self.head_w, "head_b": self.head_b,
            "cond_w": self.cond_w, "cond_b": self.cond_b,
        }

    def with_params(self, p: dict[str, np.ndarray]) -> "DenoiserModel":
        """Copy carrying the weights ``p``, keyed as in ``params``."""
        base = AttentionWeights(w_q=p["w_q"], w_k=p["w_k"], w_v=p["w_v"])
        return replace(
            self, attention=ExtendedAttentionWeights(base=base, u_q=p["u_q"], u_k=p["u_k"]),
            head_w=p["head_w"], head_b=p["head_b"], cond_w=p["cond_w"], cond_b=p["cond_b"],
        )

    def _batch(self, latent: np.ndarray) -> int:
        """The item count of ``latent``: 1 for one latent, which may have any
        shape of ``latent_size`` entries, or B for a batch ``(B, latent_size)``."""
        if latent.size == self.latent_size:
            return 1
        if latent.ndim == 2 and latent.shape[1] == self.latent_size:
            return latent.shape[0]
        raise ShapeError(
            f"latent {latent.shape} is neither {self.latent_size} entries "
            f"nor a batch (B, {self.latent_size})"
        )

    def _cond(self, cond: np.ndarray, b: int) -> np.ndarray:
        """``cond`` as ``(cond_dim,)``, shared by all ``b`` items, or ``(b, cond_dim)``."""
        cond = tensor(cond)
        if cond.size == self.cond_dim:
            return cond.reshape(-1)
        if cond.shape != (b, self.cond_dim):
            raise ShapeError(f"cond {cond.shape} vs cond dim {self.cond_dim} and {b} items")
        return cond

    def _terms(self, cond: np.ndarray, b: int) -> _Terms:
        """The terms of ``cond``, as ``_cond`` returns it, and of the model's
        identity for a batch of ``b`` items. Each cond row is projected as
        its own ``(1, cond_dim)`` product, because ``(B, cond_dim) @ cond_w``
        is one GEMM that rounds differently from B row products."""
        identity = None if self.identity is None else self.attention.identity_terms(self.identity, (b,))
        return _Terms(cond[..., None, :] @ self.cond_w + self.cond_b, identity)

    def _predict(self, tokens: np.ndarray, identity: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
        """The predicted noise, in token shape, of the conditioned tokens
        ``(B, n_tokens, token_dim)`` that the caller hands over, with their
        items' identity terms. The tokens, Q and K are released before
        ``att @ v``, and each of the head's products is written in place."""
        v, att = _forward(tokens, identity, self.attention)[2:]  # Q and K go with the tuple
        del tokens
        out = att @ v
        del att, v
        eps = out @ self.head_w
        eps += self.head_b
        return eps

    def predict_noise(self, latent: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """Predicted noise for one latent, or for each latent of a batch
        ``(B, latent_size)`` with the bits of its own call. ``cond`` is
        ``(cond_dim,)``, shared, or ``(B, cond_dim)``; the identity is
        ``None``, ``(id,)``, shared, or ``(B, id)``."""
        latent = tensor(latent)
        b = self._batch(latent)
        terms = self._terms(self._cond(cond, b), b)
        shape = (b, self.n_tokens, self.token_dim)
        return self._predict(latent.reshape(shape) + terms.shift, terms.identity).reshape(latent.shape)


class _Terms(NamedTuple):
    """What a prediction adds to the tokens of its items, which stays fixed
    while only the latents change: the conditioning shift
    ``cond @ cond_w + cond_b`` (``(1, token_dim)``, shared, or
    ``(B, 1, token_dim)``) and the identity's ``_IdentityTerms``, or
    None without an identity. ``sample`` computes them once per call."""

    shift: np.ndarray
    identity: tuple[np.ndarray, np.ndarray] | None


def _denoise_loss_and_grad(
    model: DenoiserModel, x_t: np.ndarray, cond: np.ndarray, eps: np.ndarray,
    names: Iterable[str] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """The mean squared noise-prediction error of the latents ``x_t``
    against the noise ``eps`` (both ``(B, latent_size)``), with ``cond``
    and the model's identity as in ``predict_noise``, and its exact
    gradient for each weight in ``names`` (default: every weight; none
    for the loss alone), keyed and ordered as in ``DenoiserModel.params``,
    by hand-rolled backprop through the attention block of
    ``predict_noise``. The forward is ``attention._forward``, the one
    ``predict_noise`` samples with, so training fits the same function.
    The test suite checks the loss against a loop of one ``predict_noise``
    call per item, and the gradient against the finite-difference oracle.

    The batch goes through one ``(B, n, d)`` forward and one backward.
    Every per-item product keeps its 2-D shape (a row ``(1, k)`` times a
    matrix, never ``(B, k) @ W``, which BLAS rounds differently), and the
    per-item losses and gradients are summed over the batch axis in item
    order, so the result has the bits of summing single-item results in a
    loop. The backward computes only what the named weights need; each
    entry has the bits of the full call's.
    """
    p = model.params()
    names = set(p if names is None else names)
    scale = 1.0 / math.sqrt(model.attention.base.head_dim)
    x_t = tensor(x_t)
    n = len(x_t)
    cond = model._cond(cond, n)
    ident = None if model.identity is None else tensor(model.identity)

    terms = model._terms(cond, n)
    t_in = x_t.reshape(n, model.n_tokens, model.token_dim) + terms.shift
    q, k, v, att = _forward(t_in, terms.identity, model.attention)
    o = att @ v
    err = o @ model.head_w  # y = o W + b, then y - eps, in place
    err += model.head_b
    err -= np.reshape(eps, err.shape)
    sq = (err * err).reshape(n, -1)
    size = sq.shape[1]
    # each item's mean (np.mean's bits), accumulated in item order, as the loop over items did
    total = float(np.add.accumulate(np.add.reduce(sq, axis=1) / size)[-1])
    del sq
    if not names:
        return total / n, {}

    def t(a):
        return np.swapaxes(a, -1, -2)

    def items(per_item):
        # 0.0 + each item in turn, as the loop over items did
        return np.add.reduce(per_item, axis=0, initial=0.0)

    def wants(*ws):
        return not names.isdisjoint(ws)

    # each temporary is released after its last read
    dy = err  # dL/dy = (2/N) err, scaled in place: err (2/N) has the same bits
    dy *= 2.0 / size
    del err
    g = {}
    if wants("head_w"):
        g["head_w"] = items(t(o) @ dy)
    del o
    if wants("head_b"):
        g["head_b"] = items(dy.sum(axis=1))
    do = dy @ model.head_w.T
    del dy
    conds = ("cond_w", "cond_b")  # the conditioning gradients need dq, dk and dv
    dv = t(att) @ do if wants("w_v", *conds) else None
    ds = None
    if wants("w_q", "u_q", "w_k", "u_k", *conds):
        ds = do @ t(v)  # dL/datt, then in place dL/dscores = att * (datt - rowdot)
        ds -= (att * ds).sum(axis=-1, keepdims=True)
        ds *= att
    del do, att, v
    dq = dk = None
    if wants("w_q", "u_q", *conds):
        dq = ds @ k
        dq *= scale
    if wants("w_k", "u_k", *conds):
        dk = t(ds) @ q
        dk *= scale
    del ds, q, k
    if wants("w_q"):
        g["w_q"] = items(t(t_in) @ dq)
    if wants("w_k"):
        g["w_k"] = items(t(t_in) @ dk)
    if wants("w_v"):
        g["w_v"] = items(t(t_in) @ dv)
    if wants("u_q"):
        g["u_q"] = (np.zeros_like(p["u_q"]) if ident is None
                    else items(ident[..., :, None] * dq.sum(axis=1)[:, None, :]))
    if wants("u_k"):
        g["u_k"] = (np.zeros_like(p["u_k"]) if ident is None
                    else items(ident[..., :, None] * dk.sum(axis=1)[:, None, :]))
    if wants(*conds):
        dts = dq @ p["w_q"].T  # then + dk W_k^T + dv W_v^T, in place
        dts += dk @ p["w_k"].T
        dts += dv @ p["w_v"].T
        dts = dts.sum(axis=1)
        g["cond_w"] = items(cond[..., :, None] * dts[:, None, :])
        g["cond_b"] = items(dts)
    return total / n, {name: g[name] / n for name in p if name in names}


class _Streams(NamedTuple):
    """The streams ``rng`` of a batch's rows, which ``sample`` builds once
    per call: each distinct stream object once, in the order the rows first
    name it, and each row's index among them."""

    distinct: list[RngStream]
    rows: np.ndarray

    @classmethod
    def of(cls, rng: RngStream | Sequence[RngStream] | _Streams, shape) -> RngStream | _Streams:
        """The noise source of latents of ``shape``: a stream, or a
        ``_Streams``, as it is; a sequence of streams, one per row, as its
        ``_Streams``."""
        if isinstance(rng, (RngStream, _Streams)):
            return rng
        if len(rng) != shape[0]:
            raise ShapeError(f"{len(rng)} streams for a batch of {shape[0]}")
        index = {}
        rows = [index.setdefault(id(r), len(index)) for r in rng]
        return cls(list({id(r): r for r in rng}.values()), np.array(rows, dtype=np.intp))

    def normal(self, shape) -> np.ndarray:
        """Standard normals of ``shape``, one draw of ``shape[1:]`` per row:
        the draw the row's stream makes in its own single-trajectory call.
        A stream object named at several rows draws once, and each of those
        rows gets that draw."""
        return np.array([r.normal(shape[1:]) for r in self.distinct]).reshape((-1, *shape[1:]))[self.rows]


def _guided_terms(model: DenoiserModel, cond: np.ndarray, b: int) -> _Terms:
    """The ``_Terms`` of the doubled batch that ``_predict_guided`` runs for
    ``b`` items: ``[cond; 0]``, and a per-item identity once per branch."""
    conds = np.zeros((2 * b, model.cond_dim))
    conds[:b] = model._cond(cond, b)
    if np.ndim(model.identity) == 2:
        model = model.with_identity(np.concatenate([model.identity, model.identity]))
    return model._terms(conds, 2 * b)


def _predict_guided(
    model: DenoiserModel, x: np.ndarray, cond: np.ndarray, guidance_scale: float,
    terms: _Terms | None = None,
) -> np.ndarray:
    """Classifier-free guidance, eps_u + s * (eps_c - eps_u), for the batch
    ``x`` ((B, latent_size)), with both branches in one prediction on
    ``[x; x]`` and ``[cond; 0]`` (Ho & Salimans, arXiv 2207.12598), whose
    ``_guided_terms`` a caller that reuses them passes as ``terms``. Every
    item is its own product, so each branch has the bits of a call of its
    own. At scale 1 it is the model's own ``predict_noise`` call on ``x`` as
    it is, so any object with one can be sampled."""
    if guidance_scale == 1.0:
        return model.predict_noise(x, cond)
    b = len(x)
    if terms is None:
        terms = _guided_terms(model, cond, b)
    shape = (b, model.n_tokens, model.token_dim)
    # the tokens of [x; x], shifted, from one broadcast sum of x's rows and each branch's shifts;
    # handed over unnamed, so that ``_predict`` can release them
    both = model._predict((x.reshape(shape) + terms.shift.reshape(2, b, 1, -1)).reshape(2 * b, *shape[1:]),
                          terms.identity)
    eps_c, eps_u = both[:b], both[b:]
    out = eps_c - eps_u  # then in place: eps_u + s * (eps_c - eps_u)
    out *= guidance_scale
    out += eps_u
    return out.reshape(x.shape)


def _ancestral(
    x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: NoiseSchedule, rng: RngStream | _Streams,
) -> np.ndarray:
    """``reverse_step``'s update of the tensor ``x_t`` from its predicted
    noise, (x_t - eps_scale * eps_hat) / root_alpha, plus root_beta * z for
    t > 1 with z drawn from ``rng``, with the schedule's entries at t - 1,
    as a new array; neither input is written."""
    i = t - 1
    mu = sched.eps_scale[i] * eps_hat
    np.subtract(x_t, mu, out=mu)
    mu /= sched.root_alpha[i]
    if t > 1:
        z = rng.normal(x_t.shape)
        z *= sched.root_beta[i]
        mu += z
    return mu


def reverse_step(
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray,
    model: DenoiserModel,
    sched: NoiseSchedule,
    rng: RngStream | Sequence[RngStream],
    guidance_scale: float = 1.0,
) -> np.ndarray:
    """One ancestral denoising step from the model's noise prediction.

    mu = (x_t - beta_t / sqrt(1-abar_t) * eps_hat) / sqrt(alpha_t), plus
    sqrt(beta_t) * z for t > 1; the final step is deterministic. ``x_t`` is
    one latent, with one RngStream ``rng``, or a batch ``(B, latent_size)``
    with a sequence of B streams (see ``sample``). At guidance scale 1 the
    model's ``predict_noise`` gets ``x_t`` as it is given; with guidance, one
    latent is a batch of one.
    """
    _check_step(t, sched)
    x_t = tensor(x_t)
    x = x_t if guidance_scale == 1.0 else x_t.reshape(model._batch(x_t), model.latent_size)
    eps_hat = _predict_guided(model, x, cond, guidance_scale).reshape(x_t.shape)
    return _ancestral(x_t, t, eps_hat, sched, _Streams.of(rng, x_t.shape))


def sample(
    model: DenoiserModel,
    cond: np.ndarray,
    sched: NoiseSchedule,
    rng: RngStream | Sequence[RngStream],
    window: int = 0,
    guide: np.ndarray | None = None,
    subject_guidance: float = 0.95,
    guidance_scale: float = 1.0,
) -> np.ndarray:
    """Run reverse steps from t=T down to 1, for one trajectory or for a
    batch advanced together.

    ``rng`` is one RngStream, for one latent, or a sequence of B streams,
    for a batch ``(B, latent_size)`` whose item i has the bits of a single
    call with stream i: each stream makes that call's draws in its order
    (the initial latent, then per step the guide noise inside the window
    and the reverse-step noise for t > 1). One stream object may be named
    at several rows; it then draws once per step, and every row naming it
    gets that draw, so each such row has the bits of a single call with a
    fresh copy of the stream. A batch takes ``guide`` as
    ``(latent_size,)``, shared, or ``(B, latent_size)``, and the model's
    identity as ``predict_noise`` does. One latent is sampled as a batch of
    one and returned as ``(latent_size,)``; at guidance scale 1 the model's
    ``predict_noise`` is handed that ``(1, latent_size)`` batch.

    During the first ``window`` steps the running latent is blended with
    the noised guide: x <- (1-lambda) x + lambda * forward_marginal(guide, t).
    With window=0 the guide is never touched.

    Each step reads its coefficients from the schedule's tables, and what
    the steps share is computed once per call: the rows' ``_Streams`` and,
    with guidance, the doubled batch's conditioning and identity terms
    (``_guided_terms``). The guide blend updates the running latent in
    place, each step's update is computed in place in its one new latent,
    and none of a step's temporaries outlives it. The result has the bits
    of a loop of ``forward_marginal`` and ``reverse_step``.

    A result that is not finite (a guidance scale so large that the
    latents overflow, say) raises EvaluationError.
    """
    if window > sched.T:
        raise ConfigError(f"composition window {window} > steps {sched.T}")
    if window < 0:
        raise ConfigError(f"composition window must be >= 0, got {window}")
    if window > 0 and guide is None:
        raise ConfigError("composition window > 0 requires a guide latent")
    batch = not isinstance(rng, RngStream)
    if batch:
        rng = list(rng)
        if np.ndim(model.identity) == 2 and len(model.identity) != len(rng):
            raise ShapeError(f"identity batch of {len(model.identity)} for {len(rng)} streams")
    shape = (len(rng) if batch else 1, model.latent_size)
    if window > 0:
        try:
            guide = tensor(np.broadcast_to(guide, shape))
        except ValueError:
            raise ShapeError(f"guide {np.shape(guide)} does not fit latents {shape}") from None
    rng = _Streams.of(rng, shape)
    x = rng.normal(shape)
    # overflow only ever ends in a non-finite result, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = None if guidance_scale == 1.0 else _guided_terms(model, cond, shape[0])
        for t in range(sched.T, 0, -1):
            if window > 0 and t > sched.T - window:
                # x <- (1 - lambda) x + lambda (sqrt(abar) guide + sqrt(1 - abar) eps), in place
                noised = rng.normal(shape)
                noised *= sched.root_noise[t - 1]
                noised += sched.root_abar[t - 1] * guide
                noised *= subject_guidance
                x *= 1.0 - subject_guidance
                x += noised
                del noised
            x = _ancestral(x, t, _predict_guided(model, x, cond, guidance_scale, terms), sched, rng)
    if not np.isfinite(x).all():
        raise EvaluationError(f"sampling gave a non-finite latent (guidance scale {guidance_scale!r})")
    return x if batch else x[0]


@dataclass(frozen=True, eq=False)
class LatentCodec:
    """Linear encoder/decoder pair of images of ``image_shape``: ``dec``
    (n, z) has orthonormal columns and the encoder ``enc`` is its
    transpose, so decode(encode(x)) is the orthogonal projection of x onto
    the column space. Only ``dec`` and ``image_shape`` are settable.

    ``enc`` is derived at construction as a C-ordered copy of ``dec.T``,
    so that ``encode`` is one contiguous gemv. It is copied a block of
    ``_TRANSPOSE_BLOCK`` rows of ``dec`` at a time, because numpy's strided
    copy of a tall matrix's transpose is cache-hostile: each output row
    reads one column, a stride of z doubles down all n rows. A block's rows
    stay in cache while its columns are written. A copy rounds nothing, so
    the bytes are those of ``dec.T.copy()``. Both arrays are read-only;
    ``dec`` is kept as a read-only view of the array passed, not a copy."""

    dec: np.ndarray  # (n, z)
    image_shape: tuple[int, ...]
    enc: np.ndarray = field(init=False)  # (z, n)

    def __post_init__(self):
        dec = np.asarray(self.dec, dtype=np.float64).view()
        n = math.prod(self.image_shape)
        if dec.ndim != 2 or dec.shape[0] != n:
            raise ShapeError(f"decoder {dec.shape} does not fit images {self.image_shape} of {n} pixels")
        enc = np.empty(dec.shape[::-1])
        for s in range(0, n, _TRANSPOSE_BLOCK):
            enc[:, s : s + _TRANSPOSE_BLOCK] = dec[s : s + _TRANSPOSE_BLOCK].T
        for name, a in (("dec", dec), ("enc", enc)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def z_dim(self) -> int:
        return self.dec.shape[1]

    @property
    def n_dim(self) -> int:
        return self.dec.shape[0]


def _cholesky_upper(gram: np.ndarray) -> np.ndarray:
    """Upper-triangular R with RᵀR = ``gram`` (symmetric positive definite;
    only its upper triangle is read). Row j of R subtracts the rows above
    it by one in-order axis-0 sum, so the bits depend on no BLAS or LAPACK
    thread count. A pivot that is not positive and finite raises
    EvaluationError rather than turn into NaN."""
    z = gram.shape[0]
    r = np.zeros_like(gram)
    for j in range(z):
        row = gram[j, j:] - (r[:j, j, None] * r[:j, j:]).sum(axis=0)
        if not (row[0] > 0.0 and np.isfinite(row[0])):
            raise EvaluationError(f"Cholesky pivot {j} is {row[0]!r}: Gram matrix not positive definite")
        r[j, j] = d = np.sqrt(row[0])
        r[j, j + 1 :] = row[1:] / d
    return r


def _inv_upper(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix with a nonzero diagonal, by back
    substitution row by row, each row one in-order axis-0 sum."""
    z = r.shape[0]
    x = np.zeros_like(r)
    for i in range(z - 1, -1, -1):
        x[i, i] = 1.0 / r[i, i]
        x[i, i + 1 :] = -(r[i, i + 1 :, None] * x[i + 1 :, i + 1 :]).sum(axis=0) / r[i, i]
    return x


def make_codec(image_shape, z_dim: int, rng: RngStream) -> LatentCodec:
    """Random orthonormal codec: the Q factor of a Gaussian (n, z_dim) draw.

    Q comes from CholeskyQR2 (Fukaya et al., "CholeskyQR2: a simple and
    communication-avoiding algorithm for computing a tall-skinny QR
    factorization", 2014): two passes of Q <- Q R⁻¹, with R the upper
    Cholesky factor of QᵀQ. The first pass leaves Q orthonormal to about
    cond(A)²·eps and the second to machine precision. R's diagonal is
    positive, so Q is the unique such QR factor. Only the two large
    products, the Gram matrix and Q R⁻¹, use BLAS, whose gemm/syrk bits
    do not depend on its thread count (tests check 1, 2 and 4); the
    z_dim-sized factor and inverse are in-order numpy loops, not LAPACK,
    so the codec's bytes are the same at any BLAS thread count. Q is the
    decoder; ``LatentCodec`` derives the encoder Qᵀ from it.
    """
    image_shape = tuple(int(s) for s in image_shape)
    n = int(np.prod(image_shape))
    if not 1 <= z_dim <= n:
        raise ConfigError(f"latent dim {z_dim} must be in 1..{n}")
    q = rng.normal((n, z_dim))
    for _ in range(2):
        q = q @ _inv_upper(_cholesky_upper(q.T @ q))
    return LatentCodec(dec=q, image_shape=image_shape)


def encode(img: np.ndarray, codec: LatentCodec) -> np.ndarray:
    flat = tensor(img).reshape(-1)
    if flat.size != codec.n_dim:
        raise ShapeError(f"image size {flat.size} != codec input dim {codec.n_dim}")
    return codec.enc @ flat


def decode(z: np.ndarray, codec: LatentCodec) -> np.ndarray:
    z = tensor(z).reshape(-1)
    if z.size != codec.z_dim:
        raise ShapeError(f"latent size {z.size} != codec latent dim {codec.z_dim}")
    return (codec.dec @ z).reshape(codec.image_shape)


def make_denoiser(
    n_tokens: int,
    token_dim: int,
    cond_dim: int,
    id_dim: int,
    rng: RngStream,
    weight_scale: float = 0.3,
) -> DenoiserModel:
    """Seeded random toy denoiser. ``weight_scale=0`` gives the zero model."""

    def w(shape):
        return weight_scale * rng.normal(shape)

    base = AttentionWeights(
        w_q=w((token_dim, token_dim)),
        w_k=w((token_dim, token_dim)),
        w_v=w((token_dim, token_dim)),
    )
    ext = ExtendedAttentionWeights(
        base=base, u_q=w((id_dim, token_dim)), u_k=w((id_dim, token_dim))
    )
    return DenoiserModel(
        n_tokens=n_tokens,
        attention=ext,
        head_w=w((token_dim, token_dim)),
        head_b=np.zeros(token_dim),
        cond_w=w((cond_dim, token_dim)),
        cond_b=np.zeros(token_dim),
    )
