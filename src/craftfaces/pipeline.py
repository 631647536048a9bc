"""End-to-end orchestration: the style-first denoiser pass, the attention
map, the composition-order sweep, attention-arm comparison, toy denoiser
training, and CSV reporting.

Everything here is a pure function of (inputs, config, seed): all random
streams derive from ``PipelineConfig.seed``, sweep cells own split
streams, and a report keeps its cells in (face_id, intensity, seed) order,
so the output does not depend on worker count or completion order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .diffusion import (
    DenoiserModel,
    LatentCodec,
    NoiseSchedule,
    _denoise_loss_and_grad,
    build_schedule,
    decode,
    encode,
    make_codec,
    make_denoiser,
    sample,
)
from .attention import ExtendedAttentionWeights, attention_map
from .errors import CompositionOrderError, ConfigError, EvaluationError, TrainingError
from .facegen import FaceParams, StyleOp, embed_prompt, graffiti_stylize, render_face
from .identity import _decoded_attributes, _scores, _sweep_attributes, attribute_embedding, extract_attributes
from .lora import LoRATrainConfig, train_lora
from .numerics import RngStream

__all__ = [
    "PipelineConfig",
    "ReportRow",
    "ExperimentReport",
    "diffuse",
    "face_attention_map",
    "ablate_order",
    "ablate_attention",
    "train_toy_denoiser",
]

DEFAULT_PROMPT = "graffiti portrait guitarist pose"
SGD_BATCH = 16  # (face, t, eps) triples per toy-denoiser SGD step
TRAIN_LR = 0.25  # train_toy_denoiser's learning rate, in full and in LoRA mode
# Bounds on what sizes a runtime, checked before anything is allocated. Each
# is a margin over the largest documented use: 10x the 100 steps of the
# defaults; 128x the default cond_dim 8, the only one documented; 128x the
# largest documented token_dim 8, so that each token_dim**2 attention weight
# holds at most 8 MiB; 16x the default 16 latent tokens, so that one
# (16, n, n) SGD score array holds at most 8 MiB; 10x the full-scale LoRA
# rank 64; and 8x the 2*64**2*128 = 1,048,576-element codec of
# `train --lora --token-dim 8`, so that the runtime kept alive holds at most
# 128 MiB of codec (enc and dec).
MAX_STEPS = 1000
MAX_COND_DIM = 1024
MAX_TOKEN_DIM = 1024
MAX_LATENT_TOKENS = 256
MAX_LORA_RANK = 640
MAX_CODEC_ELEMENTS = 8 * 2**20

_VALUE_TYPES = {"int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class PipelineConfig:
    guidance_scale: float = 7.5
    subject_guidance: float = 0.95
    style_intensity: float = 0.7
    steps: int = 100
    composition_window: int = 25
    lora_rank: int = 4
    lora_alpha: float = 8.0
    seed: int = 0
    image_size: int = 64
    latent_tokens: int = 16
    token_dim: int = 4
    cond_dim: int = 8

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not -(2**127) <= self.seed < 2**127:  # the 128-bit range RngStream hashes
            raise ConfigError(f"seed must lie in [-2**127, 2**127 - 1], got {self.seed}")
        if not 1 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps must lie in [1, {MAX_STEPS}], got {self.steps}")
        if not 0 <= self.composition_window <= self.steps:
            raise ConfigError(
                f"composition window {self.composition_window} outside 0..steps={self.steps}"
            )
        if self.guidance_scale <= 0:
            raise ConfigError(f"guidance_scale must be > 0, got {self.guidance_scale}")
        if not 0.0 <= self.subject_guidance <= 1.0:
            raise ConfigError(f"subject_guidance {self.subject_guidance} outside [0, 1]")
        if not 0.0 <= self.style_intensity <= 1.0:
            raise ConfigError(f"style_intensity {self.style_intensity} outside [0, 1]")
        if not 1 <= self.lora_rank <= MAX_LORA_RANK:
            raise ConfigError(f"lora_rank must lie in [1, {MAX_LORA_RANK}], got {self.lora_rank}")
        if self.lora_alpha <= 0:
            raise ConfigError(f"lora_alpha must be > 0, got {self.lora_alpha}")
        if self.image_size < 32:
            raise ConfigError(f"image_size must be >= 32, got {self.image_size}")
        if self.latent_tokens < 1 or self.token_dim < 1 or self.cond_dim < 1:
            raise ConfigError("latent_tokens, token_dim, cond_dim must be >= 1")
        if self.cond_dim > MAX_COND_DIM:
            raise ConfigError(f"cond_dim must be <= {MAX_COND_DIM}, got {self.cond_dim}")
        if self.token_dim > MAX_TOKEN_DIM:
            raise ConfigError(f"token_dim must be <= {MAX_TOKEN_DIM}, got {self.token_dim}")
        codec = 2 * self.image_size**2 * self.latent_tokens * self.token_dim
        if codec > MAX_CODEC_ELEMENTS:
            raise ConfigError(
                f"codec of 2*image_size**2*latent_tokens*token_dim = {codec} elements "
                f"exceeds {MAX_CODEC_ELEMENTS} (image_size={self.image_size}, "
                f"latent_tokens={self.latent_tokens}, token_dim={self.token_dim})"
            )
        # after the codec, whose bound falls at the same 256 tokens at 64 px and token_dim 4
        if self.latent_tokens > MAX_LATENT_TOKENS:
            raise ConfigError(f"latent_tokens must be <= {MAX_LATENT_TOKENS}, got {self.latent_tokens}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, **overrides) -> "PipelineConfig":
        """Build from JSON-style values ``d`` with ``overrides`` set over
        them. Every value of ``d`` is type-checked, overridden or not: an int
        field takes an int, a float field an int or a float. Only the merged
        config is range-checked."""
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            kind = fields[key].type  # a string, under postponed annotations
            if type(value) not in _VALUE_TYPES[kind]:
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        return cls(**{**d, **overrides})


@dataclass(frozen=True)
class ReportRow:
    face_id: int
    order: str
    intensity: float
    attr_loss: float
    ffc: float
    seed: int


_REPORT_HEADER = ",".join(f.name for f in fields(ReportRow)) + "\r\n"


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """A comparison of arms over (face_id, intensity, seed) cells, kept as
    its score arrays: the arm labels ``orders``, the sorted ``cells``, each
    arm's score in each cell as the (len(orders), len(cells)) ``losses`` and
    ``ffcs``, and the figures ``extras`` read from them. ``rows`` is derived
    on first read and then kept: one ``ReportRow`` per cell and arm, in
    (cell, arm) order, so sorted as the cells and labels are. Neither the
    CLI nor ``to_csv`` reads it. Equality is identity, since arrays have no
    single truth value: compare ``rows`` and ``extras`` for content."""

    orders: tuple[str, ...]
    cells: list[tuple[int, float, int]]
    losses: np.ndarray
    ffcs: np.ndarray
    extras: dict

    @functools.cached_property
    def rows(self) -> list[ReportRow]:
        return [
            ReportRow(face_id, order, intensity, loss, cosine, seed)
            for (face_id, intensity, seed), cell_losses, cell_ffcs in zip(
                self.cells, self.losses.T.tolist(), self.ffcs.T.tolist())
            for order, loss, cosine in zip(self.orders, cell_losses, cell_ffcs)
        ]

    def to_csv(self, path) -> None:
        """Write the report: a header of ``ReportRow``'s field names, then
        one line per row, with the bytes ``csv.writer`` writes for ``rows``
        (floats by ``repr``), built from the arrays without a row. Each
        distinct float bit pattern of the intensities and scores is
        formatted once. No label holds a comma, quote or line break, so no
        field is quoted. Every value is deterministic, so reports are
        byte-identical for identical (config, seed)."""
        n = len(self.cells)
        values = np.concatenate([np.array([cell[1] for cell in self.cells], dtype=float),
                                 self.losses.ravel(), self.ffcs.ravel()])
        distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)[inverse]
        # (cell, arm, [loss, ffc]) of each score's text
        scores = text[n:].reshape(2, len(self.orders), n).transpose(2, 1, 0).tolist()
        lines = [_REPORT_HEADER]
        lines += [
            f"{face_id},{order},{intensity},{loss},{cosine},{seed}\r\n"
            for (face_id, _, seed), intensity, cell in zip(self.cells, text[:n].tolist(), scores)
            for order, (loss, cosine) in zip(self.orders, cell)
        ]
        with open(path, "w", newline="") as fh:
            fh.write("".join(lines))


@dataclass(frozen=True, eq=False)
class _Runtime:
    sched: NoiseSchedule
    codec: LatentCodec
    model: DenoiserModel


def _make_runtime(cfg: PipelineConfig) -> _Runtime:
    """The schedule, codec and denoiser of ``cfg``: a pure function of its
    seed, image size, latent tokens, token dim, cond dim and steps. The last
    runtime built stays alive for the process, so a config that repeats
    those six fields gets that same object without a rebuild."""
    return _build_runtime(cfg.seed, cfg.image_size, cfg.latent_tokens, cfg.token_dim, cfg.cond_dim,
                          cfg.steps)


@functools.lru_cache(maxsize=1)
def _build_runtime(seed: int, image_size: int, latent_tokens: int, token_dim: int, cond_dim: int,
                   steps: int) -> _Runtime:
    """Every array of the runtime is read-only: all its callers share it,
    so an in-place write raises instead of changing what the others see.
    Schedules and codecs are read-only from construction; the weights of
    the denoiser are frozen here."""
    rng = RngStream(seed=seed)
    codec = make_codec((2, image_size, image_size), latent_tokens * token_dim, rng.split("codec"))
    model = make_denoiser(latent_tokens, token_dim, cond_dim, 6, rng.split("denoiser"))
    sched = build_schedule(steps)
    for a in model.params().values():
        a.flags.writeable = False
    return _Runtime(sched=sched, codec=codec, model=model)


def diffuse(img: np.ndarray, cfg: PipelineConfig, prompt: str, rng: RngStream) -> np.ndarray:
    """The style-first denoiser pass over the face ``img``: stylize it at
    ``cfg.style_intensity``, then run the guided sampler of ``cfg``'s
    runtime on ``prompt`` with the identity of ``img``'s attributes, the
    stylized latent guiding the first ``cfg.composition_window`` steps;
    returns the decoded image, clipped to [0, 1]. With no window the
    sampler reads no guide, so nothing is stylized."""
    cond = embed_prompt(prompt, cfg.cond_dim)  # first, so a refused prompt costs no other work
    runtime = _make_runtime(cfg)
    guide = None
    if cfg.composition_window > 0:
        guide = encode(graffiti_stylize(img, StyleOp(intensity=cfg.style_intensity)), runtime.codec)
    z = sample(
        runtime.model.with_identity(attribute_embedding(extract_attributes(img))),
        cond,
        runtime.sched,
        window=cfg.composition_window,
        guide=guide,
        rng=rng,
        subject_guidance=cfg.subject_guidance,
        guidance_scale=cfg.guidance_scale,
    )
    return np.clip(decode(z, runtime.codec), 0.0, 1.0)


def face_attention_map(img: np.ndarray, cfg: PipelineConfig, with_identity: bool) -> np.ndarray:
    """The post-softmax ``(latent_tokens, latent_tokens)`` attention matrix
    of ``cfg``'s denoiser over the latent tokens of the face ``img``; with
    ``with_identity``, the identity-augmented map on the embedding of
    ``img``'s attributes."""
    runtime = _make_runtime(cfg)
    tokens = encode(img, runtime.codec).reshape(cfg.latent_tokens, cfg.token_dim)
    ident = attribute_embedding(extract_attributes(img)) if with_identity else None
    return attention_map(tokens, ident, runtime.model.attention)


def ablate_order(
    faces: list[FaceParams],
    cfg: PipelineConfig,
    sweeps,
    seeds,
    jobs: int = 1,
) -> ExperimentReport:
    """Run both composition orders for every (face, intensity, seed) cell,
    over the intensities ``sweeps`` and the config seeds ``seeds``.

    Any cell where the style-first order has the larger attribute loss is
    a hard failure (CompositionOrderError carrying the offending case).
    Intensities and seeds must be nonempty and distinct, so that no two
    cells are the same.

    Each face is read once, from its attributes alone, by
    ``identity._face_attributes``: one band read gives the attributes of
    its render and of its stylize at every intensity, and no image is
    built. At most ``min(jobs, len(faces))`` worker processes read the
    faces, and none when that is 1; each takes one contiguous block of
    faces as one task and hands back each face's (1 + I, 6) attributes.
    The rest runs once for all faces: every style-first restore
    (``identity._restored_attributes``), then one scoring call over the
    (F, 2, I) PS and SP vectors, each with the bits of scoring that
    vector alone. Faces are then scanned in order, intensities in sweep
    order, and the first where style-first lost names the failure. The
    scores are then put in sorted intensity order and, since no draw reads
    the seed, repeated once per sorted seed: the cells' order, in which the
    report keeps them and off which ``extras`` is read.

    ``extras`` holds each order's mean loss, ``mean_loss_ps`` and
    ``mean_loss_sp``, and ``win_rate``, the fraction of cells where the
    style-first (PS) loss is <= the reversed (SP) one.
    """
    if not faces:
        raise ConfigError("ablate_order needs a nonempty face grid")
    intensities = tuple(float(i) for i in sweeps)
    seeds = tuple(int(s) for s in seeds)
    for name, axis in (("intensities", intensities), ("seeds", seeds)):
        if not axis or len(set(axis)) != len(axis):
            raise ConfigError(f"ablate_order {name} must be nonempty and distinct, got {axis}")
    # every seed and every intensity is checked here, before any face is read
    for s in seeds:
        replace(cfg, seed=s)
    for i in intensities:
        if not 0.0 <= i <= 1.0:
            raise ConfigError(f"ablate_order intensity {i} is not a finite value in [0, 1]")
    workers = min(jobs, len(faces))
    if workers > 1:
        # imported here: the pool's modules (multiprocessing and what it loads) cost
        # every other command's import time, and only a sweep with workers uses them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            # one task per worker, a contiguous block of faces each
            blocks = functools.partial(ex.map, chunksize=math.ceil(len(faces) / workers))
            refs, styled, restored = _sweep_attributes(faces, cfg.image_size, intensities, blocks)
    else:
        refs, styled, restored = _sweep_attributes(faces, cfg.image_size, intensities)
    # (face, order, intensity): the PS, then the SP order's scores of each face
    losses, ffcs = _scores(np.stack([restored, styled], axis=1), refs[:, None, None])
    lost = losses[:, 0] > losses[:, 1]
    if lost.any():
        f = int(np.argmax(lost.any(axis=1)))  # the first face where style-first lost
        i = int(np.argmax(lost[f]))  # and its first such intensity, in sweep order
        raise CompositionOrderError(
            "style-then-project lost to the reversed order: "
            f"face_id={f} intensity={intensities[i]} seeds={seeds} "
            f"loss_ps={float(losses[f, 0, i])!r} loss_sp={float(losses[f, 1, i])!r} params={faces[f]}"
        )
    by_intensity = np.argsort(intensities)
    seeds = sorted(seeds)
    cells = [(fid, intensities[i], seed) for fid in range(len(faces)) for i in by_intensity for seed in seeds]
    # (term, face, order, intensity) -> (term, order, cell): each order's losses and FFCs in cell order
    terms = np.repeat(np.array([losses, ffcs])[..., by_intensity], len(seeds), axis=-1)
    losses, ffcs = terms.transpose(0, 2, 1, 3).reshape(2, 2, -1)
    return ExperimentReport(("PS", "SP"), cells, losses, ffcs, {
        "mean_loss_ps": float(np.mean(losses[0])),
        "mean_loss_sp": float(np.mean(losses[1])),
        "win_rate": int(np.sum(losses[0] <= losses[1])) / len(cells),
    })


def _training_batch(latents: np.ndarray, cfg: PipelineConfig, runtime: _Runtime, rng: RngStream):
    """Fixed batch of (noised latent, cond, noise) triples, two per row of
    the face latents ``latents``."""
    cond = embed_prompt(DEFAULT_PROMPT, cfg.cond_dim)
    batch = []
    for x0 in latents:
        for _ in range(2):
            t = int(rng.integers(1, cfg.steps + 1))
            eps = rng.normal(x0.shape)
            x_t = runtime.sched.root_abar[t - 1] * x0 + runtime.sched.root_noise[t - 1] * eps
            batch.append((x_t, cond, eps))
    return batch


def _sgd_train(
    model: DenoiserModel,
    latents: np.ndarray,
    idents: np.ndarray | None,
    cfg: PipelineConfig,
    runtime: _Runtime,
    rng: RngStream,
    steps: int,
    lr: float,
) -> DenoiserModel:
    """Noise-prediction SGD on the face latents ``latents`` with a fresh
    (face, t, eps) batch every step and a linear decay to 10% of the
    initial rate. Each step makes two draws of ``rng``: one integer per
    (face, t) pair, then every noise row. Given the per-face identity
    embeddings ``idents``, it feeds each face's and updates only the
    identity blocks U_q/U_k; without, it feeds no identity and updates
    every other weight (U_q/U_k, which no identity reaches, have a zero
    gradient there). Weights not updated are not differentiated, and the
    returned model shares them with ``model``; the updated ones are copied
    once and then updated in place, so ``model``'s arrays keep their bytes.
    A loss or weight that stops being finite raises TrainingError."""
    cond = embed_prompt(DEFAULT_PROMPT, cfg.cond_dim)
    params = model.params()
    identity_blocks = ("u_q", "u_k")
    trained = [name for name in params if name not in identity_blocks] if idents is None else identity_blocks
    params.update({name: params[name].copy() for name in trained})
    trainee = model.with_params(params)  # holds ``params``' arrays, so sees every update
    # x_t = sqrt(abar) x0 + sqrt(1 - abar) eps, both roots the schedule's, as columns
    root_abar = runtime.sched.root_abar[:, None]
    root_noise = runtime.sched.root_noise[:, None]
    # overflow only ever ends in a non-finite loss or weight, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            # each pair's face and schedule index t - 1
            fidx, tidx = np.divmod(rng.integers(0, len(latents) * cfg.steps, (SGD_BATCH,)), cfg.steps)
            eps = rng.normal((SGD_BATCH, latents.shape[1]))
            x_t = root_abar[tidx] * latents[fidx]
            x_t += root_noise[tidx] * eps
            current = trainee if idents is None else trainee.with_identity(idents[fidx])
            loss, grads = _denoise_loss_and_grad(current, x_t, cond, eps, trained)
            if not np.isfinite(loss):
                raise TrainingError("toy denoiser training: loss became non-finite")
            rate = lr * (1.0 - 0.9 * i / steps)
            for name, g in grads.items():
                g *= rate
                params[name] -= g
            if not all(np.isfinite(params[name]).all() for name in grads):
                raise TrainingError("toy denoiser training: parameters became non-finite")
    return trainee


def train_toy_denoiser(
    faces: list[FaceParams],
    cfg: PipelineConfig,
    rng: RngStream,
    steps: int = 500,
    lora: bool = False,
):
    """Fit the toy denoiser to predict injected noise on face latents.

    Full mode runs SGD on all weights with analytic gradients; LoRA mode
    freezes the base model and trains rank-limited adapters on the
    attention matrices instead. ``steps`` must be at least 0, and in LoRA
    mode ``cfg.lora_rank`` at most ``cfg.token_dim``, the largest rank of
    an adapted (token_dim, token_dim) matrix; both are checked before any
    work. Returns (model, adapters or None).
    """
    if not faces:
        raise ConfigError("train_toy_denoiser needs a nonempty face grid")
    if steps < 0:
        raise ConfigError(f"train_toy_denoiser steps must be >= 0, got {steps}")
    if lora and cfg.lora_rank > cfg.token_dim:
        raise ConfigError(f"lora_rank {cfg.lora_rank} exceeds token_dim {cfg.token_dim}")
    runtime = _make_runtime(cfg)
    model = runtime.model
    latents = np.stack([encode(render_face(p, cfg.image_size), runtime.codec) for p in faces])
    if lora:
        data = _training_batch(latents, cfg, runtime, rng.split("batch"))
        lcfg = LoRATrainConfig(rank=cfg.lora_rank, alpha=cfg.lora_alpha, lr=TRAIN_LR, steps=steps)
        adapters = train_lora(model, data, lcfg, rng.split("lora"))
        return model, adapters
    return _sgd_train(model, latents, None, cfg, runtime, rng.split("sgd"), steps, TRAIN_LR), None


def _face_tokens(guide: np.ndarray, n_tokens: int, token_dim: int) -> np.ndarray:
    """The quarter of the token indices (at least one) carrying the most
    guide-latent energy; the toy stand-in for 'tokens covering the face'."""
    norms = np.linalg.norm(guide.reshape(n_tokens, token_dim), axis=1)
    return np.sort(np.argsort(-norms)[: max(1, n_tokens // 4)])


def ablate_attention(
    faces: list[FaceParams],
    cfg: PipelineConfig,
    seeds,
    train_steps: int = 2000,
    base_steps: int = 1200,
) -> ExperimentReport:
    """Compare identity-augmented attention against the plain baseline,
    sampling every face at each of the sampling seeds ``seeds``.

    One base model is trained without identity information; the identity
    arm then keeps those weights frozen and trains only the zero-started
    identity blocks U_q/U_k with per-face embeddings, so the arms differ
    purely by the learned identity extension. The seeds must be nonempty
    and distinct, so that no (face, seed) pair is counted twice, and each
    a valid config seed; the step counts ``base_steps`` and
    ``train_steps`` must be at least 0. All of this is checked before any
    work. The seeds are then sorted, so the report depends only on the
    seed set.

    Both arms are sampled in one batch on the identity model: first the
    baseline's (face, seed) trajectories with a zero identity embedding,
    which is plain attention on the shared base weights, then the identity
    arm's, in (face, seed) order. A (face, seed) pair names one stream
    object in both arms, which draws once per step for both rows, so the
    arms share their sampling noise by construction and every trajectory
    has the bits of sampling it alone. Of each trajectory only the six
    landmark rows that attribute extraction reads are decoded
    (``identity._decoded_attributes``), each row one gemv over its slice of
    the decoder, with the bits of the whole decode's row; its attributes
    come from one band read of all of them, its attention map from one
    call per arm, each with the bits of its own call. One ``_scores`` call
    scores every trajectory against every face of the grid: its own face
    gives its loss and FFC, and the others its identification. Every arm
    is guided by the unstylized render's latent, so each cell's
    ``intensity`` is 0.0. The report keeps those (2, faces * seeds) arrays, in (face,
    seed) order, and its mean FFCs, ``paired_se`` and ``id_wins`` are read
    off them.

    ``extras`` holds each arm's mean FFC and attention mass, the standard
    error ``paired_se`` of the per-(face, seed) ID - BASE FFC differences
    (NaN for a single pair) and ``id_wins``, the number of pairs where the
    identity arm's FFC is the larger. Against chance, each arm also has
    ``ident_rate_*``, the fraction of its samples whose own face is the
    nearest of the grid's faces by attribute distance (a tie counts as a
    miss; chance is one over the face count), and ``mean_ffc_others_*``,
    the mean FFC of its samples with every other face (NaN for one face),
    the FFC that a sample which kept no identity would score. Sampled
    latents whose attribute scores or attention masses are not finite (a
    guidance scale so large that their attention scores overflow, say)
    raise EvaluationError, and no report is built.
    """
    if not faces:
        raise ConfigError("ablate_attention needs a nonempty face grid")
    seeds = tuple(int(s) for s in seeds)
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError(f"ablate_attention seeds must be nonempty and distinct, got {seeds}")
    if train_steps < 0 or base_steps < 0:
        raise ConfigError(f"ablate_attention step counts must be >= 0, got train_steps={train_steps} "
                          f"base_steps={base_steps}")
    for s in seeds:  # every seed's config is validated here, before any render or SGD step
        replace(cfg, seed=s)
    seeds = sorted(seeds)
    runtime = _make_runtime(cfg)
    # each face is rendered and encoded once; only its latent and attributes stay alive
    refs, latents = [], []
    for params in faces:
        img = render_face(params, cfg.image_size)
        refs.append(extract_attributes(img))
        latents.append(encode(img, runtime.codec))
    refs, latents = np.stack(refs), np.stack(latents)
    del img
    a0 = runtime.model.attention
    start = runtime.model.with_attention(
        ExtendedAttentionWeights(base=a0.base, u_q=np.zeros_like(a0.u_q), u_k=np.zeros_like(a0.u_k))
    )
    trng = RngStream(seed=cfg.seed).split("attn-ablation")
    base_model = _sgd_train(start, latents, None, cfg, runtime, trng.split("base"), base_steps, 0.25)
    id_model = _sgd_train(
        base_model, latents, np.stack([attribute_embedding(p.attributes()) for p in faces]), cfg, runtime,
        trng.split("identity-blocks"), train_steps, 0.15,
    )

    cond = embed_prompt(DEFAULT_PROMPT, cfg.cond_dim)
    items = [(fid, seed) for fid in range(len(faces)) for seed in seeds]
    streams = [RngStream(seed=seed).split("attn-sample").split(fid) for fid, seed in items]
    fids = np.array([fid for fid, _ in items])
    item_guides = latents[fids]
    item_idents = np.stack([attribute_embedding(ref) for ref in refs])[fids]
    # the BASE rows (zero identity: plain attention), then the ID rows; the
    # two rows of a (face, seed) pair share its stream and so its noise
    zs = sample(
        id_model.with_identity(np.concatenate([np.zeros_like(item_idents), item_idents])),
        cond, runtime.sched,
        window=cfg.composition_window,
        guide=np.concatenate([item_guides, item_guides]),
        rng=streams + streams,
        subject_guidance=cfg.subject_guidance,
        guidance_scale=cfg.guidance_scale,
    )
    # only the landmark rows of each trajectory are decoded (one gemv a row, for the whole
    # decode's bits); then (arm, trajectory, face): every trajectory scored against every face
    dists, cosines = _scores(_decoded_attributes(zs, runtime.codec).reshape(2, len(items), 1, -1), refs)
    rows = np.arange(len(items))
    losses, ffcs = dists[:, rows, fids], cosines[:, rows, fids]  # each trajectory's own face
    interests = np.stack([_face_tokens(guide, cfg.latent_tokens, cfg.token_dim) for guide in latents])
    # each arm's attention map's mass on the face's tokens, averaged over query tokens; a map
    # whose scores overflow is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        masses = [
            np.take_along_axis(attention_map(arm_tokens, arm_idents, id_model.attention), interests[fids, None, :],
                               axis=-1).sum(axis=-1).mean(axis=-1)
            for arm_tokens, arm_idents in zip(zs.reshape(2, len(items), cfg.latent_tokens, cfg.token_dim),
                                              (None, item_idents))
        ]
    if not all(np.isfinite(a).all() for a in (losses, ffcs, *masses)):
        raise EvaluationError("sampling gave a non-finite attribute score or attention mass "
                              f"(guidance scale {cfg.guidance_scale!r})")
    extras = {}
    others = np.ones(dists.shape[1:], dtype=bool)
    others[rows, fids] = False
    # a tie with another face is a miss, so one face alone is always identified
    nearest_other = np.where(others, dists, np.inf).min(axis=-1)
    for arm, arm_losses, arm_ffcs, nearest, arm_cosines, mass in zip(
            ("base", "id"), losses, ffcs, nearest_other, cosines, masses):
        extras[f"mean_ffc_{arm}"], extras[f"mean_mass_{arm}"] = float(np.mean(arm_ffcs)), float(np.mean(mass))
        extras[f"ident_rate_{arm}"] = float(np.mean(arm_losses < nearest))
        extras[f"mean_ffc_others_{arm}"] = float(np.mean(arm_cosines[others])) if len(faces) > 1 else math.nan
    diffs = ffcs[1] - ffcs[0]
    extras["paired_se"] = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else math.nan
    extras["id_wins"] = int(np.sum(diffs > 0.0))
    return ExperimentReport(("BASE", "ID"), [(fid, 0.0, seed) for fid, seed in items], losses, ffcs, extras)
