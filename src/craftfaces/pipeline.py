"""End-to-end orchestration: the style-first flow, its reversed ablation,
attention-arm comparison, toy denoiser training, and CSV reporting.

Everything here is a pure function of (inputs, config, seed): all random
streams derive from ``PipelineConfig.seed``, sweep cells own split
streams, and report rows are sorted by a deterministic key so the output
does not depend on worker count or completion order.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

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
from .errors import CompositionOrderError, ConfigError, TrainingError
from .facegen import (
    FaceParams, StyleOp, _StyleTerms, _stylize, embed_prompt, graffiti_stylize, render_face,
)
from .identity import (
    Projector,
    _project,
    attribute_embedding,
    extract_attributes,
    ffc,
)
from .lora import LoRATrainConfig, train_lora
from .numerics import RngStream, tensor

__all__ = [
    "PipelineConfig",
    "ReportRow",
    "ExperimentReport",
    "REPORT_COLUMNS",
    "run_style_first",
    "run_identity_first",
    "ablate_order",
    "ablate_attention",
    "train_toy_denoiser",
]

DEFAULT_PROMPT = "graffiti portrait guitarist pose"
SGD_BATCH = 16  # (face, t, eps) triples per toy-denoiser SGD step

_VALUE_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


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
    use_diffusion: bool = False

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not -(2**127) <= self.seed < 2**127:  # the 128-bit range RngStream hashes
            raise ConfigError(f"seed must lie in [-2**127, 2**127 - 1], got {self.seed}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
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
        if self.lora_rank < 1:
            raise ConfigError(f"lora_rank must be >= 1, got {self.lora_rank}")
        if self.lora_alpha <= 0:
            raise ConfigError(f"lora_alpha must be > 0, got {self.lora_alpha}")
        if self.image_size < 32:
            raise ConfigError(f"image_size must be >= 32, got {self.image_size}")
        if self.latent_tokens < 1 or self.token_dim < 1 or self.cond_dim < 1:
            raise ConfigError("latent_tokens, token_dim, cond_dim must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Build from JSON-style values: an int field takes an int, a float
        field an int or a float, a bool field a bool."""
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            kind = fields[key].type  # a string, under postponed annotations
            if type(value) not in _VALUE_TYPES[kind]:
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        return cls(**d)


REPORT_COLUMNS = ("face_id", "order", "intensity", "attr_loss", "ffc", "seed", "ms")


@dataclass(frozen=True)
class ReportRow:
    face_id: int
    order: str
    intensity: float
    attr_loss: float
    ffc: float
    seed: int
    ms: float


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=lambda r: (r.face_id, r.intensity, r.seed, r.order))

    def mean_loss(self, order: str) -> float:
        vals = [r.attr_loss for r in self.rows if r.order == order]
        return float(np.mean(vals)) if vals else float("nan")

    def mean_ffc(self, order: str) -> float:
        vals = [r.ffc for r in self.rows if r.order == order]
        return float(np.mean(vals)) if vals else float("nan")

    def win_rate(self) -> float:
        """Fraction of (face, intensity, seed) cells where the style-first
        order's (PS) loss is <= the reversed order's (SP)."""
        by_cell: dict[tuple, dict[str, float]] = {}
        for r in self.rows:
            by_cell.setdefault((r.face_id, r.intensity, r.seed), {})[r.order] = r.attr_loss
        pairs = [c for c in by_cell.values() if "PS" in c and "SP" in c]
        if not pairs:
            return float("nan")
        wins = sum(1 for c in pairs if c["PS"] <= c["SP"])
        return wins / len(pairs)

    def to_csv(self, path, include_timing: bool = False) -> None:
        """Write the report. Wall times are volatile, so the ms column is
        zeroed unless timing output is explicitly requested; reports are
        otherwise byte-identical for identical (config, seed)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(REPORT_COLUMNS)
            for r in self.sorted_rows():
                ms = int(round(r.ms)) if include_timing else 0
                w.writerow(
                    [r.face_id, r.order, repr(r.intensity), repr(r.attr_loss), repr(r.ffc), r.seed, ms]
                )


@dataclass(frozen=True)
class _Runtime:
    sched: NoiseSchedule
    codec: LatentCodec
    model: DenoiserModel


def _make_runtime(cfg: PipelineConfig) -> _Runtime:
    rng = RngStream(seed=cfg.seed)
    latent_size = cfg.latent_tokens * cfg.token_dim
    codec = make_codec((2, cfg.image_size, cfg.image_size), latent_size, rng.split("codec"))
    model = make_denoiser(
        cfg.latent_tokens, cfg.token_dim, cfg.cond_dim, 6, rng.split("denoiser")
    )
    return _Runtime(sched=build_schedule(cfg.steps), codec=codec, model=model)


def _diffuse(
    styled: np.ndarray,
    cond: np.ndarray,
    cfg: PipelineConfig,
    runtime: _Runtime,
    model: DenoiserModel,
    rng: RngStream,
) -> np.ndarray:
    guide = encode(styled, runtime.codec) if cfg.composition_window > 0 else None
    z = sample(
        model,
        cond,
        runtime.sched,
        window=cfg.composition_window,
        guide=guide,
        rng=rng,
        subject_guidance=cfg.subject_guidance,
        guidance_scale=cfg.guidance_scale,
    )
    return np.clip(decode(z, runtime.codec), 0.0, 1.0)


@dataclass
class _Face:
    """One input face and the per-face work both orders share, each part
    done at most once however many cells use it."""

    img: np.ndarray
    ref: np.ndarray
    projector: Projector

    @classmethod
    def of(cls, img: np.ndarray, projector: Projector | None = None) -> "_Face":
        img = tensor(img)
        ref = extract_attributes(img)
        return cls(img, ref, projector or Projector(reference_attrs=ref))

    @cached_property
    def terms(self) -> _StyleTerms:
        """The jitter units, warped geometry and chroma Laplacian of the input."""
        return _StyleTerms.of(self.img)

    @cached_property
    def projected(self) -> np.ndarray | None:
        """The projected input that the reversed order stylizes, or None
        when projecting was a bitwise no-op, as it always is under the
        default projector, whose reference is the image's own attributes."""
        out = self.projector.apply(self.img)
        return None if out.tobytes() == self.img.tobytes() else out

    def stylized(self, cfg: PipelineConfig) -> np.ndarray:
        return _stylize(self.img, StyleOp(intensity=cfg.style_intensity), self.terms)


def _row(order: str, out: np.ndarray, face: _Face, cfg: PipelineConfig, face_id: int, t0: float,
         attrs: np.ndarray | None = None):
    """Score one output. Its attributes (``attrs``, if the caller has them
    already) are extracted once and feed both the loss (the bits of
    ``attr_loss(out, face.img)``) and the FFC."""
    attrs = extract_attributes(out) if attrs is None else attrs
    d = attrs - face.ref
    return ReportRow(
        face_id=face_id, order=order, intensity=cfg.style_intensity,
        attr_loss=float(d @ d), ffc=ffc(attrs, face.ref), seed=cfg.seed,
        ms=(time.perf_counter() - t0) * 1e3,
    )


def _style_first(face: _Face, styled: np.ndarray, prompt: str, cfg: PipelineConfig, face_id: int,
                 t0: float, runtime: _Runtime | None = None, styled_attrs: np.ndarray | None = None):
    """The style-first order after its stylize: the optional guided denoiser
    pass, then the projection, which reuses ``styled_attrs`` (the attributes
    of ``styled``, if the caller has them) when nothing came in between."""
    if cfg.use_diffusion:
        runtime = runtime or _make_runtime(cfg)
        m = runtime.model.with_identity(attribute_embedding(face.ref))
        rng = RngStream(seed=cfg.seed).split("style-first").split(face_id)
        styled = _diffuse(styled, embed_prompt(prompt, cfg.cond_dim), cfg, runtime, m, rng)
        styled_attrs = None
    out = _project(styled, face.projector.reference_attrs, styled_attrs)
    return out, _row("PS", out, face, cfg, face_id, t0)


def _identity_first(face: _Face, cfg: PipelineConfig, face_id: int, t0: float,
                    styled: np.ndarray | None = None, styled_attrs: np.ndarray | None = None):
    """The reversed order: stylize the projected input. Stylization is a
    pure function of (image, op), so when projecting was a no-op the output
    is the stylized input: ``styled``, with its attributes ``styled_attrs``,
    if the caller has them already."""
    if face.projected is not None:
        out, attrs = graffiti_stylize(face.projected, StyleOp(intensity=cfg.style_intensity)), None
    elif styled is None:
        out, attrs = face.stylized(cfg), None
    else:
        out, attrs = styled, styled_attrs
    return out, _row("SP", out, face, cfg, face_id, t0, attrs)


def run_style_first(
    i_img: np.ndarray,
    prompt: str,
    cfg: PipelineConfig,
    face_id: int = 0,
    projector: Projector | None = None,
) -> tuple[np.ndarray, ReportRow]:
    """Stylize, optionally run the guided denoiser pass, then restore the
    reference attributes. The projection runs last, so the output carries
    the input's attributes whatever the middle stages did."""
    t0 = time.perf_counter()
    face = _Face.of(i_img, projector)
    return _style_first(face, face.stylized(cfg), prompt, cfg, face_id, t0)


def run_identity_first(
    i_img: np.ndarray,
    prompt: str,
    cfg: PipelineConfig,
    face_id: int = 0,
    projector: Projector | None = None,
) -> tuple[np.ndarray, ReportRow]:
    """Reversed order: restore attributes first (a no-op on a clean
    render), then stylize. Whatever drift the stylizer causes stays in the
    output."""
    t0 = time.perf_counter()
    return _identity_first(_Face.of(i_img, projector), cfg, face_id, t0)


def _order_cell(face: _Face, cfg: PipelineConfig, face_id: int, params: FaceParams,
                runtime: _Runtime | None) -> list[ReportRow]:
    """Both orders on one (face, intensity, seed) cell, sharing one stylize
    of the input and, when projecting the input was a no-op, one extraction
    of its attributes: the reversed order's score and the style-first
    projection both read them. Each row's ``ms`` is half that shared work
    plus its own order's remaining work."""
    t0 = time.perf_counter()
    styled = face.stylized(cfg)
    attrs = extract_attributes(styled) if face.projected is None else None
    half = (time.perf_counter() - t0) / 2
    _, ps = _style_first(face, styled, DEFAULT_PROMPT, cfg, face_id, time.perf_counter() - half,
                         runtime=runtime, styled_attrs=attrs)
    _, sp = _identity_first(face, cfg, face_id, time.perf_counter() - half, styled, attrs)
    if ps.attr_loss > sp.attr_loss:
        raise CompositionOrderError(
            "style-then-project lost to the reversed order: "
            f"face_id={face_id} intensity={cfg.style_intensity} seed={cfg.seed} "
            f"loss_ps={ps.attr_loss!r} loss_sp={sp.attr_loss!r} params={params}"
        )
    return [ps, sp]


def _order_seed(face: _Face, cfg: PipelineConfig, face_id: int, params: FaceParams,
                intensities: tuple[float, ...]) -> list[ReportRow]:
    """One face's cells at one seed. The runtime depends on the seed and the
    shapes, not on the intensity, so it is built once here and freed before
    the next seed's."""
    runtime = _make_runtime(cfg) if cfg.use_diffusion else None
    return [row for i in intensities
            for row in _order_cell(face, replace(cfg, style_intensity=i), face_id, params, runtime)]


def _order_face(args) -> list[ReportRow]:
    face_id, params, seed_cfgs, intensities = args
    face = _Face.of(render_face(params, seed_cfgs[0].image_size))
    face.terms, face.projected  # the per-face work, done before any cell's clock starts
    return [row for cfg in seed_cfgs
            for row in _order_seed(face, cfg, face_id, params, intensities)]


def ablate_order(
    faces: list[FaceParams],
    cfg: PipelineConfig,
    sweeps=None,
    seeds=None,
    jobs: int = 1,
) -> ExperimentReport:
    """Run both composition orders for every (face, intensity, seed) cell.

    Any cell where the style-first order has the larger attribute loss is
    a hard failure (CompositionOrderError carrying the offending case).
    Intensities and seeds must be distinct, so that no two cells are the same.

    Each face's reference attributes, stylize terms (jitter units, warped
    geometry, chroma Laplacian) and projected input are computed once,
    before any cell is timed, and each cell stylizes once for both orders
    (projecting a render first is a bitwise no-op); the rows have the bits
    of calling ``run_style_first`` and ``run_identity_first`` per cell.
    """
    if not faces:
        raise ConfigError("ablate_order needs a nonempty face grid")
    intensities = tuple(float(i) for i in (sweeps if sweeps is not None else np.arange(1, 11) / 10.0))
    seeds = tuple(int(s) for s in (seeds if seeds is not None else (cfg.seed,)))
    for name, axis in (("intensities", intensities), ("seeds", seeds)):
        if len(set(axis)) != len(axis):
            raise ConfigError(f"ablate_order {name} must be distinct, got {axis}")
    # every seed's config is validated here, before any cell is computed
    seed_cfgs = tuple(replace(cfg, seed=s) for s in seeds)
    tasks = [(fid, p, seed_cfgs, intensities) for fid, p in enumerate(faces)]
    report = ExperimentReport()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            for rows in ex.map(_order_face, tasks):
                report.rows.extend(rows)
    else:
        for task in tasks:
            report.rows.extend(_order_face(task))
    report.rows = report.sorted_rows()
    report.extras = {
        "mean_loss_ps": report.mean_loss("PS"),
        "mean_loss_sp": report.mean_loss("SP"),
        "win_rate": report.win_rate(),
    }
    return report


def _training_batch(faces, cfg: PipelineConfig, runtime: _Runtime, rng: RngStream):
    """Fixed batch of (noised latent, cond, noise) triples, two per face."""
    cond = embed_prompt(DEFAULT_PROMPT, cfg.cond_dim)
    batch = []
    for params in faces:
        x0 = encode(render_face(params, cfg.image_size), runtime.codec)
        for _ in range(2):
            t = int(rng.integers(1, cfg.steps + 1))
            eps = rng.normal(x0.shape)
            ab = runtime.sched.alpha_bar[t - 1]
            x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
            batch.append((x_t, cond, eps))
    return batch


def _sgd_train(
    model: DenoiserModel,
    faces,
    cfg: PipelineConfig,
    runtime: _Runtime,
    rng: RngStream,
    steps: int,
    lr: float,
    with_identity: bool,
    trained: tuple[str, ...] | None = None,
) -> DenoiserModel:
    """Noise-prediction SGD with a fresh (face, t, eps) batch every step
    and a linear decay to 10% of the initial rate. ``trained`` names the
    weights to update (default: all of them); the others stay as they are
    and are not differentiated. A loss or weight that stops being finite
    raises TrainingError."""
    cond = embed_prompt(DEFAULT_PROMPT, cfg.cond_dim)
    latents = np.stack([encode(render_face(p, cfg.image_size), runtime.codec) for p in faces])
    idents = np.stack([attribute_embedding(p.attributes()) for p in faces]) if with_identity else None
    params = model.params()
    # overflow only ever ends in a non-finite loss or weight, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            fidx = rng.integers(0, len(faces), (SGD_BATCH,))
            ts = rng.integers(1, cfg.steps + 1, (SGD_BATCH,))
            eps = np.stack([rng.normal(latents.shape[1:]) for _ in fidx])
            ab = runtime.sched.alpha_bar[ts - 1][:, None]
            x_t = np.sqrt(ab) * latents[fidx] + np.sqrt(1.0 - ab) * eps
            current = model.with_params(params).with_identity(None if idents is None else idents[fidx])
            loss, grads = _denoise_loss_and_grad(current, x_t, cond, eps, trained)
            if not np.isfinite(loss):
                raise TrainingError("toy denoiser training: loss became non-finite")
            rate = lr * (1.0 - 0.9 * i / steps)
            params = {**params, **{name: params[name] - rate * g for name, g in grads.items()}}
            if not all(np.isfinite(params[name]).all() for name in grads):
                raise TrainingError("toy denoiser training: parameters became non-finite")
    return model.with_params(params)


def train_toy_denoiser(
    faces: list[FaceParams],
    cfg: PipelineConfig,
    rng: RngStream,
    steps: int = 500,
    lr: float = 0.25,
    lora: bool = False,
):
    """Fit the toy denoiser to predict injected noise on face latents.

    Full mode runs SGD on all weights with analytic gradients; LoRA mode
    freezes the base model and trains rank-limited adapters on the
    attention matrices instead. Returns (model, adapters or None).
    """
    if not faces:
        raise ConfigError("train_toy_denoiser needs a nonempty face grid")
    runtime = _make_runtime(cfg)
    model = runtime.model

    if lora:
        data = _training_batch(faces, cfg, runtime, rng.split("batch"))
        lcfg = LoRATrainConfig(rank=cfg.lora_rank, alpha=cfg.lora_alpha, lr=lr, steps=steps)
        adapters = train_lora(model, data, lcfg, rng.split("lora"))
        return model, adapters
    return _sgd_train(model, faces, cfg, runtime, rng.split("sgd"), steps, lr, with_identity=False), None


def _face_tokens(guide: np.ndarray, n_tokens: int, token_dim: int) -> np.ndarray:
    """The quarter of the token indices (at least one) carrying the most
    guide-latent energy; the toy stand-in for 'tokens covering the face'."""
    norms = np.linalg.norm(guide.reshape(n_tokens, token_dim), axis=1)
    return np.sort(np.argsort(-norms)[: max(1, n_tokens // 4)])


def _attention_mass(
    model: DenoiserModel, latent: np.ndarray, identity: np.ndarray | None, tokens_of_interest: np.ndarray
) -> float:
    tokens = latent.reshape(model.n_tokens, model.token_dim)
    amap = attention_map(tokens, identity, model.attention)
    return float(amap[:, tokens_of_interest].sum(axis=1).mean())


def ablate_attention(
    faces: list[FaceParams],
    cfg: PipelineConfig,
    seeds=None,
    train_steps: int = 2000,
    base_steps: int = 1200,
) -> ExperimentReport:
    """Compare identity-augmented attention against the plain baseline.

    One base model is trained without identity information; the identity
    arm then keeps those weights frozen and trains only the zero-started
    identity blocks U_q/U_k with per-face embeddings, so the arms differ
    purely by the learned identity extension.

    Both arms are sampled in one batch on the identity model: first the
    baseline's (face, seed) trajectories with a zero identity embedding,
    which is plain attention on the shared base weights, then the identity
    arm's, in (face, seed) order. A (face, seed) pair names one stream
    object in both arms, which draws once per step for both rows, so the
    arms share their sampling noise by construction and every trajectory
    has the bits of sampling it alone. Decoding and scoring stay per
    trajectory. With timing on, a row's ``ms`` is the batched sampling
    time divided by the number of rows (two per trajectory pair), plus
    that row's own decode and scoring.

    ``extras`` holds each arm's mean FFC and attention mass, the standard
    error ``paired_se`` of the per-(face, seed) ID - BASE FFC differences
    (NaN for a single pair) and ``id_wins``, the number of pairs where the
    identity arm's FFC is the larger.
    """
    if not faces:
        raise ConfigError("ablate_attention needs a nonempty face grid")
    seeds = tuple(int(s) for s in (seeds if seeds is not None else range(20)))
    if not seeds:
        raise ConfigError("ablate_attention needs at least one seed")
    runtime = _make_runtime(cfg)
    a0 = runtime.model.attention
    start = runtime.model.with_attention(
        ExtendedAttentionWeights(base=a0.base, u_q=np.zeros_like(a0.u_q), u_k=np.zeros_like(a0.u_k))
    )
    trng = RngStream(seed=cfg.seed).split("attn-ablation")
    base_model = _sgd_train(
        start, faces, cfg, runtime, trng.split("base"), base_steps, 0.25, with_identity=False
    )
    id_model = _sgd_train(
        base_model, faces, cfg, runtime, trng.split("identity-blocks"), train_steps, 0.15,
        with_identity=True, trained=("u_q", "u_k"),
    )

    cond = embed_prompt(DEFAULT_PROMPT, cfg.cond_dim)
    refs, guides, interests, idents = [], [], [], []
    for params in faces:
        img = render_face(params, cfg.image_size)
        refs.append(extract_attributes(img))
        guides.append(encode(img, runtime.codec))
        interests.append(_face_tokens(guides[-1], cfg.latent_tokens, cfg.token_dim))
        idents.append(attribute_embedding(refs[-1]))
    items = [(fid, seed) for fid in range(len(faces)) for seed in seeds]
    streams = [RngStream(seed=seed).split("attn-sample").split(fid) for fid, seed in items]
    item_guides = np.array([guides[fid] for fid, _ in items])
    item_idents = np.array([idents[fid] for fid, _ in items])
    # the BASE rows (zero identity: plain attention), then the ID rows; the
    # two rows of a (face, seed) pair share its stream and so its noise
    t0 = time.perf_counter()
    zs = sample(
        id_model.with_identity(np.concatenate([np.zeros_like(item_idents), item_idents])),
        cond, runtime.sched,
        window=cfg.composition_window,
        guide=np.concatenate([item_guides, item_guides]),
        rng=streams + streams,
        subject_guidance=cfg.subject_guidance,
        guidance_scale=cfg.guidance_scale,
    )
    share = (time.perf_counter() - t0) / len(zs)
    arms = [("BASE", item, None) for item in items] + [("ID", *row) for row in zip(items, item_idents)]
    report = ExperimentReport()
    masses = {"ID": [], "BASE": []}
    for (order, (fid, seed), ident), z in zip(arms, zs):
        t1 = time.perf_counter()
        ref = refs[fid]
        attrs = extract_attributes(np.clip(decode(z, runtime.codec), 0.0, 1.0))
        masses[order].append(_attention_mass(id_model, z, ident, interests[fid]))
        report.rows.append(
            ReportRow(
                face_id=fid, order=order, intensity=cfg.style_intensity,
                attr_loss=float(np.sum((attrs - ref) ** 2)),
                ffc=ffc(attrs, ref), seed=seed,
                ms=(share + time.perf_counter() - t1) * 1e3,
            )
        )
    base_ffc, id_ffc = np.array([r.ffc for r in report.rows]).reshape(2, len(items))
    diffs = id_ffc - base_ffc
    report.rows = report.sorted_rows()
    report.extras = {
        "mean_ffc_id": report.mean_ffc("ID"),
        "mean_ffc_base": report.mean_ffc("BASE"),
        "mean_mass_id": float(np.mean(masses["ID"])),
        "mean_mass_base": float(np.mean(masses["BASE"])),
        "paired_se": float(np.std(diffs, ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else math.nan,
        "id_wins": int(np.sum(diffs > 0.0)),
    }
    return report
