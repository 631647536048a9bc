"""Command-line front end.

Commands
    render           draw a synthetic face, write PPM + attribute CSV
    stylize          apply the graffiti operator, report attribute drift
    diffuse          run the guided sampling loop, write the decoded PPM
    train            fit the toy denoiser; with --lora, fit adapters and save them
    ablate-order     sweep both composition orders, write the report CSV
    ablate-attention compare identity-augmented vs baseline attention arms
    ffc              cosine similarity of two embedding CSV files
    attn-map         export a post-softmax attention matrix as CSV

Each command parses its flags, calls one public function of the package
(``diffuse`` calls ``pipeline.diffuse``, ``attn-map``
``pipeline.face_attention_map``) and writes what it returns.

Common flags: ``--seed``, ``--out-dir`` and ``--config`` (a JSON file with
PipelineConfig keys). The config is resolved once: file values, then flag
values over them, then the seed (``--seed``, else the file's, else env
CRAFT_SEED, else 0). Every file value is type-checked, but only the resolved
config is range-checked, so a file value that a flag overrides need not be
valid on its own. A command has flags only for the config keys it reads:
render ``--image-size``; stylize ``--image-size --style-intensity``; attn-map
``--image-size --latent-tokens --token-dim``; ablate-attention those,
``--cond-dim`` and ``--steps --window --guidance-scale --subject-guidance``;
diffuse those and ``--style-intensity``; train the model flags (attn-map's
and ``--cond-dim``) and ``--steps --window --lora-rank --lora-alpha``;
ablate-order ``--image-size``; ffc none. A config file sets every key for
every command. ``--face-id`` must be below MAX_FACES (10000), ``--faces`` at
most MAX_FACES, ``--jobs`` at most MAX_JOBS (64), ``--sweep-seeds`` at most
MAX_SWEEP_SEEDS (30), ``--arm-seeds`` at most MAX_ARM_SEEDS (250),
``--train-steps`` at most MAX_TRAIN_STEPS (20000) and ``--intensities`` at
most MAX_INTENSITIES (100) values, an ablate-order grid (faces x
intensities x sweep seeds) at most MAX_ORDER_CELLS (300000) cells, and an
ablate-attention sampling batch (4 x faces x arm seeds x latent_tokens**2
attention scores) at most MAX_ATTENTION_SCORES (16777216). Whether set by a
flag or a config file, ``steps`` must be at most pipeline.MAX_STEPS (1000),
``cond_dim`` at most pipeline.MAX_COND_DIM (1024), ``token_dim`` at most
pipeline.MAX_TOKEN_DIM (1024), ``latent_tokens`` at most
pipeline.MAX_LATENT_TOKENS (256), ``lora_rank`` at most
pipeline.MAX_LORA_RANK (640), and the codec's
2*image_size**2*latent_tokens*token_dim elements at most
pipeline.MAX_CODEC_ELEMENTS (8388608), for every command; ``train --lora``
also takes a ``lora_rank`` of at most ``token_dim``. All files are written
atomically (temp file + rename), so failures never leave partial outputs.

Config file schema (JSON object; all keys optional; a value of the wrong JSON
type, such as ``"10"`` for ``steps``, is a usage error):
    guidance_scale, subject_guidance, style_intensity, steps,
    composition_window, lora_rank, lora_alpha, seed, image_size,
    latent_tokens, token_dim, cond_dim

Adapter CSV schema (written by ``train --lora``, readable by
``craftfaces.lora.load_adapters``): header
``target,factor,row,col,value,alpha,rank``; one row per factor entry,
factor A is (d x r), factor B is (r x k).

Exit codes: 0 success, 2 usage or I/O failure, 3 hard assertion failure
(a sweep cell violating the composition-order inequality).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import CompositionOrderError, ConfigError, CraftError, InputError
from .facegen import (
    ATTRIBUTE_NAMES,
    StyleOp,
    face_grid,
    graffiti_stylize,
    render_face,
    write_ppm,
)
from .identity import attr_loss, extract_attributes, ffc
from .lora import save_adapters
from .numerics import RngStream
from .pipeline import (
    DEFAULT_PROMPT,
    PipelineConfig,
    ablate_attention,
    ablate_order,
    diffuse,
    face_attention_map,
    train_toy_denoiser,
)

USAGE_EXIT = 2
IO_EXIT = 2
ASSERTION_EXIT = 3
# 100x the 100-face grid of criterion 1 and the ablate-order default; a face
# grid past it is refused before any allocation
MAX_FACES = 10_000
# 16x the largest --jobs criterion 9 runs (4); ablate_order starts at most one
# worker per face below it
MAX_JOBS = 64
# 10x criterion 1's 3 sweep seeds and 10 intensities (its 0.1 grid over (0, 1]
# refined to 0.01); both are checked while parsing, before either axis is built
MAX_SWEEP_SEEDS = 30
MAX_INTENSITIES = 100
# 100x criterion 1's 3000 cells (100 faces x 10 intensities x 3 seeds), which
# is MAX_SWEEP_SEEDS x MAX_INTENSITIES at criterion 1's 100 faces; the per-axis
# bounds alone let the product reach 3e7 cells, two report rows each
MAX_ORDER_CELLS = 300_000
# 10x criterion 8's 25 sampling seeds per face, and 10x the 2000 training
# steps of the ablate-attention default, which bounds train's as well
MAX_ARM_SEEDS = 250
MAX_TRAIN_STEPS = 20_000
# 128 MiB of float64 attention scores in an ablate-attention sampling batch:
# 4 (n, n) maps per (face, seed) pair, one per arm and guidance branch, with n
# latent tokens; 82x criterion 8's 204,800 (8 faces x 25 seeds x 4 x 16**2)
MAX_ATTENTION_SCORES = 2**24

# the type of each PipelineConfig field a flag can set, all but seed (its own
# flag, with an env fallback); each command takes flags for the fields its
# code path reads (module docstring)
_CONFIG_FLAGS = {
    name: {"int": int, "float": float}[f.type]
    for name, f in PipelineConfig.__dataclass_fields__.items()
    if name != "seed"
}
# the attention map reads no conditioning: make_denoiser draws cond_w after every attention weight
_SHAPE = ("image_size", "latent_tokens", "token_dim")
_MODEL = (*_SHAPE, "cond_dim")
_SAMPLING = ("steps", "composition_window", "guidance_scale", "subject_guidance")


@dataclass
class Command:
    name: str
    args: argparse.Namespace
    config: PipelineConfig


def _int_in(low: int, high: int):
    """The type of an integer flag in [low, high]."""

    def integer(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {value}")
        return value

    return integer


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers, at most MAX_INTENSITIES of them, counted
    before any is split off; argparse turns a ValueError into a usage error."""
    count = text.count(",") + 1
    if count > MAX_INTENSITIES:
        raise argparse.ArgumentTypeError(f"at most {MAX_INTENSITIES} values, got {count}")
    return tuple(float(v) for v in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="craftfaces", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *keys):
        p.add_argument("--seed", type=int, default=None, help="master seed (env CRAFT_SEED fallback)")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--config", default=None, help="JSON config file")
        for key in keys:
            flag = "--window" if key == "composition_window" else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=_CONFIG_FLAGS[key], default=None)
        return p

    p = common(sub.add_parser("render", help="render a synthetic face"), "image_size")
    p.add_argument("--face-id", type=_int_in(0, MAX_FACES - 1), default=0)

    p = common(sub.add_parser("stylize", help="stylize a rendered face"), "image_size", "style_intensity")
    p.add_argument("--face-id", type=_int_in(0, MAX_FACES - 1), default=0)

    p = common(sub.add_parser("diffuse", help="run the guided sampling loop"), *_MODEL, *_SAMPLING,
               "style_intensity")
    p.add_argument("--face-id", type=_int_in(0, MAX_FACES - 1), default=0)
    p.add_argument("--prompt", default=DEFAULT_PROMPT)

    p = common(sub.add_parser("train", help="train the toy denoiser"), *_MODEL, "steps",
               "composition_window", "lora_rank", "lora_alpha")
    p.add_argument("--faces", type=_int_in(1, MAX_FACES), default=4)
    p.add_argument("--train-steps", type=_int_in(1, MAX_TRAIN_STEPS), default=200)
    p.add_argument("--lora", action="store_true", help="train LoRA adapters over a frozen base")

    p = common(sub.add_parser("ablate-order", help="sweep both composition orders"), "image_size")
    p.add_argument("--faces", type=_int_in(1, MAX_FACES), default=100)
    p.add_argument("--intensities", type=_float_list, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--sweep-seeds", type=_int_in(1, MAX_SWEEP_SEEDS), default=1, help="seeds per cell")
    p.add_argument("--jobs", type=_int_in(1, MAX_JOBS), default=1)

    p = common(sub.add_parser("ablate-attention", help="identity vs baseline attention arms"), *_MODEL,
               *_SAMPLING)
    p.add_argument("--faces", type=_int_in(1, MAX_FACES), default=8)
    p.add_argument("--arm-seeds", type=_int_in(1, MAX_ARM_SEEDS), default=25, help="sampling seeds per face")
    p.add_argument("--train-steps", type=_int_in(1, MAX_TRAIN_STEPS), default=2000)

    p = common(sub.add_parser("ffc", help="cosine similarity of two embedding CSVs"))
    p.add_argument("emb1")
    p.add_argument("emb2")

    p = common(sub.add_parser("attn-map", help="export an attention matrix CSV"), *_SHAPE)
    p.add_argument("--face-id", type=_int_in(0, MAX_FACES - 1), default=0)
    p.add_argument("--with-identity", action="store_true")

    return parser


def parse(argv) -> Command:
    """Resolve argv into a validated Command: flag values override config
    file values, which override defaults (module docstring)."""
    args = _build_parser().parse_args(argv)
    if args.command == "ablate-order":
        cells = args.faces * len(args.intensities) * args.sweep_seeds
        if cells > MAX_ORDER_CELLS:
            raise ConfigError(
                f"ablate-order grid of {args.faces} faces x {len(args.intensities)} intensities x "
                f"{args.sweep_seeds} sweep seeds = {cells} cells exceeds MAX_ORDER_CELLS ({MAX_ORDER_CELLS})"
            )
    file_values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        # ValueError: bad UTF-8 or JSON, or an integer past Python's digit limit
        except (OSError, ValueError, RecursionError) as exc:
            raise CraftError(f"unreadable config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise CraftError(f"config file {args.config} must hold a JSON object")
    overrides = {k: getattr(args, k) for k in _CONFIG_FLAGS if getattr(args, k, None) is not None}
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif "seed" not in file_values:
        env_seed = os.environ.get("CRAFT_SEED", "0")
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"CRAFT_SEED must be an integer, got {env_seed!r}") from None
    config = PipelineConfig.from_dict(file_values, **overrides)
    if args.command == "ablate-attention":
        scores = 4 * args.faces * args.arm_seeds * config.latent_tokens**2
        if scores > MAX_ATTENTION_SCORES:
            raise ConfigError(
                f"ablate-attention batch of {args.faces} faces x {args.arm_seeds} arm seeds at "
                f"{config.latent_tokens} latent tokens holds {scores} attention scores (4 x faces x "
                f"arm seeds x latent_tokens**2), which exceeds MAX_ATTENTION_SCORES ({MAX_ATTENTION_SCORES})"
            )
    return Command(name=args.command, args=args, config=config)


def _atomic_write(path, write_fn) -> None:
    """Write via temp file + rename so failures leave no partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-craftfaces-")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, rows) -> None:
    """Write ``rows`` of cells as CSV; a Python float cell is written as its
    repr, which reads back to the same float."""

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    _atomic_write(path, write)


def _read_vector_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            cells = np.array([float(c) for row in csv.reader(fh) for c in row if c.strip()])
    except (ValueError, csv.Error) as exc:  # csv.Error: a field past csv.field_size_limit()
        raise InputError(f"{path}: not a numeric vector CSV: {exc}") from None
    if not cells.size:
        raise InputError(f"{path}: no numeric cell")
    if not np.all(np.isfinite(cells)):
        raise InputError(f"{path}: non-finite cell in vector CSV")
    return cells


def _print_header(cmd: Command) -> None:
    print(f"# config {json.dumps(cmd.config.to_dict(), sort_keys=True)}")


def _face(cmd: Command) -> np.ndarray:
    """Render face ``--face-id`` of the seed's face grid."""
    faces = face_grid(cmd.args.face_id + 1, seed=cmd.config.seed)
    return render_face(faces[cmd.args.face_id], cmd.config.image_size)


def _render(cmd: Command) -> None:
    face_id, img = cmd.args.face_id, _face(cmd)
    ppm = os.path.join(cmd.args.out_dir, f"face_{face_id}.ppm")
    _atomic_write(ppm, lambda tmp: write_ppm(tmp, img))
    attrs = os.path.join(cmd.args.out_dir, f"face_{face_id}_attrs.csv")
    _write_csv(attrs, [("attribute", "value"), *zip(ATTRIBUTE_NAMES, extract_attributes(img).tolist())])
    print(f"render: face {face_id} -> {ppm}")


def _stylize(cmd: Command) -> None:
    cfg, img = cmd.config, _face(cmd)
    styled = graffiti_stylize(img, StyleOp(intensity=cfg.style_intensity))
    ppm = os.path.join(cmd.args.out_dir, f"face_{cmd.args.face_id}_styled.ppm")
    _atomic_write(ppm, lambda tmp: write_ppm(tmp, styled))
    drift = attr_loss(styled, img)
    print(f"stylize: intensity={cfg.style_intensity} attr_drift={drift!r} -> {ppm}")


def _diffuse_face(cmd: Command) -> None:
    cfg, face_id = cmd.config, cmd.args.face_id
    out = diffuse(_face(cmd), cfg, cmd.args.prompt, RngStream(seed=cfg.seed).split("diffuse").split(face_id))
    ppm = os.path.join(cmd.args.out_dir, f"face_{face_id}_diffused.ppm")
    _atomic_write(ppm, lambda tmp: write_ppm(tmp, out))
    print(f"diffuse: steps={cfg.steps} window={cfg.composition_window} -> {ppm}")


def _train(cmd: Command) -> None:
    cfg, args = cmd.config, cmd.args
    faces = face_grid(args.faces, seed=cfg.seed)
    rng = RngStream(seed=cfg.seed).split("train")
    _, adapters = train_toy_denoiser(faces, cfg, rng, steps=args.train_steps, lora=args.lora)
    msg = f"train: steps={args.train_steps} lora={args.lora}"
    if adapters is not None:
        path = os.path.join(cmd.args.out_dir, "adapters.csv")
        _atomic_write(path, lambda tmp: save_adapters(tmp, adapters))
        msg += f" -> {path}"
    print(msg)


def _ablate_order(cmd: Command) -> None:
    cfg, args = cmd.config, cmd.args
    faces = face_grid(args.faces, seed=cfg.seed)
    seeds = tuple(cfg.seed + i for i in range(args.sweep_seeds))
    report = ablate_order(faces, cfg, sweeps=args.intensities, seeds=seeds, jobs=args.jobs)
    path = os.path.join(cmd.args.out_dir, "order_report.csv")
    _atomic_write(path, report.to_csv)
    e = report.extras
    print(
        f"ablate-order: cells={len(report.cells)} win_rate={e['win_rate']!r} "
        f"mean_loss_ps={e['mean_loss_ps']!r} mean_loss_sp={e['mean_loss_sp']!r} -> {path}"
    )


def _ablate_attention(cmd: Command) -> None:
    cfg, args = cmd.config, cmd.args
    faces = face_grid(args.faces, seed=cfg.seed)
    report = ablate_attention(faces, cfg, seeds=range(args.arm_seeds), train_steps=args.train_steps)
    path = os.path.join(cmd.args.out_dir, "attention_report.csv")
    _atomic_write(path, report.to_csv)
    e = report.extras
    print(
        f"ablate-attention: mean_ffc_id={e['mean_ffc_id']!r} "
        f"mean_ffc_base={e['mean_ffc_base']!r} mean_ffc_others_id={e['mean_ffc_others_id']!r} "
        f"mean_ffc_others_base={e['mean_ffc_others_base']!r} ident_rate_id={e['ident_rate_id']!r} "
        f"ident_rate_base={e['ident_rate_base']!r} mean_mass_id={e['mean_mass_id']!r} "
        f"mean_mass_base={e['mean_mass_base']!r} -> {path}"
    )


def _ffc(cmd: Command) -> None:
    print(f"{ffc(_read_vector_csv(cmd.args.emb1), _read_vector_csv(cmd.args.emb2))!r}")


def _attn_map(cmd: Command) -> None:
    path = os.path.join(cmd.args.out_dir, f"attn_map_{cmd.args.face_id}.csv")
    _write_csv(path, face_attention_map(_face(cmd), cmd.config, cmd.args.with_identity).tolist())
    print(f"attn-map: identity={cmd.args.with_identity} -> {path}")


_COMMANDS = {
    "render": _render,
    "stylize": _stylize,
    "diffuse": _diffuse_face,
    "train": _train,
    "ablate-order": _ablate_order,
    "ablate-attention": _ablate_attention,
    "ffc": _ffc,
    "attn-map": _attn_map,
}


def execute(cmd: Command) -> int:
    """Dispatch a parsed command; returns the process exit code."""
    os.makedirs(cmd.args.out_dir, exist_ok=True)
    _print_header(cmd)
    _COMMANDS[cmd.name](cmd)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return execute(parse(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except CompositionOrderError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return ASSERTION_EXIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_EXIT
    except CraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
