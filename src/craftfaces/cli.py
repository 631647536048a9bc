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

Common flags: ``--seed`` (fallback: env CRAFT_SEED, then 0), ``--out-dir``,
``--config`` (JSON file with PipelineConfig keys; explicit flags override
file values). All files are written atomically (temp file + rename), so
failures never leave partial outputs.

Config file schema (JSON object; all keys optional; a value of the wrong JSON
type, such as ``"10"`` for ``steps``, is a usage error):
    guidance_scale, subject_guidance, style_intensity, steps,
    composition_window, lora_rank, lora_alpha, seed, image_size,
    latent_tokens, token_dim, cond_dim, use_diffusion

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
from dataclasses import dataclass, replace

import numpy as np

from .attention import attention_map
from .diffusion import encode
from .errors import CompositionOrderError, ConfigError, CraftError, InputError
from .facegen import (
    ATTRIBUTE_NAMES,
    StyleOp,
    embed_prompt,
    face_grid,
    graffiti_stylize,
    render_face,
    write_ppm,
)
from .identity import attr_loss, attribute_embedding, extract_attributes, ffc
from .lora import save_adapters
from .numerics import RngStream
from .pipeline import (
    PipelineConfig,
    ablate_attention,
    ablate_order,
    train_toy_denoiser,
    _diffuse,
    _make_runtime,
)

USAGE_EXIT = 2
IO_EXIT = 2
ASSERTION_EXIT = 3

# a flag per PipelineConfig field, but seed (it has its own flag, with an
# env fallback) and use_diffusion (set in a config file only)
_CONFIG_FLAGS = {
    name: {"int": int, "float": float}[f.type]
    for name, f in PipelineConfig.__dataclass_fields__.items()
    if name not in ("seed", "use_diffusion")
}


@dataclass
class Command:
    name: str
    args: argparse.Namespace
    config: PipelineConfig


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers; argparse turns a ValueError into a usage error."""
    return tuple(float(v) for v in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="craftfaces", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (env CRAFT_SEED fallback)")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--config", default=None, help="JSON config file")
        for key, typ in _CONFIG_FLAGS.items():
            flag = "--window" if key == "composition_window" else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=typ, default=None)
        return p

    p = common(sub.add_parser("render", help="render a synthetic face"))
    p.add_argument("--face-id", type=_nonnegative_int, default=0)

    p = common(sub.add_parser("stylize", help="stylize a rendered face"))
    p.add_argument("--face-id", type=_nonnegative_int, default=0)
    p.add_argument("--intensity", type=float, default=None)

    p = common(sub.add_parser("diffuse", help="run the guided sampling loop"))
    p.add_argument("--face-id", type=_nonnegative_int, default=0)
    p.add_argument("--prompt", default="graffiti portrait guitarist pose")

    p = common(sub.add_parser("train", help="train the toy denoiser"))
    p.add_argument("--faces", type=int, default=4)
    p.add_argument("--train-steps", type=_positive_int, default=200)
    p.add_argument("--lora", action="store_true", help="train LoRA adapters over a frozen base")

    p = common(sub.add_parser("ablate-order", help="sweep both composition orders"))
    p.add_argument("--faces", type=int, default=100)
    p.add_argument("--intensities", type=_float_list, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--sweep-seeds", type=_positive_int, default=1, help="seeds per cell")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--timing", action="store_true", help="write measured ms into the report")

    p = common(sub.add_parser("ablate-attention", help="identity vs baseline attention arms"))
    p.add_argument("--faces", type=int, default=8)
    p.add_argument("--arm-seeds", type=_positive_int, default=25, help="sampling seeds per face")
    p.add_argument("--train-steps", type=_positive_int, default=2000)
    p.add_argument("--timing", action="store_true")

    p = common(sub.add_parser("ffc", help="cosine similarity of two embedding CSVs"))
    p.add_argument("emb1")
    p.add_argument("emb2")

    p = common(sub.add_parser("attn-map", help="export an attention matrix CSV"))
    p.add_argument("--face-id", type=_nonnegative_int, default=0)
    p.add_argument("--with-identity", action="store_true")

    return parser


def parse(argv) -> Command:
    """Resolve argv into a validated Command; flag values override config
    file values, which override defaults."""
    args = _build_parser().parse_args(argv)
    file_values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CraftError(f"unreadable config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise CraftError(f"config file {args.config} must hold a JSON object")
    cfg = PipelineConfig.from_dict(dict(file_values))
    overrides = {k: getattr(args, k) for k in _CONFIG_FLAGS if getattr(args, k, None) is not None}
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif "seed" not in file_values:
        env_seed = os.environ.get("CRAFT_SEED", "0")
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"CRAFT_SEED must be an integer, got {env_seed!r}") from None
    if getattr(args, "intensity", None) is not None:
        overrides["style_intensity"] = args.intensity
    if overrides:
        cfg = replace(cfg, **overrides)
    return Command(name=args.command, args=args, config=cfg)


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


def _write_attrs_csv(path, names, values) -> None:
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["attribute", "value"])
            for n, v in zip(names, values):
                w.writerow([n, repr(float(v))])

    _atomic_write(path, write)


def _write_matrix_csv(path, matrix) -> None:
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in np.atleast_2d(matrix):
                w.writerow([repr(float(v)) for v in row])

    _atomic_write(path, write)


def _read_vector_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            cells = np.array([float(c) for row in csv.reader(fh) for c in row if c.strip()])
    except ValueError as exc:
        raise InputError(f"{path}: not a numeric vector CSV: {exc}") from None
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
    _write_attrs_csv(attrs, ATTRIBUTE_NAMES, extract_attributes(img))
    print(f"render: face {face_id} -> {ppm}")


def _stylize(cmd: Command) -> None:
    cfg, img = cmd.config, _face(cmd)
    styled = graffiti_stylize(img, StyleOp(intensity=cfg.style_intensity))
    ppm = os.path.join(cmd.args.out_dir, f"face_{cmd.args.face_id}_styled.ppm")
    _atomic_write(ppm, lambda tmp: write_ppm(tmp, styled))
    drift = attr_loss(styled, img)
    print(f"stylize: intensity={cfg.style_intensity} attr_drift={drift!r} -> {ppm}")


def _diffuse_face(cmd: Command) -> None:
    cfg, face_id, img = cmd.config, cmd.args.face_id, _face(cmd)
    runtime = _make_runtime(cfg)
    styled = graffiti_stylize(img, StyleOp(intensity=cfg.style_intensity))
    model = runtime.model.with_identity(attribute_embedding(extract_attributes(img)))
    rng = RngStream(seed=cfg.seed).split("diffuse").split(face_id)
    out = _diffuse(styled, embed_prompt(cmd.args.prompt, cfg.cond_dim), cfg, runtime, model, rng)
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
    _atomic_write(path, lambda tmp: report.to_csv(tmp, include_timing=args.timing))
    e = report.extras
    print(
        f"ablate-order: cells={len(report.rows) // 2} win_rate={e['win_rate']!r} "
        f"mean_loss_ps={e['mean_loss_ps']!r} mean_loss_sp={e['mean_loss_sp']!r} -> {path}"
    )


def _ablate_attention(cmd: Command) -> None:
    cfg, args = cmd.config, cmd.args
    faces = face_grid(args.faces, seed=cfg.seed)
    report = ablate_attention(faces, cfg, seeds=range(args.arm_seeds), train_steps=args.train_steps)
    path = os.path.join(cmd.args.out_dir, "attention_report.csv")
    _atomic_write(path, lambda tmp: report.to_csv(tmp, include_timing=args.timing))
    e = report.extras
    print(
        f"ablate-attention: mean_ffc_id={e['mean_ffc_id']!r} "
        f"mean_ffc_base={e['mean_ffc_base']!r} mean_mass_id={e['mean_mass_id']!r} "
        f"mean_mass_base={e['mean_mass_base']!r} -> {path}"
    )


def _ffc(cmd: Command) -> None:
    print(f"{ffc(_read_vector_csv(cmd.args.emb1), _read_vector_csv(cmd.args.emb2))!r}")


def _attn_map(cmd: Command) -> None:
    cfg, img = cmd.config, _face(cmd)
    runtime = _make_runtime(cfg)
    tokens = encode(img, runtime.codec).reshape(cfg.latent_tokens, cfg.token_dim)
    ident = attribute_embedding(extract_attributes(img)) if cmd.args.with_identity else None
    path = os.path.join(cmd.args.out_dir, f"attn_map_{cmd.args.face_id}.csv")
    _write_matrix_csv(path, attention_map(tokens, ident, runtime.model.attention))
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
        cmd = parse(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except CraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return execute(cmd)
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
