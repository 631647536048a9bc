"""Layer boundaries the traced run instruments, and the per-layer metrics
computed from its spans.

Left unmeasured on purpose: ``style`` (no pipeline or CLI caller reaches
it), CLI argument parsing, and ``numerics.softmax_rows``/``tensor``, whose
cost is inside the ``attention.*`` spans.
"""

from __future__ import annotations

from craftfaces import attention, diffusion, facegen, identity, lora, pipeline
from craftfaces.numerics import RngStream
from craftfaces.diffusion import DenoiserModel
from tracer import Tracer, array_digest

ATTENTION_SPANS = (
    "attention.self_attention",
    "attention.identity_self_attention",
    "attention.cross_attention",
    "attention.attention_map",
)
RNG_KINDS = ("normal", "uniform", "integers")
CODEC_SPANS = ("diffusion.encode", "diffusion.decode")


def _img_digest(img, *args, **kwargs):
    return array_digest(img)


def _stylize_digest(img, op, *args, **kwargs):
    return array_digest(img), repr(op)


def trace_targets():
    """(functions, methods) for ``Tracer.installed``.

    ``embed_prompt`` and ``make_denoiser`` are traced so that their RNG
    draws are not mistaken for draws of the SGD loop, which runs directly
    inside ``ablate_attention``.
    """
    functions = [
        (attention, "self_attention", "attention.self_attention", None),
        (attention, "identity_self_attention", "attention.identity_self_attention", None),
        (attention, "cross_attention", "attention.cross_attention", None),
        (attention, "attention_map", "attention.attention_map", None),
        (diffusion, "reverse_step", "diffusion.reverse_step", None),
        (diffusion, "sample", "diffusion.sample", None),
        (diffusion, "make_codec", "diffusion.make_codec", None),
        (diffusion, "make_denoiser", "diffusion.make_denoiser", None),
        (diffusion, "encode", "diffusion.encode", None),
        (diffusion, "decode", "diffusion.decode", None),
        (lora, "apply_to_attention", "lora.apply_to_attention", None),
        (lora, "train_lora", "lora.train_lora", None),
        (facegen, "graffiti_stylize", "facegen.graffiti_stylize", _stylize_digest),
        (facegen, "image_hash", "facegen.image_hash", None),
        (facegen, "render_face", "facegen.render_face", None),
        (facegen, "draw_landmarks", "facegen.draw_landmarks", None),
        (facegen, "embed_prompt", "facegen.embed_prompt", None),
        (identity, "extract_attributes", "identity.extract_attributes", _img_digest),
        (identity, "project", "identity.project", None),
        (pipeline, "ablate_order", "pipeline.ablate_order", None),
        (pipeline, "ablate_attention", "pipeline.ablate_attention", None),
        (pipeline, "train_toy_denoiser", "pipeline.train_toy_denoiser", None),
    ]
    methods = [(RngStream, kind, f"numerics.rng.{kind}") for kind in RNG_KINDS]
    methods += [
        (DenoiserModel, "predict_noise", "diffusion.predict_noise"),
        (pipeline.ExperimentReport, "to_csv", "pipeline.to_csv"),
    ]
    return functions, methods


# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "numerics.rng.draws": "count",
    "numerics.rng.normal.draws": "count",
    "numerics.rng.uniform.draws": "count",
    "numerics.rng.integers.draws": "count",
    "numerics.rng.busy_s": "s",
    "numerics.rng.us_per_draw": "us",
    "attention.calls": "count",
    "attention.busy_s": "s",
    "diffusion.predict_noise.calls": "count",
    "diffusion.predict_noise.self_s": "s",
    "diffusion.reverse_step.calls": "count",
    "diffusion.sample.calls": "count",
    "diffusion.sample.busy_s": "s",
    "diffusion.sample.self_s": "s",
    "diffusion.make_codec.calls": "count",
    "diffusion.make_codec.busy_s": "s",
    "diffusion.codec.busy_s": "s",
    "lora.apply_to_attention.calls": "count",
    "lora.train_lora.busy_s": "s",
    "lora.train_lora.self_s": "s",
    "facegen.graffiti_stylize.calls": "count",
    "facegen.graffiti_stylize.self_s": "s",
    "facegen.graffiti_stylize.unique_ratio": "ratio",
    "facegen.image_hash.calls": "count",
    "facegen.image_hash.busy_s": "s",
    "facegen.render_face.busy_s": "s",
    "identity.extract_attributes.calls": "count",
    "identity.extract_attributes.busy_s": "s",
    "identity.extract_attributes.unique_ratio": "ratio",
    "identity.project.calls": "count",
    "identity.project.self_s": "s",
    "identity.project.redraw_ratio": "ratio",
    "pipeline.ablate_attention.self_s": "s",
    "pipeline.ablate_order.self_s": "s",
    "pipeline.to_csv.busy_s": "s",
    "trace.overhead_s": "s",
    "unit.count": "count",
    "unit.extract_attributes": "count",
    "unit.graffiti_stylize": "count",
    "unit.image_hash": "count",
    "unit.project": "count",
    "unit.rng_draws": "count",
    "unit.predict_noise": "count",
    "unit.reverse_step": "count",
    "unit.sample": "count",
    "unit.sample_normal_draws": "count",
    "unit.make_codec": "count",
    "unit.apply_to_attention": "count",
    "sgd_step.count": "count",
    "sgd_step.integer_draws": "count",
    "sgd_step.normal_draws": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(tr: Tracer, units: dict) -> dict:
    """Deterministic call counts and ratios of one traced run."""
    c = tr.calls
    draws = sum(c[f"numerics.rng.{k}"] for k in RNG_KINDS)
    n, steps = units["unit"], units.get("sgd_step", 0)
    sgd = "pipeline.ablate_attention"
    return {
        "numerics.rng.draws": draws,
        **{f"numerics.rng.{k}.draws": c[f"numerics.rng.{k}"] for k in RNG_KINDS},
        "attention.calls": sum(c[s] for s in ATTENTION_SPANS),
        "diffusion.predict_noise.calls": c["diffusion.predict_noise"],
        "diffusion.reverse_step.calls": c["diffusion.reverse_step"],
        "diffusion.sample.calls": c["diffusion.sample"],
        "diffusion.make_codec.calls": c["diffusion.make_codec"],
        "lora.apply_to_attention.calls": c["lora.apply_to_attention"],
        "facegen.graffiti_stylize.calls": c["facegen.graffiti_stylize"],
        "facegen.graffiti_stylize.unique_ratio": tr.unique_ratio("facegen.graffiti_stylize"),
        "facegen.image_hash.calls": c["facegen.image_hash"],
        "identity.extract_attributes.calls": c["identity.extract_attributes"],
        "identity.extract_attributes.unique_ratio": tr.unique_ratio("identity.extract_attributes"),
        "identity.project.calls": c["identity.project"],
        "identity.project.redraw_ratio": _ratio(
            tr.count_with_parent("facegen.draw_landmarks", "identity.project"), c["identity.project"]
        ),
        "unit.count": n,
        "unit.extract_attributes": _ratio(c["identity.extract_attributes"], n),
        "unit.graffiti_stylize": _ratio(c["facegen.graffiti_stylize"], n),
        "unit.image_hash": _ratio(c["facegen.image_hash"], n),
        "unit.project": _ratio(c["identity.project"], n),
        "unit.rng_draws": _ratio(draws, n),
        "unit.predict_noise": _ratio(c["diffusion.predict_noise"], n),
        "unit.reverse_step": _ratio(c["diffusion.reverse_step"], n),
        "unit.sample": _ratio(c["diffusion.sample"], n),
        "unit.sample_normal_draws": _ratio(tr.count_under("numerics.rng.normal", "diffusion.sample"), n),
        "unit.make_codec": _ratio(c["diffusion.make_codec"], n),
        "unit.apply_to_attention": _ratio(c["lora.apply_to_attention"], n),
        "sgd_step.count": steps,
        "sgd_step.integer_draws": _ratio(tr.count_with_parent("numerics.rng.integers", sgd), steps),
        "sgd_step.normal_draws": _ratio(tr.count_with_parent("numerics.rng.normal", sgd), steps),
    }


def layer_times(tr: Tracer) -> dict:
    """Busy and self seconds of one traced run (tracer cost removed)."""
    b, s = tr.busy, tr.self_time
    rng_busy = sum(b[f"numerics.rng.{k}"] for k in RNG_KINDS)
    draws = sum(tr.calls[f"numerics.rng.{k}"] for k in RNG_KINDS)
    return {
        "numerics.rng.busy_s": rng_busy,
        "numerics.rng.us_per_draw": _ratio(rng_busy * 1e6, draws),
        "attention.busy_s": sum(b[n] for n in ATTENTION_SPANS),
        "diffusion.predict_noise.self_s": s["diffusion.predict_noise"],
        "diffusion.sample.busy_s": b["diffusion.sample"],
        "diffusion.sample.self_s": s["diffusion.sample"],
        "diffusion.make_codec.busy_s": b["diffusion.make_codec"],
        "diffusion.codec.busy_s": sum(b[n] for n in CODEC_SPANS),
        "lora.train_lora.busy_s": b["lora.train_lora"],
        "lora.train_lora.self_s": s["lora.train_lora"],
        "facegen.graffiti_stylize.self_s": s["facegen.graffiti_stylize"],
        "facegen.image_hash.busy_s": b["facegen.image_hash"],
        "facegen.render_face.busy_s": b["facegen.render_face"],
        "identity.extract_attributes.busy_s": b["identity.extract_attributes"],
        "identity.project.self_s": s["identity.project"],
        "pipeline.ablate_attention.self_s": s["pipeline.ablate_attention"],
        "pipeline.ablate_order.self_s": s["pipeline.ablate_order"],
        "pipeline.to_csv.busy_s": b["pipeline.to_csv"],
    }
