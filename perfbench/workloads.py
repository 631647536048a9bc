"""The four benchmark workloads.

Each workload calls the pipeline entry point that a CLI command dispatches
to, with the arguments that command would pass and ``jobs=1``, then writes
the command's artifact. Inputs derive only from the benchmark seed. Sizes
are cut down from the acceptance-test grids so one run takes under a second
and a measuring window holds dozens of runs; the per-unit shape (image size,
tokens, steps, guidance, rank) is the one each criterion pins.

``check`` returns the problems found in a run's output (empty when the run
is correct). ``units`` says how many units of work one run does, and
``BASELINE`` holds the per-unit call counts the seed code makes, which the
traced run prints and ``test_perfbench.py`` asserts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from craftfaces import lora, pipeline
from craftfaces.facegen import face_grid, render_face
from craftfaces.numerics import RngStream
from craftfaces.pipeline import PipelineConfig, _make_runtime

INTENSITIES = tuple((i + 1) / 10 for i in range(10))  # the ablate-order default
RESTORED_LOSS_TOL = 1e-9  # criterion 1: the restored order's attribute loss


@dataclass
class Inputs:
    cfg: PipelineConfig
    faces: list
    images: list
    runtime: object


class Workload:
    name = ""
    artifact = ""
    n_faces = 0
    BASELINE: dict = {}

    def config(self, seed: int) -> PipelineConfig:
        raise NotImplementedError

    def setup(self, seed: int) -> Inputs:
        """Face grid, rendered faces and the runtime (schedule, codec, denoiser)."""
        cfg = self.config(seed)
        faces = face_grid(self.n_faces, seed=cfg.seed)
        images = [render_face(p, cfg.image_size) for p in faces]
        return Inputs(cfg, faces, images, _make_runtime(cfg))

    def run(self, inp: Inputs, path):
        raise NotImplementedError

    def check(self, inp: Inputs, result, path) -> list[str]:
        raise NotImplementedError

    def units(self) -> dict:
        """Units of work in one run: ``unit`` always, ``sgd_step`` if any."""
        raise NotImplementedError

    def observe(self, result) -> dict:
        """Figures worth recording that are not pass/fail."""
        return {}


def _csv_rows(path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _check_order_report(report, n_cells: int, path) -> list[str]:
    """Criterion 1 on every cell: PS <= SP, PS <= 1e-9, strict when SP > 0."""
    problems = []
    cells: dict = {}
    for r in report.rows:
        cells.setdefault((r.face_id, r.intensity, r.seed), {})[r.order] = r.attr_loss
    if len(cells) != n_cells or len(report.rows) != 2 * n_cells:
        problems.append(f"{len(cells)} cells / {len(report.rows)} rows, expected {n_cells} / {2 * n_cells}")
    for key, pair in sorted(cells.items()):
        ps, sp = pair.get("PS"), pair.get("SP")
        if ps is None or sp is None:
            problems.append(f"cell {key} lacks an order: {sorted(pair)}")
        elif not (ps <= sp and ps <= RESTORED_LOSS_TOL) or (sp > 0.0 and not ps < sp):
            problems.append(f"cell {key}: loss_ps={ps!r} loss_sp={sp!r}")
    if report.extras.get("win_rate") != 1.0:
        problems.append(f"win rate {report.extras.get('win_rate')!r} != 1.0")
    if _csv_rows(path) != 2 * n_cells:
        problems.append(f"report CSV has {_csv_rows(path)} rows, expected {2 * n_cells}")
    return problems


class OrderSweep(Workload):
    """``ablate-order``: criterion-1 grid shape, no diffusion."""

    name = "order-sweep"
    artifact = "order_report.csv"
    n_faces = 8
    sweep_seeds = 3
    BASELINE = {
        "unit.extract_attributes": 10,
        "unit.graffiti_stylize": 2,
        "unit.image_hash": 2,
        "unit.project": 2,
        "identity.project.redraw_ratio": 0.5,
        "unit.rng_draws": 4,
        "unit.predict_noise": 0,
        "unit.sample": 0,
        "unit.make_codec": 0,
        "unit.apply_to_attention": 0,
    }

    def config(self, seed):
        return PipelineConfig(seed=seed)

    def _seeds(self, cfg):
        return tuple(cfg.seed + i for i in range(self.sweep_seeds))

    def run(self, inp, path):
        report = pipeline.ablate_order(
            inp.faces, inp.cfg, sweeps=INTENSITIES, seeds=self._seeds(inp.cfg), jobs=1
        )
        report.to_csv(path)
        return report

    def check(self, inp, report, path):
        return _check_order_report(report, self.units()["unit"], path)

    def units(self):
        return {"unit": self.n_faces * len(INTENSITIES) * self.sweep_seeds}


class StyledDiffusion(OrderSweep):
    """``ablate-order`` with ``"use_diffusion": true`` at the 64 px defaults:
    one trajectory per cell and a runtime rebuilt per cell."""

    name = "styled-diffusion"
    n_faces = 1
    sweep_seeds = 1
    BASELINE = {"unit.make_codec": 1, "unit.sample": 1, "unit.predict_noise": 200}

    def config(self, seed):
        return PipelineConfig(seed=seed, use_diffusion=True)


class AttentionAblation(Workload):
    """``ablate-attention`` at the criterion-8 shape (32 px, 16x8 tokens),
    with fewer faces x seeds and SGD steps in the criterion's proportion."""

    name = "attention-ablation"
    artifact = "attention_report.csv"
    n_faces = 4
    arm_seeds = 2
    base_steps = 48
    train_steps = 80
    BASELINE = {
        "unit.predict_noise": 200,
        "unit.reverse_step": 100,
        "unit.sample_normal_draws": 125,
        "sgd_step.integer_draws": 2,
        "sgd_step.normal_draws": 16,
    }

    def config(self, seed):
        return PipelineConfig(seed=seed, image_size=32, latent_tokens=16, token_dim=8)

    def run(self, inp, path):
        report = pipeline.ablate_attention(
            inp.faces, inp.cfg, seeds=range(self.arm_seeds),
            train_steps=self.train_steps, base_steps=self.base_steps,
        )
        report.to_csv(path)
        return report

    def check(self, inp, report, path):
        problems = []
        expected = self.units()["unit"]
        arms: dict = {}
        for r in report.rows:
            arms.setdefault((r.face_id, r.seed), []).append(r.order)
            if not (math.isfinite(r.ffc) and -1.0 <= r.ffc <= 1.0 and math.isfinite(r.attr_loss)):
                problems.append(f"row {r.face_id}/{r.seed}/{r.order}: ffc={r.ffc!r} loss={r.attr_loss!r}")
        if len(report.rows) != expected or _csv_rows(path) != expected:
            problems.append(f"{len(report.rows)} rows, expected {expected}")
        bad = [k for k, v in arms.items() if sorted(v) != ["BASE", "ID"]]
        if bad:
            problems.append(f"(face, seed) pairs without one row per arm: {bad[:3]}")
        return problems

    def observe(self, report):
        # The paper's direction (ID >= BASE) is recorded, not required: at the
        # full criterion-8 settings it fails for seeds 0 and 3, so it is a
        # property of the pinned seed, not an invariant of the program.
        e = report.extras
        return {"ffc_id_minus_base": e["mean_ffc_id"] - e["mean_ffc_base"]}

    def units(self):
        return {
            "unit": self.n_faces * self.arm_seeds * 2,
            "sgd_step": self.base_steps + self.train_steps,
        }


class LoraTrain(Workload):
    """``train --lora`` defaults (4 faces, rank 4) with fewer steps."""

    name = "lora-train"
    artifact = "adapters.csv"
    n_faces = 4
    steps = 8
    BASELINE = {"unit.apply_to_attention": 192, "unit.predict_noise": 1536}

    def config(self, seed):
        return PipelineConfig(seed=seed)

    def run(self, inp, path):
        rng = RngStream(seed=inp.cfg.seed).split("train")
        model, adapters = pipeline.train_toy_denoiser(
            inp.faces, inp.cfg, rng, steps=self.steps, lora=True
        )
        lora.save_adapters(path, adapters)
        return model, adapters

    def check(self, inp, result, path):
        model, adapters = result
        problems = []
        loaded = lora.load_adapters(path)
        if sorted(loaded) != sorted(adapters):
            return [f"adapter targets {sorted(loaded)} != {sorted(adapters)}"]
        for t, ad in adapters.items():
            back = loaded[t]
            if not (np.array_equal(back.a, ad.a) and np.array_equal(back.b, ad.b)
                    and back.alpha == ad.alpha and back.rank == ad.rank):
                problems.append(f"adapter {t} does not round-trip through load_adapters")
            if not (np.all(np.isfinite(ad.a)) and np.all(np.isfinite(ad.b))):
                problems.append(f"adapter {t} is not finite")
            if not np.any(ad.b != 0.0):
                problems.append(f"adapter {t} has B == 0 after training")
        base, ref = model.attention.base, inp.runtime.model.attention.base
        for m in ("w_q", "w_k", "w_v"):
            if getattr(base, m).tobytes() != getattr(ref, m).tobytes():
                problems.append(f"base {m} changed")
        return problems

    def units(self):
        return {"unit": self.steps}


WORKLOADS = {w.name: w for w in (OrderSweep(), AttentionAblation(), LoraTrain(), StyledDiffusion())}
