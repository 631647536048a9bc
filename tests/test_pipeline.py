import concurrent.futures
import hashlib
import math
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import craftfaces.pipeline as pl
from craftfaces import cli, facegen, identity
from craftfaces.diffusion import encode
from craftfaces.errors import CompositionOrderError, ConfigError, TrainingError
from craftfaces.facegen import face_grid, render_face
from craftfaces.lora import _batch
from craftfaces.numerics import RngStream
from craftfaces.pipeline import (
    ExperimentReport,
    PipelineConfig,
    ReportRow,
    ablate_attention,
    ablate_order,
    train_toy_denoiser,
    _make_runtime,
    _training_batch,
)
import reference
from reference import denoise_loss, run_identity_first, run_style_first
from test_diffusion import CODEC_SHA256


def _latents(faces, cfg, runtime):
    """``_sgd_train``'s face latents: each face rendered and encoded."""
    return np.stack([encode(render_face(p, cfg.image_size), runtime.codec) for p in faces])


def _idents(faces):
    """``_sgd_train``'s identity-phase embeddings, one per face."""
    return np.stack([identity.attribute_embedding(p.attributes()) for p in faces])


def _row_key(row):
    """The order report rows are in: (face_id, intensity, seed, order)."""
    return row.face_id, row.intensity, row.seed, row.order


def _weight_bytes(model):
    return {name: w.tobytes() for name, w in model.params().items()}


def _count_calls(monkeypatch, module, *names):
    """Wrap each function ``names`` of ``module`` to count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


class TestPipelineConfig:
    def test_defaults_match_documented_settings(self):
        cfg = PipelineConfig()
        assert cfg.guidance_scale == 7.5
        assert cfg.subject_guidance == 0.95
        assert cfg.style_intensity == 0.7
        assert cfg.steps == 100
        assert cfg.composition_window == 25
        assert cfg.lora_rank == 4
        assert cfg.lora_alpha == 8.0

    def test_window_bounded_by_steps(self):
        with pytest.raises(ConfigError):
            PipelineConfig(steps=100, composition_window=200)

    def test_round_trip(self):
        cfg = PipelineConfig(seed=9, style_intensity=0.4)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"stepz": 10})

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(subject_guidance=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(style_intensity=-0.1)
        with pytest.raises(ConfigError):
            PipelineConfig(guidance_scale=0.0)


class TestRunStyleFirst:
    def test_degenerate_config_is_lossless(self):
        cfg = PipelineConfig(style_intensity=0.0, composition_window=0)
        img = render_face(face_grid(1, seed=1)[0], cfg.image_size)
        out, row = run_style_first(img, cfg)
        assert row.attr_loss == 0.0
        assert row.order == "PS"

    def test_defaults_restore_attributes_exactly(self):
        cfg = PipelineConfig(seed=2)
        img = render_face(face_grid(1, seed=2)[0], cfg.image_size)
        out, row = run_style_first(img, cfg)
        assert row.attr_loss <= 1e-9
        assert abs(row.ffc - 1.0) <= 1e-6

    def test_window_zero_diffusion_ignores_the_styled_guide(self):
        # with no composition window the sampler must not see the guide, so
        # denoiser passes at two style intensities decode identically
        cfg = PipelineConfig(seed=30, steps=10, composition_window=0)
        img = render_face(face_grid(1, seed=30)[0], cfg.image_size)
        outs = [
            pl.diffuse(img, replace(cfg, style_intensity=intensity), pl.DEFAULT_PROMPT,
                       RngStream(seed=30)).tobytes()
            for intensity in (0.2, 0.9)
        ]
        assert outs[0] == outs[1]


class TestRunIdentityFirst:
    def test_identity_style_matches_style_first(self):
        cfg = PipelineConfig(style_intensity=0.0, composition_window=0)
        img = render_face(face_grid(1, seed=4)[0], cfg.image_size)
        _, ps = run_style_first(img, cfg)
        _, sp = run_identity_first(img, cfg)
        assert ps.attr_loss == sp.attr_loss == 0.0

    def test_defaults_keep_the_stylization_drift(self):
        from craftfaces.facegen import StyleOp, graffiti_stylize
        from craftfaces.identity import attr_loss

        cfg = PipelineConfig(seed=5)
        img = render_face(face_grid(1, seed=5)[0], cfg.image_size)
        _, sp = run_identity_first(img, cfg)
        drift = attr_loss(graffiti_stylize(img, StyleOp(intensity=0.7)), img)
        assert sp.attr_loss == drift
        assert sp.attr_loss > 0.0
        assert sp.order == "SP"

    def test_two_extractions_per_call(self, monkeypatch):
        calls = {"extract_attributes": 0}

        def count(module):
            real = module.extract_attributes

            def counted(*args, **kwargs):
                calls["extract_attributes"] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "extract_attributes", counted)

        for module in (identity, reference):
            count(module)  # both modules' extract_attributes feed one count
        cfg = PipelineConfig(seed=5)
        run_identity_first(render_face(face_grid(1, seed=5)[0], cfg.image_size), cfg)
        assert calls == {"extract_attributes": 2}  # the input's attributes and the output's


class TestAblateOrder:
    def test_small_sweep_wins_everywhere(self):
        cfg = PipelineConfig(seed=6)
        report = ablate_order(face_grid(5, seed=6), cfg, sweeps=(0.3, 0.8), seeds=(6,))
        assert report.extras["win_rate"] == 1.0
        assert report.extras["mean_loss_ps"] <= 1e-9
        assert report.extras["mean_loss_sp"] > 0.0

    def test_zero_intensity_tie_counts_as_hold(self):
        cfg = PipelineConfig(seed=7)
        report = ablate_order(face_grid(1, seed=7), cfg, sweeps=(0.0,), seeds=(7,))
        assert report.extras["win_rate"] == 1.0
        assert report.extras["mean_loss_sp"] == 0.0

    def test_csv_reproducible_and_jobs_invariant(self, tmp_path):
        cfg = PipelineConfig(seed=8)
        faces = face_grid(4, seed=8)
        paths = []
        for jobs in (1, 1, 3):
            report = ablate_order(faces, cfg, sweeps=(0.5,), seeds=(8,), jobs=jobs)
            p = tmp_path / f"report_{len(paths)}.csv"
            report.to_csv(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    @staticmethod
    def losing(refs, styled, width):
        """Restores 9, 3 and 3 away from each face's ``ref``, in place of the
        real ones: ``(ref + 9) - ref`` rounds to exactly 9 for a ``ref`` in
        [0, 1], and so for 3, so the PS loss is exactly 99.0 at every
        intensity, over an SP loss of at most 6."""
        return np.broadcast_to((refs + [9.0, 3.0, 3.0, 0.0, 0.0, 0.0])[:, None], styled.shape)

    def test_violation_raises_with_case(self, monkeypatch):
        monkeypatch.setattr(identity, "_restored_attributes", self.losing)
        cfg = PipelineConfig(seed=9)
        with pytest.raises(CompositionOrderError) as exc:
            ablate_order(face_grid(1, seed=9), cfg, sweeps=(0.5, 0.3), seeds=(9,))
        assert "face_id=0" in str(exc.value)
        assert "intensity=0.5" in str(exc.value)  # the first offending intensity, in sweep order
        assert "loss_ps=99.0" in str(exc.value)

    def test_a_pool_writes_the_bytes_and_the_failure_of_one_process(self, monkeypatch, tmp_path):
        """A real two-worker pool reads the faces, then the parent restores
        and scores them: the report bytes and, with every restore losing,
        the failure text are those of ``jobs=1``."""
        cfg, faces = PipelineConfig(seed=23), face_grid(3, seed=23)
        sweeps, seeds = (0.6, 0.0, 1.0, 0.3), (24, 23)
        reports = []
        for jobs in (2, 1):
            path = tmp_path / f"jobs_{jobs}.csv"
            ablate_order(faces, cfg, sweeps=sweeps, seeds=seeds, jobs=jobs).to_csv(path)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        monkeypatch.setattr(identity, "_restored_attributes", self.losing)
        failures = []
        for jobs in (2, 1):
            with pytest.raises(CompositionOrderError) as exc:
                ablate_order(faces, cfg, sweeps=sweeps, seeds=seeds, jobs=jobs)
            failures.append(str(exc.value))
        assert failures[0] == failures[1]
        assert "face_id=0 intensity=0.6 seeds=(24, 23) loss_ps=99.0" in failures[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ablate_order([], PipelineConfig(), sweeps=(0.5,), seeds=(0,))

    @pytest.mark.parametrize(
        "sweeps, seeds", [((0.3, 0.3), (9,)), ((0.3,), (9, 9)), ((), (9,)), ((0.3,), ())],
        ids=["intensities", "seeds", "no-intensities", "no-seeds"],
    )
    def test_duplicate_cells_rejected(self, sweeps, seeds):
        with pytest.raises(ConfigError, match="distinct"):
            ablate_order(face_grid(1, seed=9), PipelineConfig(seed=9), sweeps=sweeps, seeds=seeds)

    def test_every_seed_checked_before_any_cell(self, monkeypatch):
        calls = []
        real = facegen._landmark_rows
        monkeypatch.setattr(facegen, "_landmark_rows", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(ConfigError, match="seed must lie"):
            ablate_order(face_grid(2, seed=9), PipelineConfig(seed=9), sweeps=(0.5,),
                         seeds=(2**127 - 1, 2**127))
        assert calls == []

    def test_every_intensity_checked_before_any_cell(self, monkeypatch):
        calls = []
        real = facegen._landmark_rows
        monkeypatch.setattr(facegen, "_landmark_rows", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(ConfigError, match=r"ablate_order intensity 1.5 is not a finite value in \[0, 1\]"):
            ablate_order(face_grid(2, seed=9), PipelineConfig(seed=9), sweeps=(0.5, 1.5), seeds=(9,))
        assert calls == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_one_call_of_each_order_per_cell(self, jobs):
        cfg = PipelineConfig(seed=18)
        faces = face_grid(3, seed=18)
        report = ablate_order(faces, cfg, sweeps=(0.0, 0.4, 1.0), seeds=(18, 19), jobs=jobs)
        expected = []
        for fid, params in enumerate(faces):
            img = render_face(params, cfg.image_size)
            for intensity in (0.0, 0.4, 1.0):
                for seed in (18, 19):
                    cell = replace(cfg, style_intensity=intensity, seed=seed)
                    expected.append(run_style_first(img, cell, face_id=fid)[1])
                    expected.append(run_identity_first(img, cell, face_id=fid)[1])
        assert report.rows == sorted(expected, key=_row_key)

    def test_per_face_work_once_and_one_landmark_batch_per_face(self, monkeypatch):
        calls = {}

        def count(module, name):
            real, calls[name] = getattr(module, name), 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((facegen, "render_face"), (facegen, "image_hash"), (identity, "project"),
                             (identity, "extract_attributes"), (pl, "extract_attributes"),
                             (facegen, "_landmark_rows"), (facegen, "_stylize"), (pl, "graffiti_stylize"),
                             (identity, "_band_attributes"), (pl, "_scores")):
            count(module, name)  # both modules' extract_attributes feed one count
        ablate_order(face_grid(3, seed=21), PipelineConfig(seed=21), sweeps=(0.0, 0.5, 0.9), seeds=(21, 22))
        faces = 3
        assert calls == {
            "render_face": 0,  # each face is read from its attributes
            "image_hash": faces,  # the jitter units
            "project": 0,  # each cell scores its restore without building it
            "extract_attributes": 0,  # every attribute vector comes from a band read
            "_landmark_rows": faces,  # every intensity's stylized landmark rows in one batch
            "_stylize": 0,  # no cell builds a stylized image
            "graffiti_stylize": 0,
            # per face one read of the render's and every stylized band row, then one of every redraw
            "_band_attributes": faces + 1,
            # every SP and PS vector of every face and intensity in one call, written for both seeds
            "_scores": 1,
        }

    @pytest.mark.parametrize("n_faces, sweeps, seeds, jobs", [
        pytest.param(100, tuple((i + 1) / 10 for i in range(10)), (0,), 1, id="cli-default-grid"),
        pytest.param(3, (0.9, 0.2, 0.5), (5, 1), 1, id="unsorted-axes"),
        pytest.param(4, (0.3, 0.0, 1.0), (7,), 1, id="single-seed"),
        pytest.param(3, (0.9, 0.2, 0.5), (5, 1), 2, id="jobs-2"),
    ])
    def test_extras_equal_the_row_walk_bit_for_bit(self, n_faces, sweeps, seeds, jobs):
        """The extras, read from the per-face score arrays, have the bits of
        walking the sorted rows: each order's mean loss and the win rate."""
        report = ablate_order(face_grid(n_faces, seed=12), PipelineConfig(seed=12), sweeps=sweeps, seeds=seeds,
                              jobs=jobs)
        want = {
            "mean_loss_ps": reference.mean_loss(report.rows, "PS"),
            "mean_loss_sp": reference.mean_loss(report.rows, "SP"),
            "win_rate": reference.win_rate(report.rows),
        }
        assert {k: v.hex() for k, v in report.extras.items()} == {k: v.hex() for k, v in want.items()}

    @pytest.mark.parametrize("n_faces, jobs, workers", [(1, 4, None), (2, 4, 2), (3, 2, 2), (2, 1, None)])
    def test_at_most_one_worker_per_face(self, monkeypatch, n_faces, jobs, workers):
        """``workers`` is the pool size asked for, None where the faces run
        serially; the fake pool maps in-process, so no process starts. Each
        worker gets one task, a contiguous block of faces."""
        pools, chunks = [], []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                chunks.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cfg, faces = PipelineConfig(seed=5), face_grid(n_faces, seed=5)
        report = ablate_order(faces, cfg, sweeps=(0.5,), seeds=(5,), jobs=jobs)
        assert pools == ([] if workers is None else [workers])
        assert chunks == ([] if workers is None else [math.ceil(n_faces / workers)])
        assert report.rows == ablate_order(faces, cfg, sweeps=(0.5,), seeds=(5,)).rows


class TestRuntime:
    """``_make_runtime`` keeps the last runtime it built for the process.
    Every test that counts builds clears that cache first, so that it holds
    in any test order."""

    SMALL = PipelineConfig(seed=40, image_size=32, latent_tokens=4, token_dim=2, cond_dim=3, steps=10,
                           composition_window=2)
    KEY = ("seed", "image_size", "latent_tokens", "token_dim", "cond_dim", "steps")
    # a valid value other than SMALL's for every config field
    OTHER = {"guidance_scale": 2.0, "subject_guidance": 0.5, "style_intensity": 0.1, "steps": 11,
             "composition_window": 1, "lora_rank": 2, "lora_alpha": 3.0, "seed": 41, "image_size": 33,
             "latent_tokens": 5, "token_dim": 3, "cond_dim": 4}

    def test_other_value_for_every_field(self):
        assert set(self.OTHER) == {f.name for f in fields(PipelineConfig)}
        assert all(self.OTHER[name] != getattr(self.SMALL, name) for name in self.OTHER)

    @pytest.mark.parametrize("name", sorted(OTHER))
    def test_same_runtime_unless_a_key_field_differs(self, name):
        """A config that differs only outside the six fields the runtime
        reads gets the same object; one that differs in any of them gets a
        fresh runtime."""
        pl._build_runtime.cache_clear()
        runtime = _make_runtime(self.SMALL)
        assert _make_runtime(self.SMALL) is runtime
        other = _make_runtime(replace(self.SMALL, **{name: self.OTHER[name]}))
        assert (other is runtime) == (name not in self.KEY)

    def test_every_array_is_read_only(self):
        runtime = _make_runtime(self.SMALL)
        s, c = runtime.sched, runtime.codec
        arrays = [s.beta, s.alpha, s.alpha_bar, c.enc, c.dec, *runtime.model.params().values()]
        assert len(arrays) == 14
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_no_codec_built_after_the_runtime(self, monkeypatch):
        """``ablate_attention`` and ``train_toy_denoiser``, in both modes,
        reuse the runtime built before them."""
        cfg = replace(self.SMALL, latent_tokens=16, token_dim=8)
        pl._build_runtime.cache_clear()
        calls = _count_calls(monkeypatch, pl, "make_codec")
        _make_runtime(cfg)
        assert calls == {"make_codec": 1}
        faces = face_grid(2, seed=40)
        ablate_attention(faces, cfg, seeds=(0,), train_steps=1, base_steps=1)
        for lora in (False, True):
            train_toy_denoiser(faces, cfg, RngStream(seed=40), steps=1, lora=lora)
        assert calls == {"make_codec": 1}

    @pytest.mark.parametrize("shape, z", sorted(CODEC_SHA256))
    def test_cached_codec_keeps_the_pinned_bytes(self, shape, z):
        cfg = PipelineConfig(seed=7, image_size=shape[1], latent_tokens=16, token_dim=z // 16)
        _make_runtime(cfg)
        codec = _make_runtime(cfg).codec  # the runtime the first call left in the cache
        assert hashlib.sha256(codec.enc.tobytes() + codec.dec.tobytes()).hexdigest() == CODEC_SHA256[shape, z]


class TestTrainToyDenoiser:
    def test_zero_steps_returns_initial_model(self):
        cfg = PipelineConfig(seed=10)
        model, adapters = train_toy_denoiser(face_grid(2, seed=10), cfg, RngStream(seed=10), steps=0)
        for name, w in _make_runtime(cfg).model.params().items():
            assert model.params()[name].tobytes() == w.tobytes(), name
        assert adapters is None

    def test_loss_decreases(self):
        cfg = PipelineConfig(seed=11, image_size=32, latent_tokens=16, token_dim=4)
        runtime = _make_runtime(cfg)
        faces = face_grid(3, seed=11)
        eval_batch = _batch(_training_batch(_latents(faces, cfg, runtime), cfg, runtime, RngStream(seed=99)))
        before = denoise_loss(runtime.model, *eval_batch)
        model, _ = train_toy_denoiser(faces, cfg, RngStream(seed=11), steps=500)
        after = denoise_loss(model, *eval_batch)
        assert after < before

    def test_lora_mode_freezes_base(self):
        cfg = PipelineConfig(seed=12)
        base_bytes = _make_runtime(cfg).model.attention.base.w_q.tobytes()
        model, adapters = train_toy_denoiser(
            face_grid(2, seed=12), cfg, RngStream(seed=12), steps=3, lora=True
        )
        assert adapters is not None and set(adapters) == {"q", "k", "v"}
        assert model.attention.base.w_q.tobytes() == base_bytes

    def test_divergence_raises(self):
        cfg = PipelineConfig(seed=13)
        runtime = _make_runtime(cfg)
        with pytest.raises(TrainingError):
            pl._sgd_train(runtime.model, _latents(face_grid(2, seed=13), cfg, runtime), None, cfg, runtime,
                          RngStream(seed=13), 60, 1e18)

    def test_training_keeps_the_callers_weights(self, monkeypatch):
        """Both SGD phases, and full-mode ``train_toy_denoiser``, update
        their own copies: every array of the caller's model, and of the
        runtime's model, keeps its bytes."""
        cfg = PipelineConfig(seed=19, image_size=32, latent_tokens=16, token_dim=8)
        runtime = _make_runtime(cfg)
        faces = face_grid(2, seed=19)
        before = _weight_bytes(runtime.model)
        for idents in (None, _idents(faces)):
            trained = pl._sgd_train(runtime.model, _latents(faces, cfg, runtime), idents, cfg, runtime,
                                    RngStream(seed=19), 3, 0.15)
            assert _weight_bytes(runtime.model) == before
            assert _weight_bytes(trained) != before
        made = []
        monkeypatch.setattr(pl, "_make_runtime", lambda c: made.append(_make_runtime(c)) or made[-1])
        model, _ = train_toy_denoiser(faces, cfg, RngStream(seed=19), steps=3)
        assert _weight_bytes(made[0].model) == before
        assert _weight_bytes(model) != before

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            train_toy_denoiser([], PipelineConfig(), RngStream(seed=0))

    def test_lora_rank_up_to_token_dim_runs(self):
        cfg = PipelineConfig(seed=1, image_size=32, token_dim=4, lora_rank=4)
        _, adapters = train_toy_denoiser(face_grid(1, seed=1), cfg, RngStream(seed=1), steps=1, lora=True)
        assert {ad.rank for ad in adapters.values()} == {4}

    def test_lora_rank_past_token_dim_rejected_before_any_work(self, monkeypatch):
        pl._build_runtime.cache_clear()  # so that a runtime build would have to make a codec
        calls = _count_calls(monkeypatch, pl, "render_face", "make_codec")
        cfg = PipelineConfig(seed=1, image_size=32, token_dim=4, lora_rank=5)
        with pytest.raises(ConfigError, match="lora_rank 5 exceeds token_dim 4"):
            train_toy_denoiser(face_grid(1, seed=1), cfg, RngStream(seed=1), steps=1, lora=True)
        assert calls == {"render_face": 0, "make_codec": 0}

    @pytest.mark.parametrize("lora", [False, True], ids=["full", "lora"])
    def test_negative_steps_rejected_before_any_work(self, monkeypatch, lora):
        calls = _count_calls(monkeypatch, pl, "render_face", "_make_runtime")
        cfg = PipelineConfig(seed=1, image_size=32)
        with pytest.raises(ConfigError, match=">= 0, got -3"):
            train_toy_denoiser(face_grid(1, seed=1), cfg, RngStream(seed=1), steps=-3, lora=lora)
        assert calls == {"render_face": 0, "_make_runtime": 0}


class TestSgdDraws:
    """``_sgd_train`` draws each step's batch in two keyed draws: one
    integer per (face, t) pair, then every noise row."""

    CFG = PipelineConfig(seed=21, image_size=32, latent_tokens=16, token_dim=8)

    @pytest.mark.parametrize("phase", ["all-weights", "identity"])
    def test_stream_advances_two_draws_per_step(self, phase):
        runtime = _make_runtime(self.CFG)
        faces = face_grid(3, seed=21)
        idents = None if phase == "all-weights" else _idents(faces)
        for steps in (0, 1, 5):
            rng = RngStream(seed=21)
            pl._sgd_train(runtime.model, _latents(faces, self.CFG, runtime), idents, self.CFG, runtime, rng,
                          steps, 0.1)
            assert rng.counter == 2 * steps

    def test_first_batch_is_one_integer_draw_then_one_normal_draw(self, monkeypatch):
        cfg, runtime = self.CFG, _make_runtime(self.CFG)
        faces = face_grid(3, seed=22)
        latents, idents = _latents(faces, cfg, runtime), _idents(faces)
        seen = []
        real = pl._denoise_loss_and_grad

        def spy(model, x_t, cond, eps, names):
            seen.append((model.identity, x_t, eps))
            return real(model, x_t, cond, eps, names)

        monkeypatch.setattr(pl, "_denoise_loss_and_grad", spy)
        pl._sgd_train(runtime.model, latents, idents, cfg, runtime, RngStream(seed=22), 1, 0.1)
        fresh = RngStream(seed=22)
        pairs = fresh.integers(0, len(faces) * cfg.steps, (pl.SGD_BATCH,))
        eps = fresh.normal((pl.SGD_BATCH, latents.shape[1]))
        fidx, ts = pairs // cfg.steps, pairs % cfg.steps + 1
        assert ((0 <= fidx) & (fidx < len(faces))).all() and ((1 <= ts) & (ts <= cfg.steps)).all()
        (ident, x_t, got_eps), = seen
        assert got_eps.tobytes() == eps.tobytes()
        assert ident.tobytes() == idents[fidx].tobytes()
        ab = runtime.sched.alpha_bar[ts - 1][:, None]
        assert x_t.tobytes() == (np.sqrt(ab) * latents[fidx] + np.sqrt(1.0 - ab) * eps).tobytes()


class TestAblateAttention:
    def test_batched_arms_equal_one_sample_per_trajectory(self, monkeypatch):
        """Rows and extras equal those of a reference that samples each
        (face, seed) trajectory of each arm alone, with its own guide and
        identity, on a fresh copy of its stream; a row with a zero identity
        is sampled with none, on plain attention."""
        cfg = PipelineConfig(
            seed=16, image_size=32, latent_tokens=16, token_dim=8, steps=20, composition_window=5
        )
        kw = dict(seeds=(0, 2), train_steps=10, base_steps=10)
        batched = ablate_attention(face_grid(3, seed=16), cfg, **kw)

        real_sample, calls = pl.sample, []

        def one_per_trajectory(model, cond, sched, *, guide, rng, **options):
            calls.append(rng)
            return np.array([
                real_sample(model.with_identity(ident if ident.any() else None), cond, sched,
                            guide=guide[i], rng=replace(stream), **options)
                for i, (ident, stream) in enumerate(zip(model.identity, rng))
            ])

        monkeypatch.setattr(pl, "sample", one_per_trajectory)
        alone = ablate_attention(face_grid(3, seed=16), cfg, **kw)
        assert [len(rng) for rng in calls] == [2 * 6]  # one call: both arms, 6 trajectories each
        assert all(a is b for a, b in zip(calls[0][:6], calls[0][6:]))  # the arms share streams
        assert batched.rows == alone.rows
        assert batched.extras == alone.extras

    def test_paired_extras_match_the_rows(self):
        """``paired_se`` and ``id_wins`` describe the per-(face, seed)
        ID - BASE FFC differences of the report's own rows."""
        cfg = PipelineConfig(
            seed=18, image_size=32, latent_tokens=16, token_dim=8, steps=20, composition_window=5
        )
        report = ablate_attention(face_grid(2, seed=18), cfg, seeds=(0, 1, 2), train_steps=10, base_steps=10)
        ffcs = {(r.face_id, r.seed, r.order): r.ffc for r in report.rows}
        diffs = [ffcs[f, s, "ID"] - ffcs[f, s, "BASE"] for f in range(2) for s in range(3)]
        assert report.extras["id_wins"] == sum(d > 0.0 for d in diffs)
        assert report.extras["paired_se"] == pytest.approx(np.std(diffs, ddof=1) / np.sqrt(6), rel=1e-12)
        single = ablate_attention(face_grid(1, seed=18), cfg, seeds=(0,), train_steps=1, base_steps=1)
        assert np.isnan(single.extras["paired_se"])
        assert single.extras["id_wins"] in (0, 1)

    @pytest.mark.parametrize("seeds", [(0, 1, 2), (2, 0)], ids=["sorted-seeds", "unsorted-seeds"])
    def test_mean_ffc_equals_the_row_walk_bit_for_bit(self, seeds):
        """Each arm's ``mean_ffc_*``, read from the FFC arrays in sampling
        order, has the bits of walking its sorted rows."""
        cfg = PipelineConfig(seed=18, image_size=32, latent_tokens=4, token_dim=2, steps=10, composition_window=3)
        report = ablate_attention(face_grid(3, seed=18), cfg, seeds=seeds, train_steps=2, base_steps=2)
        for arm in ("ID", "BASE"):
            assert report.extras[f"mean_ffc_{arm.lower()}"].hex() == reference.mean_ffc(report.rows, arm).hex()

    def test_identity_phase_trains_only_the_identity_blocks(self):
        cfg = PipelineConfig(seed=19, image_size=32, latent_tokens=16, token_dim=8)
        runtime = _make_runtime(cfg)
        faces = face_grid(2, seed=19)
        model = pl._sgd_train(runtime.model, _latents(faces, cfg, runtime), _idents(faces), cfg, runtime,
                              RngStream(seed=19), 3, 0.15)
        before, after = runtime.model.params(), model.params()
        for name in before:
            if name not in ("u_q", "u_k"):
                assert after[name] is before[name], name
        assert after["u_q"].tobytes() != before["u_q"].tobytes()

    def test_all_weights_phase_returns_the_callers_identity_blocks(self):
        """Without identities U_q/U_k have a zero gradient, so that phase
        leaves them out of training and hands back the caller's own arrays."""
        cfg = PipelineConfig(seed=19, image_size=32, latent_tokens=16, token_dim=8)
        runtime = _make_runtime(cfg)
        model = pl._sgd_train(runtime.model, _latents(face_grid(2, seed=19), cfg, runtime), None, cfg, runtime,
                              RngStream(seed=19), 3, 0.25)
        assert model.attention.u_q is runtime.model.attention.u_q
        assert model.attention.u_k is runtime.model.attention.u_k
        assert model.attention.base.w_q is not runtime.model.attention.base.w_q

    @pytest.mark.parametrize("shift", [0, 1], ids=["own-render", "other-render"])
    def test_identification_of_samples_that_are_renders(self, monkeypatch, shift):
        """A sample whose image is its own face's render identifies at 100%
        with FFC 1 against its face; one that is another face's render (the
        next face's, cyclically) identifies at 0%. ``sample`` is replaced by
        the face latents, shifted by ``shift`` faces, and the decoded
        attributes by those of the render each latent encodes."""
        cfg = PipelineConfig(seed=20, image_size=32, latent_tokens=16, token_dim=8, steps=10,
                             composition_window=3)
        faces, seeds = face_grid(3, seed=20), (0, 1)
        runtime = _make_runtime(cfg)
        renders = {encode(img, runtime.codec).tobytes(): img for img in (render_face(p, 32) for p in faces)}

        def shifted_guides(model, cond, sched, *, guide, **options):
            return np.roll(guide.reshape(2, len(faces), len(seeds), -1), -shift, axis=1).reshape(guide.shape)

        monkeypatch.setattr(pl, "sample", shifted_guides)
        monkeypatch.setattr(pl, "_decoded_attributes",
                            lambda zs, codec: identity.extract_attributes(np.stack([renders[z.tobytes()] for z in zs])))
        e = ablate_attention(faces, cfg, seeds=seeds, train_steps=1, base_steps=1).extras
        assert e["ident_rate_id"] == e["ident_rate_base"] == (1.0 if shift == 0 else 0.0)
        if shift == 0:  # against the other faces, each sample scores the grid's own cross-face FFC
            others = [identity.ffc(a.attributes(), b.attributes()) for a in faces for b in faces if a is not b]
            assert e["mean_ffc_id"] == e["mean_ffc_base"] == pytest.approx(1.0, abs=1e-15)
            assert e["mean_ffc_others_id"] == e["mean_ffc_others_base"] == pytest.approx(np.mean(others), abs=1e-9)

    def test_scores_equal_the_whole_decode_reference_bit_for_bit(self, monkeypatch):
        """Reading only the landmark rows of each sample gives the losses,
        FFCs and extras of decoding every sample whole and extracting its
        attributes (``reference.decoded_attributes``), bit for bit, at
        criterion 8's shape."""
        cfg = PipelineConfig(seed=22, image_size=32, latent_tokens=16, token_dim=8, steps=20, composition_window=5)
        faces, kw = face_grid(3, seed=22), dict(seeds=(0, 1), train_steps=4, base_steps=4)
        bands = ablate_attention(faces, cfg, **kw)
        monkeypatch.setattr(pl, "_decoded_attributes", reference.decoded_attributes)
        whole = ablate_attention(faces, cfg, **kw)
        assert bands.losses.tobytes() == whole.losses.tobytes()
        assert bands.ffcs.tobytes() == whole.ffcs.tobytes()
        hexes = [{k: float(v).hex() for k, v in report.extras.items()} for report in (bands, whole)]
        assert hexes[0] == hexes[1]

    def test_one_face_is_always_identified(self):
        cfg = PipelineConfig(seed=18, image_size=32, latent_tokens=16, token_dim=8, steps=10,
                             composition_window=3)
        e = ablate_attention(face_grid(1, seed=18), cfg, seeds=(0,), train_steps=1, base_steps=1).extras
        assert e["ident_rate_id"] == e["ident_rate_base"] == 1.0
        assert np.isnan(e["mean_ffc_others_id"]) and np.isnan(e["mean_ffc_others_base"])

    def test_each_face_rendered_and_encoded_once(self, monkeypatch):
        """Training's two phases and the scoring share each face's one
        render and one encode."""
        counts = _count_calls(monkeypatch, pl, "render_face", "encode")
        cfg = PipelineConfig(seed=17, image_size=32, latent_tokens=16, token_dim=8, steps=10, composition_window=5)
        ablate_attention(face_grid(3, seed=17), cfg, seeds=(0, 1), train_steps=2, base_steps=2)
        assert counts == {"render_face": 3, "encode": 3}

    def test_no_seeds_rejected(self):
        cfg = PipelineConfig(seed=17, image_size=32, latent_tokens=16, token_dim=8)
        with pytest.raises(ConfigError):
            ablate_attention(face_grid(1, seed=17), cfg, seeds=(), train_steps=1, base_steps=1)

    def test_duplicate_seeds_rejected_before_any_work(self, monkeypatch):
        """A repeated seed would make every (face, seed) pair of it count
        twice in ``paired_se`` and ``id_wins``."""
        calls = _count_calls(monkeypatch, pl, "render_face", "_make_runtime")
        cfg = PipelineConfig(seed=17, image_size=32, latent_tokens=16, token_dim=8)
        with pytest.raises(ConfigError, match="distinct"):
            ablate_attention(face_grid(2, seed=17), cfg, seeds=(0, 0), train_steps=1, base_steps=1)
        assert calls == {"render_face": 0, "_make_runtime": 0}

    def test_every_seed_checked_before_any_sgd_step(self, monkeypatch):
        """A sampling seed outside the config seed's range is refused as
        the order sweep refuses one, before either SGD phase."""
        calls = _count_calls(monkeypatch, pl, "_sgd_train")
        cfg = PipelineConfig(seed=17, image_size=32, latent_tokens=16, token_dim=8)
        with pytest.raises(ConfigError, match="seed must lie"):
            ablate_attention(face_grid(2, seed=17), cfg, seeds=(0, 2**130), train_steps=1, base_steps=1)
        assert calls == {"_sgd_train": 0}

    def test_report_depends_only_on_the_seed_set(self):
        """The seeds are sorted before sampling, so every row and the
        ``repr`` of every extra are the same in any seed order, and the rows
        come out sorted."""
        cfg = PipelineConfig(seed=18, image_size=32, latent_tokens=16, token_dim=8, steps=20,
                             composition_window=5)
        faces = face_grid(3, seed=18)
        reports = [ablate_attention(faces, cfg, seeds=seeds, train_steps=10, base_steps=10)
                   for seeds in ((0, 1, 2, 3, 4), (4, 2, 0, 3, 1))]
        assert reports[0].rows == reports[1].rows == sorted(reports[0].rows, key=_row_key)
        extras = [{key: repr(value) for key, value in r.extras.items()} for r in reports]
        assert extras[0] == extras[1]

    @pytest.mark.parametrize("steps", [dict(train_steps=-3, base_steps=1), dict(train_steps=1, base_steps=-1)],
                             ids=["train_steps", "base_steps"])
    def test_negative_step_counts_rejected_before_any_work(self, monkeypatch, steps):
        calls = _count_calls(monkeypatch, pl, "render_face", "_make_runtime")
        cfg = PipelineConfig(seed=17, image_size=32, latent_tokens=16, token_dim=8)
        with pytest.raises(ConfigError, match=">= 0"):
            ablate_attention(face_grid(1, seed=17), cfg, seeds=(0,), **steps)
        assert calls == {"render_face": 0, "_make_runtime": 0}

    def test_report_has_both_arms_and_extras(self):
        cfg = PipelineConfig(seed=15, image_size=32, latent_tokens=16, token_dim=8, style_intensity=0.4)
        report = ablate_attention(
            face_grid(2, seed=15), cfg, seeds=(0,), train_steps=20, base_steps=20
        )
        orders = {row.order for row in report.rows}
        assert orders == {"ID", "BASE"}
        # both arms are guided by the unstylized render, whatever the config's intensity
        assert all(row.intensity == 0.0 for row in report.rows)
        for key in ("mean_ffc_id", "mean_ffc_base", "mean_mass_id", "mean_mass_base", "paired_se", "id_wins",
                    "ident_rate_id", "ident_rate_base", "mean_ffc_others_id", "mean_ffc_others_base"):
            assert key in report.extras


def test_report_row_sorting_and_csv_schema(tmp_path):
    """The order sweep builds its rows sorted, whatever the order of its
    intensities and seeds, and ``to_csv`` writes them as they are."""
    report = ablate_order(face_grid(2, seed=9), PipelineConfig(seed=9), sweeps=(0.8, 0.0, 0.3), seeds=(5, 2))
    assert report.rows == sorted(report.rows, key=_row_key)
    path = tmp_path / "r.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "face_id,order,intensity,attr_loss,ffc,seed"
    assert lines[0].split(",") == [f.name for f in fields(ReportRow)]
    assert lines[1:] == [f"{r.face_id},{r.order},{r.intensity!r},{r.attr_loss!r},{r.ffc!r},{r.seed}"
                         for r in report.rows]


# signed zeros, a negative NaN, infinities, the smallest subnormal and one
# more, and a float whose repr switches to an exponent
_EDGE_FLOATS = (-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3,
                1e16, 0.1)


@st.composite
def _reports(draw):
    """A report over up to 8 cells whose scores and intensities come from a
    pool of at most 5 floats, so that cells repeat them, or from any float."""
    orders = draw(st.sampled_from((("PS", "SP"), ("BASE", "ID"))))
    n = draw(st.integers(0, 8))
    pool = draw(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(), min_size=1, max_size=5))
    values = st.sampled_from(pool) | st.floats()
    scores = draw(arrays(np.float64, (2, len(orders), n), elements=values))
    cells = [(draw(st.integers(0, 2**20)), draw(values), draw(st.integers(-(2**127), 2**127 - 1)))
             for _ in range(n)]
    return ExperimentReport(orders, cells, scores[0], scores[1], {})


@settings(max_examples=100, deadline=None)
@given(_reports())
@example(ExperimentReport(("PS", "SP"), [], np.empty((2, 0)), np.empty((2, 0)), {}))  # a header alone
@example(ExperimentReport(  # every edge value as a score, twice, and as an intensity
    ("BASE", "ID"), [(i, v, 2**127 - i) for i, v in enumerate(_EDGE_FLOATS)],
    np.array([_EDGE_FLOATS, _EDGE_FLOATS[::-1]]), np.array([_EDGE_FLOATS[::-1], _EDGE_FLOATS]), {}))
def test_report_csv_has_the_bytes_of_the_csv_writer_walk(report):
    """``to_csv`` writes the bytes ``reference.report_csv`` writes by
    passing every row through ``csv.writer``."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        report.to_csv(got)
        reference.report_csv(report, want)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def test_ablate_order_command_builds_no_row(monkeypatch, tmp_path):
    """The command and ``to_csv`` build no ``ReportRow``; ``rows``, built
    once on first read, is one row per cell and order, sorted."""
    built = []
    monkeypatch.setattr(pl, "ReportRow", lambda *args: built.append(args) or ReportRow(*args))
    argv = ["ablate-order", "--faces", "2", "--intensities", "0.8,0.0,0.3", "--sweep-seeds", "2", "--seed", "9",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    report = ablate_order(face_grid(2, seed=9), PipelineConfig(seed=9), sweeps=(0.8, 0.0, 0.3), seeds=(9, 10))
    report.to_csv(tmp_path / "again.csv")
    assert built == []
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "order_report.csv").read_bytes()
    rows = report.rows
    assert report.rows is rows and len(built) == len(rows) == 2 * 3 * 2 * 2
    eager = [ReportRow(fid, order, intensity, float(report.losses[a, c]), float(report.ffcs[a, c]), seed)
             for c, (fid, intensity, seed) in enumerate(report.cells) for a, order in enumerate(report.orders)]
    assert rows == eager == sorted(eager, key=_row_key)


def test_reports_compare_by_identity():
    """A report holds arrays, so ``==`` compares identity and never the
    arrays elementwise; content is compared through ``rows`` and ``extras``."""
    a, b = (ablate_order(face_grid(1, seed=3), PipelineConfig(seed=3), sweeps=(0.5,), seeds=(3,)) for _ in range(2))
    assert a == a and a != b
    assert a.rows == b.rows and a.extras == b.extras
