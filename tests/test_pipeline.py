from dataclasses import replace

import numpy as np
import pytest

import craftfaces.pipeline as pl
from craftfaces import facegen, identity
from craftfaces.diffusion import _denoise_loss
from craftfaces.errors import CompositionOrderError, ConfigError, TrainingError
from craftfaces.facegen import StyleOp, face_grid, graffiti_stylize, render_face
from craftfaces.identity import attr_loss
from craftfaces.lora import _batch
from craftfaces.numerics import RngStream
from craftfaces.pipeline import (
    PipelineConfig,
    ReportRow,
    ablate_attention,
    ablate_order,
    run_identity_first,
    run_style_first,
    train_toy_denoiser,
    _make_runtime,
    _training_batch,
)


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
        out, row = run_style_first(img, "graffiti portrait", cfg)
        assert row.attr_loss == 0.0
        assert row.order == "PS"

    def test_defaults_restore_attributes_exactly(self):
        cfg = PipelineConfig(seed=2)
        img = render_face(face_grid(1, seed=2)[0], cfg.image_size)
        out, row = run_style_first(img, "graffiti portrait", cfg)
        assert row.attr_loss <= 1e-9
        assert abs(row.ffc - 1.0) <= 1e-6

    def test_diffusion_path_still_projects_exactly(self):
        cfg = PipelineConfig(seed=3, steps=10, composition_window=3, use_diffusion=True)
        img = render_face(face_grid(1, seed=3)[0], cfg.image_size)
        out, row = run_style_first(img, "graffiti portrait", cfg)
        assert row.attr_loss <= 1e-9

    def test_window_zero_diffusion_ignores_the_styled_guide(self):
        # with no composition window the sampler must not see the guide,
        # so runs differing only in style intensity produce identical images
        img = render_face(face_grid(1, seed=30)[0], 64)
        outs = []
        for intensity in (0.2, 0.9):
            cfg = PipelineConfig(
                seed=30, steps=10, composition_window=0,
                style_intensity=intensity, use_diffusion=True,
            )
            out, _ = run_style_first(img, "graffiti portrait", cfg)
            outs.append(out.tobytes())
        assert outs[0] == outs[1]


class TestRunIdentityFirst:
    def test_identity_style_matches_style_first(self):
        cfg = PipelineConfig(style_intensity=0.0, composition_window=0)
        img = render_face(face_grid(1, seed=4)[0], cfg.image_size)
        _, ps = run_style_first(img, "graffiti portrait", cfg)
        _, sp = run_identity_first(img, "graffiti portrait", cfg)
        assert ps.attr_loss == sp.attr_loss == 0.0

    def test_defaults_keep_the_stylization_drift(self):
        from craftfaces.facegen import StyleOp, graffiti_stylize
        from craftfaces.identity import attr_loss

        cfg = PipelineConfig(seed=5)
        img = render_face(face_grid(1, seed=5)[0], cfg.image_size)
        _, sp = run_identity_first(img, "graffiti portrait", cfg)
        drift = attr_loss(graffiti_stylize(img, StyleOp(intensity=0.7)), img)
        assert sp.attr_loss == drift
        assert sp.attr_loss > 0.0
        assert sp.order == "SP"


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

    def test_violation_raises_with_case(self, monkeypatch):
        def fake_style_first(face, styled, prompt, cfg, face_id, t0, **kw):
            row = ReportRow(face_id, "PS", cfg.style_intensity, 99.0, 1.0, cfg.seed, 0.0)
            return styled, row

        monkeypatch.setattr(pl, "_style_first", fake_style_first)
        cfg = PipelineConfig(seed=9)
        with pytest.raises(CompositionOrderError) as exc:
            ablate_order(face_grid(1, seed=9), cfg, sweeps=(0.5,), seeds=(9,))
        assert "face_id=0" in str(exc.value)
        assert "loss_ps=99.0" in str(exc.value)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ablate_order([], PipelineConfig())

    @pytest.mark.parametrize(
        "sweeps, seeds", [((0.3, 0.3), (9,)), ((0.3,), (9, 9))], ids=["intensities", "seeds"]
    )
    def test_duplicate_cells_rejected(self, sweeps, seeds):
        with pytest.raises(ConfigError, match="distinct"):
            ablate_order(face_grid(1, seed=9), PipelineConfig(seed=9), sweeps=sweeps, seeds=seeds)

    def test_every_seed_checked_before_any_cell(self, monkeypatch):
        calls = []
        real = pl._stylize
        monkeypatch.setattr(pl, "_stylize", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(ConfigError, match="seed must lie"):
            ablate_order(face_grid(2, seed=9), PipelineConfig(seed=9), sweeps=(0.5,),
                         seeds=(2**127 - 1, 2**127))
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
                    expected.append(run_style_first(img, pl.DEFAULT_PROMPT, cell, face_id=fid)[1])
                    expected.append(run_identity_first(img, pl.DEFAULT_PROMPT, cell, face_id=fid)[1])
        key = lambda r: (r.face_id, r.order, r.intensity, r.seed, repr(r.attr_loss), repr(r.ffc))
        assert list(map(key, report.rows)) == list(map(key, pl.ExperimentReport(expected).sorted_rows()))

    def test_reversed_order_stylizes_the_projected_input_when_projection_moves_it(self):
        cfg = PipelineConfig(seed=20, style_intensity=0.4)
        params = face_grid(1, seed=20)[0]
        img = render_face(params, cfg.image_size)
        shifted = params.attributes() + np.array([1e-3, 0, 0, 0, 0, 0])
        projector = pl.Projector(reference_attrs=shifted)
        face = pl._Face.of(img, projector)
        assert face.projected is not None  # projecting the input redraws its landmarks
        ps, sp = pl._order_cell(face, cfg, 0, params, None)
        _, want_ps = run_style_first(img, pl.DEFAULT_PROMPT, cfg, projector=projector)
        _, want_sp = run_identity_first(img, pl.DEFAULT_PROMPT, cfg, projector=projector)
        for got, want in ((ps, want_ps), (sp, want_sp)):
            assert (repr(got.attr_loss), repr(got.ffc)) == (repr(want.attr_loss), repr(want.ffc))
        # reusing the stylized input, right only when projecting is a no-op, would differ
        assert sp.attr_loss != attr_loss(graffiti_stylize(img, StyleOp(intensity=0.4)), img)

    def test_per_face_work_once_and_one_stylize_per_cell(self, monkeypatch):
        calls = {}

        def count(module, name):
            real, calls[name] = getattr(module, name), 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((facegen, "image_hash"), (facegen, "_smooth_warp"), (facegen, "_laplacian"),
                             (identity, "project"), (identity, "_project"), (pl, "_project"),
                             (identity, "extract_attributes"), (pl, "extract_attributes"),
                             (pl, "_stylize"), (pl, "graffiti_stylize")):
            count(module, name)  # both modules' _project and extract_attributes feed one count each
        ablate_order(face_grid(3, seed=21), PipelineConfig(seed=21), sweeps=(0.2, 0.5, 0.9), seeds=(21, 22))
        faces, cells = 3, 3 * 3 * 2
        assert calls == {
            "image_hash": faces,  # the jitter units
            "_smooth_warp": faces,  # the other per-image stylize terms
            "_laplacian": faces,
            "project": faces,  # the input; each cell's restore reuses the stylized image's attributes
            "_project": faces + cells,  # inside project, then one restore per cell
            # the reference and the projected input's check, then per cell
            # the stylized image and the restored output, once each
            "extract_attributes": 2 * faces + 2 * cells,
            "_stylize": cells,
            "graffiti_stylize": 0,
        }

    def test_diffusion_sweep_builds_one_runtime_per_seed(self, monkeypatch):
        cfg = PipelineConfig(seed=22, steps=6, composition_window=2, image_size=32, use_diffusion=True)
        params = face_grid(1, seed=22)[0]
        img = render_face(params, cfg.image_size)
        expected = []
        for intensity in (0.3, 0.7):
            for seed in (22, 23):
                cell = replace(cfg, style_intensity=intensity, seed=seed)
                expected.append(run_style_first(img, pl.DEFAULT_PROMPT, cell)[1])
                expected.append(run_identity_first(img, pl.DEFAULT_PROMPT, cell)[1])

        built = []
        real_make_runtime = pl._make_runtime
        monkeypatch.setattr(pl, "_make_runtime", lambda c: built.append(c.seed) or real_make_runtime(c))
        report = ablate_order([params], cfg, sweeps=(0.3, 0.7), seeds=(22, 23))
        assert built == [22, 23]
        assert [replace(r, ms=0.0) for r in report.rows] == pl.ExperimentReport(
            [replace(r, ms=0.0) for r in expected]
        ).sorted_rows()


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
        eval_batch = _batch(_training_batch(faces, cfg, runtime, RngStream(seed=99)))
        before = _denoise_loss(runtime.model, *eval_batch)
        model, _ = train_toy_denoiser(faces, cfg, RngStream(seed=11), steps=500)
        after = _denoise_loss(model, *eval_batch)
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
        with pytest.raises(TrainingError):
            train_toy_denoiser(
                face_grid(2, seed=13), cfg, RngStream(seed=13), steps=60, lr=1e18
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            train_toy_denoiser([], PipelineConfig(), RngStream(seed=0))


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
        reference = ablate_attention(face_grid(3, seed=16), cfg, **kw)
        assert [len(rng) for rng in calls] == [2 * 6]  # one call: both arms, 6 trajectories each
        assert all(a is b for a, b in zip(calls[0][:6], calls[0][6:]))  # the arms share streams
        assert [replace(r, ms=0.0) for r in batched.rows] == [replace(r, ms=0.0) for r in reference.rows]
        assert batched.extras == reference.extras

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

    def test_identity_phase_trains_only_the_identity_blocks(self):
        cfg = PipelineConfig(seed=19, image_size=32, latent_tokens=16, token_dim=8)
        runtime = _make_runtime(cfg)
        faces = face_grid(2, seed=19)
        model = pl._sgd_train(runtime.model, faces, cfg, runtime, RngStream(seed=19), 3, 0.15,
                              with_identity=True, trained=("u_q", "u_k"))
        before, after = runtime.model.params(), model.params()
        for name in before:
            if name not in ("u_q", "u_k"):
                assert after[name] is before[name], name
        assert after["u_q"].tobytes() != before["u_q"].tobytes()

    def test_no_seeds_rejected(self):
        cfg = PipelineConfig(seed=17, image_size=32, latent_tokens=16, token_dim=8)
        with pytest.raises(ConfigError):
            ablate_attention(face_grid(1, seed=17), cfg, seeds=(), train_steps=1, base_steps=1)

    def test_report_has_both_arms_and_extras(self):
        cfg = PipelineConfig(seed=15, image_size=32, latent_tokens=16, token_dim=8)
        report = ablate_attention(
            face_grid(2, seed=15), cfg, seeds=(0,), train_steps=20, base_steps=20
        )
        orders = {row.order for row in report.rows}
        assert orders == {"ID", "BASE"}
        for key in ("mean_ffc_id", "mean_ffc_base", "mean_mass_id", "mean_mass_base", "paired_se", "id_wins"):
            assert key in report.extras


def test_report_row_sorting_and_csv_schema(tmp_path):
    report = pl.ExperimentReport(
        rows=[
            ReportRow(1, "SP", 0.5, 0.1, 0.9, 0, 12.0),
            ReportRow(0, "PS", 0.5, 0.0, 1.0, 0, 8.0),
        ]
    )
    path = tmp_path / "r.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "face_id,order,intensity,attr_loss,ffc,seed,ms"
    assert lines[1].startswith("0,PS")
    assert lines[1].endswith(",0")  # ms zeroed by default
    report.to_csv(path, include_timing=True)
    assert path.read_text().strip().splitlines()[2].endswith(",12")
