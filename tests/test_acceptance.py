"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import hashlib
import time

import numpy as np
import pytest

from craftfaces.attention import AttentionWeights, ExtendedAttentionWeights
from craftfaces.cli import main
from craftfaces.diffusion import build_schedule, forward_marginal, forward_step, sample
from craftfaces.facegen import StyleOp, face_grid, graffiti_stylize, render_face
from craftfaces.identity import extract_attributes, ffc, project
from craftfaces.lora import LoRAAdapter, LoRATrainConfig, _adapted_loss, merge, train_lora
from craftfaces.numerics import RngStream, finite_diff_grad
from craftfaces.pipeline import PipelineConfig, ablate_attention, ablate_order, _make_runtime
from craftfaces.style import StyleLossConfig, make_extractor, total_loss, total_loss_grad
from craftfaces.attention import identity_self_attention, self_attention

GRID_SEED = 7
N_FACES = 100
INTENSITIES = tuple((i + 1) / 10 for i in range(10))
SWEEP_SEEDS = (0, 1, 2)


def _report(num, name, detail):
    print(f"\ncriterion {num} ({name}): PASS  [{detail}]")


@pytest.fixture(scope="module")
def sweep_faces():
    return face_grid(N_FACES, seed=GRID_SEED)


def test_criterion_1_composition_order_inequality(sweep_faces):
    """style-then-restore never loses, restored loss <= 1e-9, strict when
    the stylizer drifted; 100 faces x 10 intensities x 3 seeds in <= 60 s."""
    t0 = time.perf_counter()
    cfg = PipelineConfig(seed=0)
    report = ablate_order(sweep_faces, cfg, sweeps=INTENSITIES, seeds=SWEEP_SEEDS)
    elapsed = time.perf_counter() - t0

    cells = {}
    for row in report.rows:
        cells.setdefault((row.face_id, row.intensity, row.seed), {})[row.order] = row
    assert len(cells) == N_FACES * len(INTENSITIES) * len(SWEEP_SEEDS)
    for key, pair in cells.items():
        ps, sp = pair["PS"], pair["SP"]
        assert ps.attr_loss <= sp.attr_loss, key
        assert ps.attr_loss <= 1e-9, key
        if sp.attr_loss > 0.0:  # stylizer drifted: inequality must be strict
            assert ps.attr_loss < sp.attr_loss, key
    assert report.extras["win_rate"] == 1.0
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"
    _report(1, "composition order", f"{len(cells)} cells, win rate 1.0, {elapsed:.1f}s")


def test_criterion_2_exact_projection_contract(sweep_faces):
    """restored attributes match the reference within 1e-9 across the
    sweep; projection of a clean render is byte-identical."""
    worst = 0.0
    for params in sweep_faces:
        img = render_face(params, 64)
        ref = extract_attributes(img)
        assert project(img, ref).tobytes() == img.tobytes()
        for intensity in INTENSITIES:
            restored = project(graffiti_stylize(img, StyleOp(intensity=intensity)), ref)
            worst = max(worst, float(np.max(np.abs(extract_attributes(restored) - ref))))
    assert worst <= 1e-9
    _report(2, "exact projection", f"worst attr error {worst:.2e}, clean renders bitwise")


def test_criterion_3_zero_identity_reduction():
    """zero identity embedding reproduces plain attention within 1e-12 on
    1000 random instances and byte-identically end to end."""
    rng = RngStream(seed=33)
    worst = 0.0
    for k in range(1000):
        r = rng.split(k)
        base = AttentionWeights(
            w_q=r.normal((3, 3)), w_k=r.normal((3, 3)), w_v=r.normal((3, 3))
        )
        ext = ExtendedAttentionWeights(base=base, u_q=r.normal((6, 3)), u_k=r.normal((6, 3)))
        tokens = r.normal((4, 3))
        diff = identity_self_attention(tokens, np.zeros(6), ext) - self_attention(tokens, base)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst <= 1e-12

    # end to end: seed-matched sampling arms coincide byte for byte
    cfg = PipelineConfig(seed=14, image_size=32, latent_tokens=16, token_dim=8)
    runtime = _make_runtime(cfg)
    from craftfaces.diffusion import encode

    img = render_face(face_grid(1, seed=14)[0], cfg.image_size)
    guide = encode(img, runtime.codec)
    outs = []
    for ident in (None, np.zeros(6)):
        model = runtime.model.with_identity(ident)
        out = sample(
            model, np.zeros(cfg.cond_dim), runtime.sched,
            window=cfg.composition_window, guide=guide, rng=RngStream(seed=5),
            subject_guidance=cfg.subject_guidance, guidance_scale=cfg.guidance_scale,
        )
        outs.append(out.tobytes())
    assert outs[0] == outs[1]
    _report(3, "zero-identity reduction", f"worst diff {worst:.2e}, arms byte-identical")


def test_criterion_4_gradient_fidelity():
    """analytic style/content gradient vs central differences, relative
    error <= 1e-4 on 20 random (image, extractor, config) triples, <= 30 s."""
    t0 = time.perf_counter()
    rng = RngStream(seed=44)
    worst = 0.0
    for k in range(20):
        r = rng.split(k)
        phi = make_extractor(2, [3, 4], r.split("phi"))
        x = r.uniform((2, 4, 4))
        c = r.uniform((2, 4, 4))
        s = r.uniform((2, 4, 4))
        cfg = StyleLossConfig(
            lambda_c=0.2 + float(r.uniform(())),
            lambda_s=0.2 + float(r.uniform(())),
            content_layer=int(r.integers(0, 3)),
        )
        analytic = total_loss_grad(x, c, s, cfg, phi)
        numeric = finite_diff_grad(lambda v: total_loss(v, c, s, cfg, phi), x)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed <= 30.0
    _report(4, "gradient fidelity", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_diffusion_moment_checks():
    """closed-form noising matches the iterated chain in mean and variance
    within 3 Monte Carlo standard errors at t in {1, 50, 100}, T = 100."""
    sched = build_schedule(100)
    n = 10_000
    x0 = 1.3
    details = []
    for t in (1, 50, 100):
        chain = np.full(n, x0)
        rng = RngStream(seed=500 + t)
        for step in range(1, t + 1):
            chain = forward_step(chain, step, sched, rng)
        direct = forward_marginal(np.full(n, x0), t, sched, RngStream(seed=900 + t))
        se_mean = (chain.std() + direct.std()) / np.sqrt(n)
        se_var = (chain.var() + direct.var()) * np.sqrt(2.0 / n)
        dm = abs(chain.mean() - direct.mean())
        dv = abs(chain.var() - direct.var())
        assert dm <= 3 * se_mean, t
        assert dv <= 3 * se_var, t
        details.append(f"t={t}: dmean={dm:.4f}<= {3*se_mean:.4f}, dvar={dv:.4f}<={3*se_var:.4f}")
    _report(5, "diffusion moments", "; ".join(details))


def test_criterion_6_lora_contracts():
    """merge exact to 1e-12, update rank bounded by r, base weights frozen
    byte-for-byte, and the toy task descends for every seed in a 10-seed grid."""
    rng = RngStream(seed=66)
    for k in range(10):
        r = rng.split(k)
        w = r.normal((6, 5))
        ad = LoRAAdapter(a=r.normal((6, 3)), b=r.normal((3, 5)), alpha=2.2, rank=3)
        assert np.max(np.abs(merge(w, ad) - w - ad.alpha * ad.a @ ad.b)) <= 1e-12
        sv = np.linalg.svd(merge(w, ad) - w, compute_uv=False)
        assert np.all(sv[ad.rank:] <= 1e-9 * sv[0])

    from test_lora import toy_linear_task

    descents = []
    for seed in range(10):
        model, data = toy_linear_task(seed)
        frozen = (
            model.attention.base.w_q.tobytes(),
            model.attention.base.w_k.tobytes(),
            model.attention.base.w_v.tobytes(),
        )
        cfg0 = LoRATrainConfig(rank=2, alpha=8.0, lr=0.1, steps=0)
        start = _adapted_loss(model, data, train_lora(model, data, cfg0, RngStream(seed=seed)))
        cfg = LoRATrainConfig(rank=2, alpha=8.0, lr=0.1, steps=200)
        end = _adapted_loss(model, data, train_lora(model, data, cfg, RngStream(seed=seed)))
        assert end < start, seed
        assert (
            model.attention.base.w_q.tobytes(),
            model.attention.base.w_k.tobytes(),
            model.attention.base.w_v.tobytes(),
        ) == frozen
        descents.append(f"{start:.3f}->{end:.3f}")
    _report(6, "lora contracts", f"10-seed descents {descents[0]} ... {descents[-1]}")


def test_criterion_7_ffc_metric():
    """cosine similarity: identical 1, orthogonal 0, scale invariant."""
    u = np.array([0.3, -0.2, 0.9, 0.1])
    assert abs(ffc(u, u) - 1.0) <= 1e-12
    assert abs(ffc(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) <= 1e-12
    assert abs(ffc(u, 3.0 * u) - 1.0) <= 1e-12
    _report(7, "ffc metric", "identical=1, orthogonal=0, ffc(u,3u)=1")


def test_criterion_8_attention_ablation_direction(tmp_path):
    """with a trained identity arm, mean toy-FFC of the identity arm is at
    least the baseline's over 8 faces x 25 seeds; report written; <= 5 min."""
    t0 = time.perf_counter()
    cfg = PipelineConfig(seed=3, image_size=32, latent_tokens=16, token_dim=8)
    faces = face_grid(8, seed=11)
    report = ablate_attention(faces, cfg, seeds=range(25))
    elapsed = time.perf_counter() - t0
    mean_id = report.extras["mean_ffc_id"]
    mean_base = report.extras["mean_ffc_base"]
    assert mean_id >= mean_base, (mean_id, mean_base)
    path = tmp_path / "attention_report.csv"
    report.to_csv(path)
    assert len(path.read_bytes()) > 0
    assert len(report.rows) == 8 * 25 * 2
    assert elapsed <= 300.0
    _report(
        8,
        "attention ablation direction",
        f"ffc id {mean_id:.6f} >= base {mean_base:.6f}, {elapsed:.0f}s",
    )


def test_criterion_9_determinism_and_parallel_safety(tmp_path, capsys):
    """same seed implies checksum-identical outputs for any --jobs value."""
    digests = []
    for run_dir, jobs in (("a", 1), ("b", 2), ("c", 4)):
        out_dir = tmp_path / run_dir
        code = main(
            [
                "ablate-order", "--faces", "4", "--intensities", "0.3,0.8",
                "--seed", "21", "--jobs", str(jobs), "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        digests.append(hashlib.sha256((out_dir / "order_report.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]

    ppm_digests = []
    for run_dir in ("d", "e"):
        out_dir = tmp_path / run_dir
        code = main(
            [
                "diffuse", "--seed", "5", "--steps", "10", "--window", "3",
                "--image-size", "32", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        ppm_digests.append(
            hashlib.sha256((out_dir / "face_0_diffused.ppm").read_bytes()).hexdigest()
        )
    assert ppm_digests[0] == ppm_digests[1]
    capsys.readouterr()
    _report(9, "determinism and parallel safety", f"report sha {digests[0][:12]} for jobs 1/2/4")
