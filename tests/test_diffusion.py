import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import craftfaces
from craftfaces.attention import AttentionWeights, ExtendedAttentionWeights
from craftfaces.diffusion import (
    DenoiserModel,
    LatentCodec,
    NoiseSchedule,
    _Streams,
    _cholesky_upper,
    _denoise_loss_and_grad,
    build_schedule,
    decode,
    encode,
    forward_marginal,
    forward_step,
    make_codec,
    make_denoiser,
    reverse_step,
    sample,
)
from craftfaces.errors import ConfigError, EvaluationError, ShapeError, StepError
from craftfaces.facegen import face_grid, render_face
from craftfaces.numerics import RngStream, finite_diff_grad, softmax_rows
import reference
from reference import denoise_loss, schedule_entries


def linear_schedule(T, beta_start, beta_end):
    """A linear schedule between other betas than build_schedule's, built directly."""
    return NoiseSchedule(np.linspace(beta_start, beta_end, T))


def noiseless_schedule(T=1):
    """beta = 0 limit; unreachable through build_schedule, injected directly."""
    return linear_schedule(T, 0.0, 0.0)


def same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# noise variances of 1 to 200 steps in [0, 0.999], all-zero vectors among them
BETAS = st.one_of(
    st.lists(st.floats(0.0, 0.999), min_size=1, max_size=200),
    st.integers(1, 200).map(lambda steps: [0.0] * steps),
)


def zero_model(n_tokens=4, token_dim=2, cond_dim=3):
    base = AttentionWeights(
        w_q=np.zeros((token_dim, token_dim)),
        w_k=np.zeros((token_dim, token_dim)),
        w_v=np.zeros((token_dim, token_dim)),
    )
    return DenoiserModel(
        n_tokens=n_tokens,
        attention=ExtendedAttentionWeights(
            base=base, u_q=np.zeros((6, token_dim)), u_k=np.zeros((6, token_dim))
        ),
        head_w=np.zeros((token_dim, token_dim)),
        head_b=np.zeros(token_dim),
        cond_w=np.zeros((cond_dim, token_dim)),
        cond_b=np.zeros(token_dim),
    )


def exact_eps_case(x0, eps, t, sched):
    """The latent x_t that the forward marginal at step t makes of ``x0``
    with the noise ``eps``, and a noise predictor that returns ``eps`` there,
    the exact eps of ``x0`` at t."""
    ab = sched.alpha_bar[t - 1]
    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps

    class ExactEps:
        latent_size, cond_dim = x0.size, 3

        def predict_noise(self, latent, cond):
            assert np.array_equal(latent, x_t)
            return eps

    return x_t, ExactEps()


class IdealDenoiser:
    """The noise predictor with the least error over a finite set of clean
    latents L (Karras et al., EDM, arXiv 2206.00364): its x0 estimate is
    softmax_k(-|x_t - sqrt(abar_t) L_k|^2 / 2(1 - abar_t)) . L, one softmax
    row over the latents, and its eps is (x_t - sqrt(abar_t) x0) / sqrt(1 - abar_t).
    ``predict_noise`` is given no step, so this one counts down from T, one
    step per call, as ``sample`` calls it at guidance scale 1."""

    identity = None

    def __init__(self, latents, sched):
        self.latents, self.sched, self.t = latents, sched, sched.T
        self.latent_size = latents.shape[1]

    def predict_noise(self, latent, cond):
        ab = self.sched.alpha_bar[self.t - 1]
        self.t -= 1
        rows = np.atleast_2d(latent)
        d = rows[:, None, :] - np.sqrt(ab) * self.latents
        x0 = softmax_rows(-(d * d).sum(axis=-1) / (2.0 * (1.0 - ab))) @ self.latents
        return ((rows - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)).reshape(latent.shape)


class TestSchedule:
    def test_default_step_count(self):
        sched = build_schedule(100)
        assert sched.T == 100
        assert sched.beta.shape == (100,)

    def test_single_step(self):
        sched = build_schedule(1)
        assert sched.beta[0] == 1e-4
        assert sched.alpha_bar[0] == 1.0 - 1e-4

    def test_default_alpha_bar_final(self):
        # independent oracle: plain product over the same linear grid
        prod = 1.0
        for i in range(100):
            prod *= 1.0 - (1e-4 + (0.02 - 1e-4) * i / 99)
        sched = build_schedule(100)
        assert abs(sched.alpha_bar[-1] - prod) <= 1e-15
        assert abs(sched.alpha_bar[-1] - 0.3635632480554922) <= 1e-12

    def test_alpha_bar_strictly_decreasing_and_consistent(self):
        sched = build_schedule(100)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        recomputed = sched.alpha_bar[:-1] * sched.alpha[1:]
        assert np.array_equal(recomputed, sched.alpha_bar[1:])

    def test_bounds_validation(self):
        with pytest.raises(ConfigError):
            build_schedule(0)

    @settings(max_examples=150, deadline=None)
    @given(beta=BETAS)
    def test_every_entry_is_its_scalar_expression(self, beta):
        """Each table entry has the bits of its scalar expression at that
        step, every array is read-only, and the caller's beta is copied,
        not frozen. A zero beta builds without a warning (pytest turns
        RuntimeWarnings into errors)."""
        given_beta = np.array(beta)
        sched = NoiseSchedule(given_beta)
        entries = schedule_entries(beta)
        assert sched.T == len(beta)
        assert sched.beta.tobytes() == given_beta.tobytes()
        for name, values in entries.items():
            assert same_bits(getattr(sched, name), values), name
        for name in ("beta", *entries):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sched, name)[...] = 0.0
        given_beta[...] = 0.5
        assert sched.beta.tobytes() == np.array(beta).tobytes()

    def test_only_beta_is_settable(self):
        beta = np.linspace(0.1, 0.2, 3)
        for derived in ({"T": 3}, {"alpha": 1.0 - beta}):
            with pytest.raises(TypeError):
                NoiseSchedule(beta, **derived)
        for bad in (np.zeros((2, 2)), []):
            with pytest.raises(ConfigError, match="nonempty 1-D beta"):
                NoiseSchedule(bad)


class TestForwardStep:
    def test_noiseless_limit(self):
        x = RngStream(seed=1).normal((8,))
        out = forward_step(x, 1, noiseless_schedule(), RngStream(seed=2))
        assert np.array_equal(out, x)

    def test_moments(self):
        sched = build_schedule(100)
        t = 50
        n = 10_000
        x_prev = 0.8 * np.ones(n)
        out = forward_step(x_prev, t, sched, RngStream(seed=3))
        b = sched.beta[t - 1]
        se_mean = np.sqrt(b / n)
        assert abs(out.mean() - np.sqrt(1 - b) * 0.8) <= 3 * se_mean
        se_var = b * np.sqrt(2.0 / n)
        assert abs(out.var() - b) <= 3 * se_var

    def test_step_range(self):
        sched = build_schedule(10)
        with pytest.raises(StepError):
            forward_step(np.ones(2), 0, sched, RngStream(seed=4))
        with pytest.raises(StepError):
            forward_step(np.ones(2), 11, sched, RngStream(seed=4))


class TestForwardMarginal:
    def test_no_noise_limit(self):
        x0 = RngStream(seed=5).normal((6,))
        out = forward_marginal(x0, 1, noiseless_schedule(), RngStream(seed=6))
        assert np.array_equal(out, x0)

    @pytest.mark.parametrize("t", [1, 50, 100])
    def test_matches_iterated_steps(self, t):
        sched = build_schedule(100)
        n = 10_000
        x0 = 1.3
        chain = np.full(n, x0)
        rng = RngStream(seed=100 + t)
        for step in range(1, t + 1):
            chain = forward_step(chain, step, sched, rng)
        direct = forward_marginal(np.full(n, x0), t, sched, RngStream(seed=200 + t))
        se_mean = (chain.std() + direct.std()) / np.sqrt(n)
        assert abs(chain.mean() - direct.mean()) <= 3 * se_mean
        se_var = (chain.var() + direct.var()) * np.sqrt(2.0 / n)
        assert abs(chain.var() - direct.var()) <= 3 * se_var

    def test_deep_noise_is_standard_normal(self):
        # drive alpha_bar below 1e-3 with a strong schedule
        sched = linear_schedule(100, 0.05, 0.1)
        assert sched.alpha_bar[-1] < 1e-3
        n = 10_000
        out = forward_marginal(np.full(n, 2.0), 100, sched, RngStream(seed=7))
        assert abs(out.mean()) <= 3 / np.sqrt(n) + abs(2.0 * np.sqrt(sched.alpha_bar[-1]))
        assert abs(out.var() - 1.0) <= 3 * np.sqrt(2.0 / n) + sched.alpha_bar[-1] * 4


class TestReverseStep:
    def test_final_step_deterministic(self):
        sched = build_schedule(3)
        rng = RngStream(seed=8)
        model = zero_model()
        x = RngStream(seed=9).normal((8,))
        out = reverse_step(x, 1, np.zeros(3), model, sched, rng)
        assert rng.counter == 0  # no noise drawn at t=1
        assert np.array_equal(out, x / np.sqrt(sched.alpha[0]))

    def test_oracle_inversion_single_step(self):
        sched = linear_schedule(1, 0.3, 0.3)
        rng = RngStream(seed=10)
        x0 = rng.normal((8,))
        eps = rng.normal((8,))
        x1 = np.sqrt(sched.alpha_bar[0]) * x0 + np.sqrt(1 - sched.alpha_bar[0]) * eps

        class Oracle:
            latent_size = 8
            cond_dim = 3

            def predict_noise(self, latent, cond):
                return eps

        out = reverse_step(x1, 1, np.zeros(3), Oracle(), sched, RngStream(seed=11))
        assert np.max(np.abs(out - x0)) <= 1e-9

    def test_last_step_returns_x0_given_its_exact_eps(self):
        # abar_1 = alpha_1 and 1 - alpha_1 = beta_1, so the step's coefficients cancel to x0
        sched = build_schedule(100)
        x0 = RngStream(seed=16).normal((8,))
        noise = RngStream(seed=17)
        for _ in range(20):
            x_1, model = exact_eps_case(x0, noise.normal((8,)), 1, sched)
            out = reverse_step(x_1, 1, np.zeros(3), model, sched, RngStream(seed=18))
            assert np.max(np.abs(out - x0)) <= 1e-12

    @pytest.mark.parametrize("t", [2, 50, 100])
    def test_step_less_its_noise_is_the_ddpm_posterior_mean(self, t):
        """Ho et al. (arXiv 2006.11239), eq. 7: given the exact eps of x0, the
        step's mean is c1 x0 + c2 x_t."""
        sched = build_schedule(100)
        x0 = RngStream(seed=19).normal((8,))
        x_t, model = exact_eps_case(x0, RngStream(seed=20).normal((8,)), t, sched)
        out = reverse_step(x_t, t, np.zeros(3), model, sched, RngStream(seed=21))
        z = RngStream(seed=21).normal((8,))  # a second stream with the step's key makes its draw
        b, a = sched.beta[t - 1], sched.alpha[t - 1]
        ab, ab_prev = sched.alpha_bar[t - 1], sched.alpha_bar[t - 2]
        c1 = np.sqrt(ab_prev) * b / (1.0 - ab)
        c2 = np.sqrt(a) * (1.0 - ab_prev) / (1.0 - ab)
        assert np.max(np.abs(out - np.sqrt(b) * z - (c1 * x0 + c2 * x_t))) <= 1e-12

    def test_zero_model_closed_form_with_noise(self):
        sched = build_schedule(10)
        t = 5
        x = RngStream(seed=12).normal((8,))
        out = reverse_step(x, t, np.zeros(3), zero_model(), sched, RngStream(seed=13))
        z = RngStream(seed=13).normal((8,))  # same stream state the step consumed
        b = sched.beta[t - 1]
        expected = x / np.sqrt(sched.alpha[t - 1]) + np.sqrt(b) * z
        assert np.allclose(out, expected, atol=1e-15)

    def test_shape_preserved(self):
        sched = build_schedule(4)
        out = reverse_step(
            np.ones(8), 2, np.zeros(3), zero_model(), sched, RngStream(seed=14)
        )
        assert out.shape == (8,)

    def test_step_validation(self):
        with pytest.raises(StepError):
            reverse_step(np.ones(8), 0, np.zeros(3), zero_model(), build_schedule(4), RngStream(seed=15))


class TestScalarReference:
    """The forward and reverse steps read the schedule's tables; each
    equals the scalar formula of ``reference`` from beta alone, bit for
    bit, at every step of two schedules."""

    SCHEDULES = {"build": build_schedule(100), "steep": linear_schedule(7, 0.05, 0.3)}

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_forward_step_and_marginal(self, name):
        sched = self.SCHEDULES[name]
        x = RngStream(seed=40).normal((3, 8))
        for t in range(1, sched.T + 1):
            for step, ref in ((forward_step, reference.forward_step),
                              (forward_marginal, reference.forward_marginal)):
                out = step(x, t, sched, RngStream(seed=41).split(t))
                want = ref(x, t, sched.beta, RngStream(seed=41).split(t))
                assert out.tobytes() == want.tobytes(), (step.__name__, t)

    @pytest.mark.parametrize("guidance_scale", [1.0, 7.5])
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_reverse_step(self, name, guidance_scale):
        sched = self.SCHEDULES[name]
        rng = RngStream(seed=42)
        model = make_denoiser(4, 2, 3, 6, rng.split("model")).with_identity(rng.normal((6,)))
        x, cond = rng.normal((8,)), rng.normal((3,))
        for t in range(1, sched.T + 1):
            out = reverse_step(x, t, cond, model, sched, RngStream(seed=43).split(t), guidance_scale)
            want = reference.reverse_step(x, t, cond, model, sched.beta, RngStream(seed=43).split(t),
                                          guidance_scale)
            assert out.tobytes() == want.tobytes(), t


class TestSample:
    def setup_method(self):
        self.model = make_denoiser(4, 2, 3, 6, RngStream(seed=16))
        self.sched = build_schedule(20)

    def test_deterministic(self):
        a = sample(self.model, np.zeros(3), self.sched, rng=RngStream(seed=17))
        b = sample(self.model, np.zeros(3), self.sched, rng=RngStream(seed=17))
        assert a.tobytes() == b.tobytes()

    def test_window_zero_never_reads_guide(self):
        plain = sample(self.model, np.zeros(3), self.sched, rng=RngStream(seed=18))
        poisoned = sample(
            self.model, np.zeros(3), self.sched,
            window=0, guide=np.full(8, 1e12), rng=RngStream(seed=18),
        )
        assert np.array_equal(plain, poisoned)

    def test_window_requires_guide(self):
        with pytest.raises(ConfigError):
            sample(self.model, np.zeros(3), self.sched, window=3, rng=RngStream(seed=19))

    def test_window_beyond_steps_rejected(self):
        """So is a negative window."""
        with pytest.raises(ConfigError):
            sample(
                self.model, np.zeros(3), self.sched,
                window=21, guide=np.zeros(8), rng=RngStream(seed=20),
            )
        with pytest.raises(ConfigError, match="must be >= 0"):
            sample(self.model, np.zeros(3), self.sched, window=-1, guide=np.zeros(8), rng=RngStream(seed=20))

    def test_default_window_fraction(self):
        sched = build_schedule(100)
        guide = RngStream(seed=21).normal((8,))
        out = sample(
            self.model, np.zeros(3), sched,
            window=25, guide=guide, rng=RngStream(seed=22),
        )
        assert out.shape == (8,)
        assert np.all(np.isfinite(out))

    def test_ideal_denoiser_lands_on_a_training_latent(self):
        """The reverse process end to end: sampled with the ideal denoiser
        of K face latents and guided by them, every trajectory ends on one
        of the K latents, to rounding. Which one depends on the codec (with
        this one, its own guide's latent about half the time), so that is
        not asserted. The shape, codec and faces are criterion 8's."""
        sched = build_schedule(100)
        codec = make_codec((2, 32, 32), 128, RngStream(seed=3).split("codec"))
        latents = np.stack([encode(render_face(p, 32), codec) for p in face_grid(8, seed=11)])
        model = IdealDenoiser(latents, sched)
        z = sample(model, np.zeros(3), sched, rng=_streams(24, 3 * len(latents)), window=25,
                   guide=np.repeat(latents, 3, axis=0), subject_guidance=0.95)
        assert model.t == 0  # one prediction per step
        nearest = np.abs(z[:, None, :] - latents).max(axis=-1).min(axis=1)
        assert nearest.max() <= 1e-12

    @pytest.mark.parametrize("streams", [1, 3])
    def test_non_finite_result_raises(self, streams):
        """A guidance scale that overflows the latents raises instead of
        returning them, for one trajectory and for a batch."""
        rng = RngStream(seed=23) if streams == 1 else _streams(23, streams)
        with pytest.raises(EvaluationError, match="non-finite"):
            sample(self.model, np.ones(3), self.sched, rng=rng, guidance_scale=1e308)


# sha256 of enc then dec of make_codec(shape, z, RngStream(seed=7).split("codec")): the bytes of
# the pipeline's codecs, which any rewrite of make_codec must keep
CODEC_SHA256 = {
    ((2, 64, 64), 64): "f1931121532d9dcc6e2fbfc1cf1669bee99625f377525977b8d7c67fc83ad02c",
    ((2, 32, 32), 128): "ca35b38808b0cc102f07670957f86fc8965bbf30c98f2a13705ab18a5b8104a2",
}


class TestCodec:
    def test_square_codec_round_trip(self):
        rng = RngStream(seed=23)
        codec = make_codec((2, 4, 4), 32, rng)
        img = rng.uniform((2, 4, 4))
        assert np.max(np.abs(decode(encode(img, codec), codec) - img)) <= 1e-9

    def test_reducing_codec_shape(self):
        codec = make_codec((2, 8, 8), 16, RngStream(seed=24))
        z = encode(RngStream(seed=25).uniform((2, 8, 8)), codec)
        assert z.shape == (16,)

    def test_orthonormal_rows(self):
        codec = make_codec((2, 8, 8), 16, RngStream(seed=26))
        assert np.max(np.abs(codec.enc @ codec.dec - np.eye(16))) <= 1e-9

    def test_reconstruction_error_is_projection_residual(self):
        rng = RngStream(seed=27)
        codec = make_codec((2, 6, 6), 10, rng)
        img = rng.uniform((2, 6, 6))
        flat = img.reshape(-1)
        projected = codec.dec @ (codec.enc @ flat)  # explicit projection oracle
        recon = decode(encode(img, codec), codec).reshape(-1)
        assert np.max(np.abs(recon - projected)) <= 1e-12
        residual = np.linalg.norm(flat - projected)
        assert abs(np.linalg.norm(flat - recon) - residual) <= 1e-12

    def test_dimension_mismatch(self):
        codec = make_codec((2, 4, 4), 8, RngStream(seed=28))
        with pytest.raises(ShapeError):
            encode(np.ones((2, 5, 5)), codec)
        with pytest.raises(ShapeError):
            decode(np.ones(9), codec)

    def test_latent_dim_validation(self):
        with pytest.raises(ConfigError):
            make_codec((2, 4, 4), 33, RngStream(seed=29))

    @pytest.mark.parametrize("shape, z", [((2, 64, 64), 64), ((2, 32, 32), 128)])
    def test_bytes_independent_of_blas_threads(self, shape, z):
        """The pipeline's codec shapes, built in fresh processes at 1, 2
        and 4 BLAS threads, give one set of bytes: the pinned sha256 of
        ``enc`` then ``dec``."""
        code = (
            "import hashlib, sys; from craftfaces.diffusion import make_codec;"
            " from craftfaces.numerics import RngStream;"
            f" c = make_codec({shape}, {z}, RngStream(seed=7).split('codec'));"
            " sys.stdout.write(hashlib.sha256(c.enc.tobytes() + c.dec.tobytes()).hexdigest())"
        )
        src = str(Path(craftfaces.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert digests == {CODEC_SHA256[shape, z]}

    @pytest.mark.parametrize("shape, z, seed", [((2, 64, 64), 64, 7), ((2, 32, 32), 128, 7),
                                                ((2, 8, 8), 16, 26), ((2, 4, 4), 32, 23)])
    def test_q_factor_of_the_draw(self, shape, z, seed):
        """Q is orthonormal, QᵀA is upper triangular with a positive
        diagonal, and Q is LAPACK's Q up to column signs, square case
        (z = n) included. ``A`` is the draw ``make_codec`` factors."""
        n = int(np.prod(shape))
        codec = make_codec(shape, z, RngStream(seed=seed))
        q, a = codec.dec, RngStream(seed=seed).normal((n, z))
        assert np.array_equal(codec.enc, q.T)
        assert np.max(np.abs(q.T @ q - np.eye(z))) <= 1e-14
        r = q.T @ a
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
        assert np.all(np.diag(r) > 0)
        q_lapack, r_lapack = np.linalg.qr(a)
        assert np.max(np.abs(q - q_lapack * np.sign(np.diag(r_lapack)))) <= 1e-13

    @pytest.mark.parametrize("shape, z", [((2, 5, 7), 9), ((1, 3, 3), 4), ((2, 9, 9), 5)])
    def test_encoder_is_the_transposed_decoder(self, shape, z):
        """``enc`` is derived from ``dec`` with the bytes of ``dec.T.copy()``
        when n is not a multiple of the transpose block, and both arrays are
        read-only; the decoder passed in stays writeable."""
        n = math.prod(shape)
        assert n % 64
        dec = RngStream(seed=30).normal((n, z))
        for codec in (LatentCodec(dec, shape), make_codec(shape, z, RngStream(seed=31))):
            assert codec.enc.tobytes() == codec.dec.T.copy().tobytes()
            assert (codec.z_dim, codec.n_dim) == (z, n)
            for a in (codec.enc, codec.dec):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0
        assert LatentCodec(dec, shape).dec.tobytes() == dec.tobytes()
        dec[0, 0] = 1.0

    def test_only_the_decoder_is_settable(self):
        dec = np.eye(8)[:, :2]
        with pytest.raises(TypeError):
            LatentCodec(dec, (2, 2, 2), enc=dec.T.copy())
        with pytest.raises(ShapeError, match="does not fit"):
            LatentCodec(dec, (2, 2, 3))

    def test_cholesky_zero_pivot_raises(self):
        gram = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # pivot 1 is 1 - 1 = 0
        with pytest.raises(EvaluationError, match="pivot 1"):
            _cholesky_upper(gram)


class TestDenoiserModel:
    def test_zero_weights_zero_output(self):
        model = zero_model()
        out = model.predict_noise(np.ones(8), np.ones(3))
        assert np.array_equal(out, np.zeros(8))

    def test_output_shape_matches_input(self):
        model = make_denoiser(4, 2, 3, 6, RngStream(seed=30))
        latent = RngStream(seed=31).normal((8,))
        assert model.predict_noise(latent, np.zeros(3)).shape == latent.shape
        latent2 = latent.reshape(4, 2)
        assert model.predict_noise(latent2, np.zeros(3)).shape == (4, 2)

    def test_token_dim_is_read_from_the_weights(self):
        model = make_denoiser(4, 3, 5, 6, RngStream(seed=33))
        assert (model.token_dim, model.latent_size) == (3, 12)
        with pytest.raises(TypeError):
            replace(model, token_dim=3)

    def test_size_mismatch(self):
        model = zero_model()
        with pytest.raises(ShapeError):
            model.predict_noise(np.ones(7), np.zeros(3))
        with pytest.raises(ShapeError):
            model.predict_noise(np.ones(8), np.zeros(2))

    def test_backward_matches_finite_differences(self):
        """Every weight's gradient, on the plain path, with one identity
        for the batch, and with one identity per item (zero rows included).
        One relative error over all weights: ``u_k``'s gradient is about
        1e-17 (the softmax cancels a shift shared by every key), so a
        per-weight bound would compare rounding noise."""
        rng = RngStream(seed=32)
        plain = make_denoiser(4, 3, 5, 6, rng.split("model"))
        x_t, cond, eps = rng.normal((4, 12)), rng.normal((4, 5)), rng.normal((4, 12))
        per_item = rng.normal((4, 6)) * np.array([[0.0], [1.0], [0.0], [1.0]])
        for ident in (None, rng.normal((6,)), per_item):
            model = plain.with_identity(ident)
            params = model.params()
            loss, grads = _denoise_loss_and_grad(model, x_t, cond, eps)
            assert abs(loss - denoise_loss(model, x_t, cond, eps)) <= 1e-12
            assert list(grads) == list(params)
            analytic = np.concatenate([g.ravel() for g in grads.values()])
            numeric = np.concatenate([
                finite_diff_grad(
                    lambda w: denoise_loss(model.with_params({**params, name: w}), x_t, cond, eps),
                    params[name],
                ).ravel()
                for name in params
            ])
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel <= 1e-6

    @pytest.mark.parametrize("with_identity", [False, True])
    @pytest.mark.parametrize(
        "names",
        [("u_q", "u_k"), ("w_q", "w_k", "w_v"), ("w_q",), ("w_v",), ("cond_b",), ("head_w", "head_b")],
    )
    def test_named_gradients_equal_the_full_call(self, names, with_identity):
        """Differentiating only the named weights gives exactly those
        entries of the full call, in ``params`` order, and the same loss.
        The subsets include the ones in use: the identity blocks (the
        identity phase of the attention ablation) and the LoRA targets."""
        rng = RngStream(seed=34)
        model = make_denoiser(16, 8, 8, 6, rng.split("model"))
        x_t, cond, eps = rng.normal((16, 128)), rng.normal((8,)), rng.normal((16, 128))
        model = model.with_identity(rng.normal((16, 6)) if with_identity else None)
        full_loss, full = _denoise_loss_and_grad(model, x_t, cond, eps)
        loss, part = _denoise_loss_and_grad(model, x_t, cond, eps, names)
        assert loss == full_loss
        assert list(part) == [name for name in full if name in names]
        for name in names:
            assert part[name].tobytes() == full[name].tobytes(), name

    @pytest.mark.parametrize("token_dim", [3, 4, 8])
    @pytest.mark.parametrize("with_identity", [False, True])
    def test_batched_backward_equals_in_order_item_sum(self, token_dim, with_identity):
        """One stacked backward gives the bytes of summing single-item
        results in item order and dividing by the batch size; its loss has
        the bytes of the per-item ``predict_noise`` loss."""
        rng = RngStream(seed=33).split(token_dim)
        model = make_denoiser(16, token_dim, 8, 6, rng.split("model"))
        size = model.latent_size
        for b in range(1, 17):
            r = rng.split(b)
            x_t, cond, eps = r.normal((b, size)), r.normal((b, 8)), r.normal((b, size))
            ident = r.normal((b, 6)) if with_identity else None
            batched = model.with_identity(ident)
            loss, grads = _denoise_loss_and_grad(batched, x_t, cond, eps)
            singles = [
                _denoise_loss_and_grad(
                    model.with_identity(None if ident is None else ident[i : i + 1]),
                    x_t[i : i + 1], cond[i : i + 1], eps[i : i + 1],
                )
                for i in range(b)
            ]
            want_loss = 0.0
            want = {name: np.zeros_like(w) for name, w in model.params().items()}
            for item_loss, item_grads in singles:
                want_loss += item_loss
                for name in want:
                    want[name] += item_grads[name]
            assert loss == want_loss / b == denoise_loss(batched, x_t, cond, eps)
            assert list(grads) == list(want)
            for name in want:
                assert grads[name].tobytes() == (want[name] / b).tobytes(), (b, name)


def _streams(seed, b):
    return [RngStream(seed=seed).split(i) for i in range(b)]


def _identity(kind, rng, b):
    """None, one identity for the batch, or one per item; and item i's own."""
    ident = {"none": None, "shared": rng.normal((6,)), "per-item": rng.normal((b, 6))}[kind]
    return ident, (lambda i: ident if ident is None or ident.ndim == 1 else ident[i])


class TestBatch:
    """A batch of B items, each on its own stream, has the bytes of B
    single calls, and each stream ends where its single call left it."""

    def setup_method(self):
        self.model = make_denoiser(16, 8, 8, 6, RngStream(seed=40))
        self.size = self.model.latent_size

    @pytest.mark.parametrize("identity", ["none", "shared", "per-item"])
    @pytest.mark.parametrize("guidance", [1.0, 7.5])
    @pytest.mark.parametrize("window", [0, 4])
    def test_sample_equals_single_calls(self, window, guidance, identity):
        sched = build_schedule(8)
        for b in range(1, 17):
            r = RngStream(seed=41).split(b)
            cond = r.normal((8,))
            ident, own = _identity(identity, r, b)
            guides = r.normal((b, self.size))
            forms = [(guides, lambda i: guides[i]), (guides[0], lambda i: guides[0])]  # per item, shared
            for guide, guide_of in forms if window else [(None, lambda i: None)]:
                streams = _streams(b, b)
                batched = sample(
                    self.model.with_identity(ident), cond, sched, window=window, guide=guide,
                    rng=streams, subject_guidance=0.9, guidance_scale=guidance,
                )
                assert batched.shape == (b, self.size)
                for i, single_rng in enumerate(_streams(b, b)):
                    single = sample(
                        self.model.with_identity(own(i)), cond, sched, window=window,
                        guide=guide_of(i), rng=single_rng,
                        subject_guidance=0.9, guidance_scale=guidance,
                    )
                    assert batched[i].tobytes() == single.tobytes(), (b, i)
                    assert streams[i].counter == single_rng.counter

    @pytest.mark.parametrize("identity", ["none", "shared", "per-item"])
    @pytest.mark.parametrize("guidance", [1.0, 7.5])
    def test_reverse_step_and_predict_noise_equal_single_calls(self, guidance, identity):
        sched = build_schedule(10)
        for b in range(1, 17):
            r = RngStream(seed=42).split(b)
            x = r.normal((b, self.size))
            ident, own = _identity(identity, r, b)
            model = self.model.with_identity(ident)
            for cond in (r.normal((8,)), r.normal((b, 8))):  # shared, per item
                eps = model.predict_noise(x, cond)
                for i in range(b):
                    c = cond[i] if cond.ndim == 2 else cond
                    single = self.model.with_identity(own(i)).predict_noise(x[i], c)
                    assert eps[i].tobytes() == single.tobytes(), (b, i)
            cond = r.normal((8,))
            for t in (1, 6):
                streams = _streams(b + t, b)
                out = reverse_step(x, t, cond, model, sched, streams, guidance)
                for i, single_rng in enumerate(_streams(b + t, b)):
                    single = reverse_step(
                        x[i], t, cond, self.model.with_identity(own(i)), sched, single_rng, guidance
                    )
                    assert out[i].tobytes() == single.tobytes(), (b, i, t)
                    assert streams[i].counter == single_rng.counter

    @pytest.mark.parametrize("guidance", [1.0, 7.5])
    def test_stream_named_twice_draws_once_for_both_rows(self, guidance):
        """Rows naming one stream object both get that stream's solo
        trajectory, whatever their identities; the stream ends where its
        solo call left it, and a stream named once is unaffected."""
        sched = build_schedule(8)
        r = RngStream(seed=45)
        cond, guide = r.normal((8,)), r.normal((self.size,))
        shared, alone = RngStream(seed=46), RngStream(seed=47)
        idents = np.stack([np.zeros(6), r.normal((6,)), r.normal((6,))])
        out = sample(
            self.model.with_identity(idents), cond, sched, window=3, guide=guide,
            rng=[shared, alone, shared], subject_guidance=0.9, guidance_scale=guidance,
        )
        for row, ident, seed in ((0, None, 46), (1, idents[1], 47), (2, idents[2], 46)):
            solo_rng = RngStream(seed=seed)
            solo = sample(
                self.model.with_identity(ident), cond, sched, window=3, guide=guide,
                rng=solo_rng, subject_guidance=0.9, guidance_scale=guidance,
            )
            assert out[row].tobytes() == solo.tobytes(), row
            assert (shared if seed == 46 else alone).counter == solo_rng.counter

    @pytest.mark.parametrize("identity", ["none", "shared", "per-item"])
    @pytest.mark.parametrize("guidance", [1.0, 7.5])
    def test_sample_equals_its_loop_of_steps(self, guidance, identity):
        """``sample`` computes its guidance terms once per call and has the
        bits of the loop it stands for: the initial draw, then per step the
        noised guide inside the window and ``reverse_step``, which computes
        them per call. For one latent, and for a batch that names one stream
        twice."""
        sched = build_schedule(8)
        r = RngStream(seed=48).split(identity)
        cond = r.normal((8,))
        for b in (None, 3):
            ident, _ = _identity(identity, r, b or 1)
            model = self.model.with_identity(ident)
            guide = r.normal(((b,) if b else ()) + (self.size,))

            def streams():
                if b is None:
                    return RngStream(seed=49)
                first, second = _streams(49, 2)
                return [first, second, first]

            got = sample(model, cond, sched, window=3, guide=guide, rng=streams(), subject_guidance=0.9,
                         guidance_scale=guidance)
            rng = streams()
            x = _Streams.of(rng, guide.shape).normal(guide.shape)
            for t in range(sched.T, 0, -1):
                if t > sched.T - 3:
                    x = (1.0 - 0.9) * x + 0.9 * forward_marginal(guide, t, sched, rng)
                x = reverse_step(x, t, cond, model, sched, rng, guidance)
            assert got.tobytes() == x.tobytes(), b

    @pytest.mark.parametrize("guidance", [1.0, 7.5])
    def test_sample_and_reverse_step_write_none_of_their_inputs(self, guidance):
        """The sampler updates its running latent in place; the latent,
        guide, cond and identity the caller passes keep their bytes."""
        sched = build_schedule(6)
        r = RngStream(seed=50)
        cond, ident, guide, x = r.normal((8,)), r.normal((3, 6)), r.normal((3, self.size)), r.normal((3, self.size))
        before = [a.tobytes() for a in (cond, ident, guide, x)]
        model = self.model.with_identity(ident)
        sample(model, cond, sched, window=3, guide=guide, rng=_streams(51, 3), guidance_scale=guidance)
        reverse_step(x, 4, cond, model, sched, _streams(52, 3), guidance)
        assert [a.tobytes() for a in (cond, ident, guide, x)] == before

    def test_length_mismatch_raises_shape_error(self):
        sched = build_schedule(5)
        model, size, cond = self.model, self.size, np.zeros(8)
        streams = _streams(43, 3)
        cases = [
            dict(model=model, window=2, guide=np.zeros((2, size))),
            dict(model=model.with_identity(np.zeros((2, 6)))),
        ]
        for case in cases:
            with pytest.raises(ShapeError):
                sample(case.pop("model"), cond, sched, rng=streams, guidance_scale=7.5, **case)
        assert [s.counter for s in streams] == [0, 0, 0]  # nothing drawn
        x = np.zeros((2, size))
        with pytest.raises(ShapeError):
            reverse_step(x, 3, cond, model, sched, streams)
        with pytest.raises(ShapeError):
            reverse_step(x, 3, cond, model.with_identity(np.zeros((3, 6))), sched, _streams(43, 2))
        with pytest.raises(ShapeError):
            model.predict_noise(x, np.zeros((3, 8)))
        with pytest.raises(ShapeError):
            model.with_identity(np.zeros((3, 6))).predict_noise(x, cond)
        with pytest.raises(ShapeError):
            model.predict_noise(np.zeros((2, size + 1)), cond)

    def test_cond_row_product_equals_vector_product(self):
        """The conditioning projection keeps each row its own product:
        ``(B, 1, c) @ W`` has the bytes of B ``(c,) @ W`` products."""
        rng = RngStream(seed=44)
        for k in range(200):
            r = rng.split(k)
            b, c, d = (int(v) for v in r.integers(1, 17, (3,)))
            cond, w = r.normal((b, c)), r.normal((c, d))
            rows = cond[:, None, :] @ w
            for i in range(b):
                assert rows[i, 0].tobytes() == (cond[i] @ w).tobytes()
