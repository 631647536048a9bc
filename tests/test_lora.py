import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craftfaces import lora
from craftfaces.attention import AttentionWeights, ExtendedAttentionWeights
from craftfaces.diffusion import make_denoiser
from craftfaces.errors import ConfigError, InputError, ShapeError, TrainingError
from craftfaces.lora import (
    LoRAAdapter,
    LoRATrainConfig,
    _adapted_loss,
    _batch,
    _factor_grad,
    _init_adapter,
    apply_to_attention,
    load_adapters,
    merge,
    save_adapters,
    train_lora,
)
from craftfaces.numerics import RngStream, finite_diff_grad
import reference
from reference import denoise_loss


def toy_linear_task(seed):
    """Denoiser plus data whose targets are a fixed linear map of the
    latent tokens; used by the descent checks."""
    rng = RngStream(seed=seed)
    model = make_denoiser(16, 4, 8, 6, rng.split("model"), weight_scale=0.2)
    target_map = 0.5 * rng.normal((4, 4))
    data = []
    for _ in range(8):
        latent = rng.normal((64,))
        target = (latent.reshape(16, 4) @ target_map).reshape(64)
        data.append((latent, np.zeros(8), target))
    return model, data


class TestMerge:
    def test_zero_adapter_is_identity(self):
        rng = RngStream(seed=1)
        w = rng.normal((3, 4))
        ad = _init_adapter(3, 4, rank=2, alpha=4.0, rng=rng)
        assert merge(w, ad).tobytes() == w.tobytes()

    def test_hand_outer_product(self):
        # alpha=2, A=[1,0]^T, B=[0,1] adds [[0,2],[0,0]]
        w = np.array([[1.0, 1.0], [1.0, 1.0]])
        ad = LoRAAdapter(
            a=np.array([[1.0], [0.0]]), b=np.array([[0.0, 1.0]]), alpha=2.0, rank=1
        )
        assert np.array_equal(merge(w, ad), [[1.0, 3.0], [1.0, 1.0]])

    def test_merge_exactness(self):
        rng = RngStream(seed=2)
        for k in range(20):
            r = rng.split(k)
            w = r.normal((5, 6))
            ad = LoRAAdapter(a=r.normal((5, 3)), b=r.normal((3, 6)), alpha=1.7, rank=3)
            delta = merge(w, ad) - w - ad.alpha * (ad.a @ ad.b)
            assert np.max(np.abs(delta)) <= 1e-12

    def test_update_rank_bounded(self):
        rng = RngStream(seed=3)
        w = rng.normal((8, 8))
        ad = LoRAAdapter(a=rng.normal((8, 2)), b=rng.normal((2, 8)), alpha=3.0, rank=2)
        sv = np.linalg.svd(merge(w, ad) - w, compute_uv=False)
        assert np.all(sv[2:] <= 1e-9 * sv[0])

    def test_shape_mismatch(self):
        ad = _init_adapter(3, 4, rank=1, alpha=1.0, rng=RngStream(seed=4))
        with pytest.raises(ShapeError):
            merge(np.ones((4, 3)), ad)

    def test_rank_past_the_matrix_rejected_before_the_draw(self):
        """A huge rank would otherwise ask for a (d, rank) draw first."""
        rng = RngStream(seed=4)
        with pytest.raises(ConfigError, match=r"rank 100 exceeds min\(4, 4\)"):
            _init_adapter(4, 4, rank=100, alpha=8.0, rng=rng)
        assert rng.counter == 0

    def test_invariants(self):
        with pytest.raises(ConfigError):
            LoRAAdapter(a=np.ones((2, 3)), b=np.ones((3, 2)), alpha=1.0, rank=3)
        with pytest.raises(ShapeError, match="disagree with rank 2"):
            LoRAAdapter(a=np.ones((4, 2)), b=np.ones((3, 4)), alpha=1.0, rank=2)
        for alpha in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                LoRAAdapter(a=np.ones((4, 2)), b=np.ones((2, 4)), alpha=alpha, rank=2)


class TestApplyToAttention:
    def setup_method(self):
        rng = RngStream(seed=5)
        self.base = AttentionWeights(
            w_q=rng.normal((4, 4)), w_k=rng.normal((4, 4)), w_v=rng.normal((4, 4))
        )
        self.ext = ExtendedAttentionWeights(
            base=self.base, u_q=rng.normal((6, 4)), u_k=rng.normal((6, 4))
        )
        self.adapter = _init_adapter(4, 4, rank=2, alpha=2.0, rng=rng)
        self.adapter = LoRAAdapter(
            a=self.adapter.a, b=np.ones((2, 4)), alpha=2.0, rank=2
        )

    def test_empty_set_is_identity(self):
        out = apply_to_attention(self.ext, {})
        assert out.base.w_q is self.base.w_q
        assert out.base.w_k is self.base.w_k
        assert out.base.w_v is self.base.w_v

    def test_only_targeted_matrix_changes(self):
        out = apply_to_attention(self.ext, {"q": self.adapter})
        assert out.base.w_k is self.base.w_k
        assert out.base.w_v is self.base.w_v
        assert not np.array_equal(out.base.w_q, self.base.w_q)

    def test_matches_direct_merge(self):
        out = apply_to_attention(self.ext, {"q": self.adapter})
        assert np.array_equal(out.base.w_q, merge(self.base.w_q, self.adapter))

    def test_extended_weights_keep_identity_blocks(self):
        out = apply_to_attention(self.ext, {"v": self.adapter})
        assert out.u_q is self.ext.u_q
        assert out.u_k is self.ext.u_k
        assert np.array_equal(out.base.w_v, merge(self.base.w_v, self.adapter))

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            apply_to_attention(self.ext, {"o": self.adapter})


class TestTrainLora:
    def test_zero_steps_leaves_model_unchanged(self):
        model, data = toy_linear_task(0)
        adapters = train_lora(model, data, LoRATrainConfig(rank=2, steps=0), RngStream(seed=0))
        for ad in adapters.values():
            assert np.array_equal(ad.b, np.zeros_like(ad.b))
        merged = model.with_attention(apply_to_attention(model.attention, adapters))
        latent, cond, _ = data[0]
        assert np.array_equal(
            merged.predict_noise(latent, cond), model.predict_noise(latent, cond)
        )

    def test_toy_task_descends(self):
        model, data = toy_linear_task(0)
        cfg0 = LoRATrainConfig(rank=2, alpha=8.0, lr=0.1, steps=0)
        start = _adapted_loss(model, data, train_lora(model, data, cfg0, RngStream(seed=0)))
        cfg = LoRATrainConfig(rank=2, alpha=8.0, lr=0.1, steps=60)
        end = _adapted_loss(model, data, train_lora(model, data, cfg, RngStream(seed=0)))
        assert end < start

    @pytest.mark.parametrize("identity", ["none", "shared", "per-item"])
    def test_adapted_loss_equals_the_per_item_loss_bit_for_bit(self, identity):
        """The adapted loss, the batched backward's loss, has the bits of
        the per-item loop over the merged model, with trained (nonzero)
        adapters."""
        for seed in range(5):
            model, data = toy_linear_task(seed)
            rng = RngStream(seed=seed).split("identity")
            ident = {"none": None, "shared": rng.normal((6,)), "per-item": rng.normal((len(data), 6))}[identity]
            model = model.with_identity(ident)
            adapters = train_lora(model, data, LoRATrainConfig(rank=2, steps=3), RngStream(seed=seed))
            merged = model.with_attention(apply_to_attention(model.attention, adapters))
            assert _adapted_loss(model, data, adapters) == denoise_loss(merged, *_batch(data))

    def test_base_weights_frozen(self):
        model, data = toy_linear_task(1)
        before = {
            "q": model.attention.base.w_q.tobytes(),
            "k": model.attention.base.w_k.tobytes(),
            "v": model.attention.base.w_v.tobytes(),
        }
        train_lora(model, data, LoRATrainConfig(rank=2, steps=5), RngStream(seed=1))
        assert model.attention.base.w_q.tobytes() == before["q"]
        assert model.attention.base.w_k.tobytes() == before["k"]
        assert model.attention.base.w_v.tobytes() == before["v"]

    def test_empty_data_with_steps_rejected(self, monkeypatch):
        """Before any adapter is drawn."""
        model, _ = toy_linear_task(2)
        calls = []
        monkeypatch.setattr(lora, "_init_adapter", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match="no training data"):
            train_lora(model, [], LoRATrainConfig(rank=2, steps=5), RngStream(seed=2))
        assert calls == []

    def test_divergence_raises(self):
        model, data = toy_linear_task(2)
        with pytest.raises(TrainingError):
            train_lora(model, data, LoRATrainConfig(rank=2, alpha=1e30, steps=50), RngStream(seed=2))

    @pytest.mark.parametrize("targets", [("q", "k", "v"), ("q", "v")])
    @pytest.mark.parametrize("with_identity", [False, True])
    def test_factor_gradient_matches_finite_differences(self, targets, with_identity):
        model, data = toy_linear_task(3)
        rng = RngStream(seed=4)
        if with_identity:
            model = model.with_identity(rng.normal((6,)))
        adapters = {
            t: LoRAAdapter(a=0.2 * rng.normal((4, 2)), b=0.2 * rng.normal((2, 4)), alpha=8.0, rank=2)
            for t in targets
        }
        # packed here, in target order: A (4x2) then B (2x4) of each target
        packed = np.concatenate([np.append(adapters[t].a, adapters[t].b) for t in targets])

        def loss_of(vec):
            merged = model.with_attention(apply_to_attention(model.attention, {
                t: LoRAAdapter(a=part[:8].reshape(4, 2), b=part[8:].reshape(2, 4), alpha=8.0, rank=2)
                for t, part in zip(targets, vec.reshape(len(targets), 16))
            }))
            return np.mean([np.mean((merged.predict_noise(x, c) - y) ** 2) for x, c, y in data])

        grads = _factor_grad(model, _batch(data), adapters)
        assert list(grads) == list(targets)
        analytic = np.concatenate([np.append(*grads[t]) for t in targets])
        numeric = finite_diff_grad(loss_of, packed)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel <= 1e-6

    def test_full_scale_config_accepted(self):
        cfg = LoRATrainConfig(rank=64, alpha=128.0)
        ad = _init_adapter(128, 96, rank=cfg.rank, alpha=cfg.alpha, rng=RngStream(seed=3))
        assert ad.rank == 64
        assert merge(np.zeros((128, 96)), ad).shape == (128, 96)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LoRATrainConfig(steps=-1)
        with pytest.raises(ConfigError):
            LoRATrainConfig(lr=0.0)
        with pytest.raises(ConfigError, match="rank must be >= 1, got 0"):
            LoRATrainConfig(rank=0)


def test_adapter_csv_round_trip(tmp_path):
    rng = RngStream(seed=6)
    adapters = {
        "q": LoRAAdapter(a=rng.normal((4, 2)), b=rng.normal((2, 4)), alpha=8.0, rank=2),
        "v": LoRAAdapter(a=rng.normal((4, 1)), b=rng.normal((1, 4)), alpha=2.5, rank=1),
    }
    path = tmp_path / "adapters.csv"
    save_adapters(path, adapters)
    loaded = load_adapters(path)
    assert set(loaded) == {"q", "v"}
    for key in adapters:
        assert np.array_equal(loaded[key].a, adapters[key].a)
        assert np.array_equal(loaded[key].b, adapters[key].b)
        assert loaded[key].alpha == adapters[key].alpha
        assert loaded[key].rank == adapters[key].rank


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _adapters(draw):
    out = {}
    for target in draw(st.sets(st.sampled_from(("q", "k", "v")), min_size=1)):
        d, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        rank = draw(st.integers(1, min(d, k)))
        out[target] = LoRAAdapter(
            a=draw(arrays(np.float64, (d, rank), elements=_finite)),
            b=draw(arrays(np.float64, (rank, k), elements=_finite)),
            alpha=draw(st.floats(min_value=1e-300, max_value=1e300)),
            rank=rank,
        )
    return out


@settings(max_examples=60, deadline=None)
@given(_adapters())
@example({})  # a header alone loads as no adapters
@example({
    "k": LoRAAdapter(a=np.array([[-0.0], [5e-324], [1e16], [2.2250738585072014e-308 / 3]]),
                     b=np.array([[0.0, -1e16, 0.1]]), alpha=8, rank=1),  # an int alpha, as a JSON config gives
    "q": LoRAAdapter(a=np.array([[1.0]]), b=np.array([[-5e-324]]), alpha=2.5, rank=1),
})
def test_adapter_csv_round_trip_is_bit_exact(adapters):
    """``save_adapters`` writes the bytes of the ``csv.writer`` walk in
    ``reference.adapters_csv``, and they load back bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        path, want = os.path.join(tmp, "adapters.csv"), os.path.join(tmp, "reference.csv")
        save_adapters(path, adapters)
        reference.adapters_csv(want, adapters)
        with open(path, "rb") as got, open(want, "rb") as ref:
            assert got.read() == ref.read()
        loaded = load_adapters(path)
    assert set(loaded) == set(adapters)
    for key, ad in adapters.items():
        assert loaded[key].a.tobytes() == ad.a.tobytes() and loaded[key].a.shape == ad.a.shape
        assert loaded[key].b.tobytes() == ad.b.tobytes() and loaded[key].b.shape == ad.b.shape
        assert (loaded[key].alpha, loaded[key].rank) == (ad.alpha, ad.rank)


def test_adapter_csv_of_int_and_float32_factors_has_the_reference_bytes(tmp_path):
    """Each entry is written as the ``repr`` of its value as a float, whatever the factor's dtype."""
    adapters = {"v": LoRAAdapter(a=np.array([[1], [-2]]), b=np.array([[0.1, 3.0]], dtype=np.float32), alpha=1.0,
                                 rank=1)}
    save_adapters(tmp_path / "adapters.csv", adapters)
    reference.adapters_csv(tmp_path / "reference.csv", adapters)
    assert (tmp_path / "adapters.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_unknown_target_not_saved(tmp_path):
    """A target ``load_adapters`` would refuse is refused before any file is written."""
    adapter = LoRAAdapter(a=np.ones((2, 1)), b=np.ones((1, 2)), alpha=1.0, rank=1)
    with pytest.raises(ConfigError, match="unknown adapter targets"):
        save_adapters(tmp_path / "adapters.csv", {"q": adapter, "o": adapter})
    assert not (tmp_path / "adapters.csv").exists()


def _drop_column(lines, name):
    keep = [i for i, col in enumerate(lines[0].split(",")) if col != name]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


def _edit_field(lines, line, column, value):
    cells = lines[line].split(",")
    cells[lines[0].split(",").index(column)] = value
    return lines[:line] + [",".join(cells)] + lines[line + 1:]


@pytest.mark.parametrize(
    "malform",
    [
        pytest.param(lambda lines: lines[:3] + lines[4:], id="missing-entry"),
        pytest.param(lambda lines: lines + [lines[2]], id="repeated-entry"),
        pytest.param(lambda lines: [line for line in lines if ",B," not in line], id="missing-factor"),
        pytest.param(lambda lines: _edit_field(lines, 5, "alpha", "2.5"), id="alpha-disagrees"),
        pytest.param(lambda lines: _edit_field(lines, 5, "rank", "1"), id="rank-disagrees"),
        pytest.param(lambda lines: lines[:1] + [ln.rsplit(",", 2)[0] + ",inf,2" for ln in lines[1:]],
                     id="alpha-infinite"),
        pytest.param(lambda lines: _edit_field(lines, 2, "factor", "C"), id="unknown-factor"),
        pytest.param(lambda lines: _edit_field(lines, 2, "target", "o"), id="unknown-target"),
        pytest.param(lambda lines: _edit_field(lines, 2, "value", "x"), id="value-unparsable"),
        pytest.param(lambda lines: _edit_field(lines, 2, "value", "nan"), id="value-not-finite"),
        pytest.param(lambda lines: _edit_field(lines, 2, "row", "-1"), id="negative-index"),
        pytest.param(lambda lines: lines[:2] + [lines[2].rsplit(",", 2)[0]] + lines[3:], id="short-row"),
        pytest.param(lambda lines: _drop_column(lines, "value"), id="missing-column"),
        pytest.param(lambda lines: lines[1:], id="no-header"),
        pytest.param(lambda lines: [], id="empty-file"),
    ],
)
def test_malformed_adapter_file_raises_input_error(tmp_path, malform):
    """Each case is one edit of a file that ``save_adapters`` wrote."""
    rng = RngStream(seed=7)
    path = tmp_path / "adapters.csv"
    adapter = LoRAAdapter(a=rng.normal((2, 2)), b=rng.normal((2, 2)), alpha=8.0, rank=2)
    save_adapters(path, {"q": adapter})
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in malform(lines)))
    with pytest.raises(InputError):
        load_adapters(path)
