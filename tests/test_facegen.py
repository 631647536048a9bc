import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craftfaces import facegen
from craftfaces.errors import ConfigError, InputError
from craftfaces.facegen import (
    ATTRIBUTE_NAMES,
    FaceParams,
    StyleOp,
    _SPRAY_PALETTE,
    _band_index,
    _band_rows,
    _centre_distances,
    _face_bands,
    _jitter_units,
    _quantize,
    _shift_tracks,
    draw_landmarks,
    embed_prompt,
    face_grid,
    graffiti_stylize,
    render_face,
    write_ppm,
)
from craftfaces.identity import attr_loss, extract_attributes
from craftfaces.numerics import RngStream
from imaging import chroma_histogram, palette_mass
from reference import splat_landmarks

BASE = FaceParams(
    eye_spacing=0.3,
    eye_size=0.7,
    nose_length=0.2,
    mouth_width=0.8,
    mouth_curve=0.45,
    face_radius=0.6,
)


class TestRenderFace:
    def test_deterministic(self):
        a = render_face(BASE, 64)
        b = render_face(BASE, 64)
        assert a.tobytes() == b.tobytes()

    def test_attribute_change_changes_pixels(self):
        a = render_face(BASE, 64)
        for name in ATTRIBUTE_NAMES:
            shifted = FaceParams(**{**BASE.__dict__, name: getattr(BASE, name) - 0.2})
            b = render_face(shifted, 64)
            assert np.abs(a - b).sum() > 0.0, name

    def test_render_extract_inverse(self):
        img = render_face(BASE, 64)
        assert np.max(np.abs(extract_attributes(img) - BASE.attributes())) <= 1e-9

    def test_axis_grid_round_trip(self):
        # 11 values per component, swept one component at a time
        for name in ATTRIBUTE_NAMES:
            for v in np.linspace(0.0, 1.0, 11):
                p = FaceParams(**{**BASE.__dict__, name: float(v)})
                img = render_face(p, 64)
                assert np.max(np.abs(extract_attributes(img) - p.attributes())) <= 1e-9

    def test_out_of_range_params(self):
        with pytest.raises(ConfigError):
            render_face(FaceParams(eye_spacing=1.2), 64)

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            render_face(BASE, 16)
        render_face(BASE, 32)  # smallest legal size works

    def test_band_rows_table_is_shared_and_read_only(self):
        rows = _band_rows(64)
        assert _band_rows(64) is rows
        with pytest.raises(TypeError):
            rows["eye_size"] = 0
        assert rows["eye_size"] == round(0.22 * 64)

    def test_cached_grid_renders_the_per_call_formula_bytes(self, monkeypatch):
        """Each size's centre-distance grid is built once, has the bytes of
        the per-call ``np.hypot`` formula, and renders the same bytes as
        that formula would, whatever order the sizes come in."""

        def per_call(size):
            yy, xx = np.arange(size, dtype=np.float64)[:, None], np.arange(size, dtype=np.float64)
            return np.hypot(yy - 0.54 * size, xx - 0.5 * size)

        sizes = (64, 32, 47, 64, 33, 32, 96, 47)
        faces = face_grid(len(sizes), seed=3)
        cached = [render_face(p, size).tobytes() for p, size in zip(faces, sizes)]
        for size in sizes:
            assert _centre_distances(size) is _centre_distances(size)
            assert _centre_distances(size).tobytes() == per_call(size).tobytes()
        with pytest.raises(ValueError):
            _centre_distances(64)[0, 0] = 0.0
        monkeypatch.setattr(facegen, "_centre_distances", per_call)
        assert [render_face(p, size).tobytes() for p, size in zip(faces, sizes)] == cached


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (6,), elements=st.floats(0.0, 1.0)), st.sampled_from((32, 33, 47, 64, 96)),
       st.integers(0, 2**63 - 1))
def test_draw_landmarks_equals_one_splat_at_a_time(attrs, size, seed):
    """The splat layout, written as one block over every band, draws the
    bytes of clearing each band row and adding one splat at a time, on a
    plane whose band rows hold other values first."""
    plane = RngStream(seed=seed).uniform((size, size))
    want = plane.copy()
    splat_landmarks(want, attrs)
    draw_landmarks(plane, attrs)
    assert plane.tobytes() == want.tobytes()


def _argmin_quantize(chroma: np.ndarray) -> np.ndarray:
    """Nearest-tone quantization as one argmin over an (..., 5) distance stack."""
    palette = np.asarray(_SPRAY_PALETTE, dtype=np.float64)
    return palette[np.argmin(np.abs(chroma[..., None] - palette), axis=-1)]


class TestQuantize:
    palette = np.asarray(_SPRAY_PALETTE, dtype=np.float64)
    mids = (palette[:-1] + palette[1:]) / 2

    def test_midpoints_pick_the_lower_tone(self):
        # three of the four midpoints are exact float ties; 0.15 lies nearer 0.05
        ties = [abs(m - lo) == abs(m - hi) for m, lo, hi in zip(self.mids, self.palette, self.palette[1:])]
        assert ties == [False, True, True, True]
        x = self.mids.reshape(2, 2)
        assert _quantize(x).tobytes() == self.palette[:-1].reshape(2, 2).tobytes()
        assert _quantize(x).tobytes() == _argmin_quantize(x).tobytes()

    def test_tones_map_to_themselves(self):
        x = self.palette.reshape(1, -1)
        assert _quantize(x).tobytes() == x.tobytes() == _argmin_quantize(x).tobytes()

    def test_equals_argmin_around_every_midpoint_and_on_random_values(self):
        around = [self.mids + k * np.spacing(self.mids) for k in (-2, -1, 1, 2)]
        x = np.concatenate([*around, [0.0, 1.0], RngStream(seed=3).uniform((400,))]).reshape(2, -1)
        assert _quantize(x).tobytes() == _argmin_quantize(x).tobytes()


def _shift_row(row: np.ndarray, delta: float) -> np.ndarray:
    """One row shifted by ``delta`` with linear resampling, by two integer
    shifts: the per-row oracle for ``_shift_tracks``."""
    k = int(np.floor(delta))
    frac = delta - k

    def shift_int(r: np.ndarray, n: int) -> np.ndarray:
        out = np.zeros_like(r)
        if n >= 0:
            out[n:] = r[: r.size - n] if n else r
        else:
            out[:n] = r[-n:]
        return out

    if frac == 0.0:
        return shift_int(row, k)
    return (1.0 - frac) * shift_int(row, k) + frac * shift_int(row, k + 1)


_values = st.sampled_from((0.0, -0.0, 1.0, 0.5)) | st.floats(-2.0, 2.0)
_deltas = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 40), elements=_values), arrays(np.float64, (n,), elements=_deltas)
)))
def test_shift_tracks_equals_one_shift_per_row(case):
    """Bit for bit, integer offsets and signed zeros included (an integer
    offset must not blend in ``0 * S(k + 1)``, which turns -0.0 into 0.0)."""
    tracks, deltas = case
    want = np.stack([_shift_row(row, float(d)) for row, d in zip(tracks, deltas)])
    assert _shift_tracks(tracks, deltas).tobytes() == want.tobytes()


class TestGraffitiStylize:
    def test_intensity_zero_is_identity(self):
        img = render_face(BASE, 64)
        out = graffiti_stylize(img, StyleOp(intensity=0.0))
        assert out.tobytes() == img.tobytes()

    def test_pure_function_of_image_and_op(self):
        img = render_face(BASE, 64)
        op = StyleOp(intensity=0.7)
        a = graffiti_stylize(img, op)
        b = graffiti_stylize(img.copy(), op)
        assert a.tobytes() == b.tobytes()

    def test_default_intensity_perturbs_attributes(self):
        for p in face_grid(10, seed=1):
            img = render_face(p, 64)
            assert attr_loss(graffiti_stylize(img, StyleOp(intensity=0.7)), img) > 0.0

    def test_drift_monotone_in_intensity(self):
        for p in face_grid(10, seed=2):
            img = render_face(p, 64)
            losses = [
                attr_loss(graffiti_stylize(img, StyleOp(intensity=i / 10)), img)
                for i in range(11)
            ]
            assert losses[0] == 0.0
            assert all(a <= b for a, b in zip(losses, losses[1:]))

    def test_full_intensity_concentrates_on_palette(self):
        img = render_face(BASE, 64)
        styled = graffiti_stylize(img, StyleOp(intensity=1.0))
        assert palette_mass(styled, _SPRAY_PALETTE) >= 0.95

    def test_intensity_validation(self):
        with pytest.raises(ConfigError):
            StyleOp(intensity=1.5)

    @pytest.mark.parametrize("shape", [(32, 32), (3, 32, 32), (1, 2, 32, 32)])
    def test_non_image_rejected(self, shape, tmp_path):
        """By the stylizer and by the PPM writer, before anything is written."""
        with pytest.raises(ConfigError, match=r"expected a \(2, H, W\) image"):
            graffiti_stylize(np.zeros(shape), StyleOp(intensity=0.5))
        path = tmp_path / "face.ppm"
        with pytest.raises(ConfigError, match=r"expected a \(2, H, W\) image"):
            write_ppm(path, np.zeros(shape))
        assert not path.exists()


_face = st.builds(FaceParams, *[st.floats(0.0, 1.0)] * 6, palette_id=st.integers(0, 7),
                  background=st.floats(0.0, 1.0))
_sizes = st.sampled_from((32, 33, 47, 64))


class TestJitterKey:
    """The stylizer's jitter stream is keyed on the geometry band rows alone."""

    @settings(max_examples=40, deadline=None)
    @given(_face, _sizes, st.integers(0, 2**63 - 1), st.floats(0.05, 1.0))
    def test_images_sharing_band_rows_share_the_jitter(self, params, size, seed, intensity):
        """An image whose every pixel off the geometry band rows (chroma,
        decoration, background) is redrawn at random gets the face's jitter
        units and the face's stylized band rows."""
        img = render_face(params, size)
        rows = _band_index(size)
        other = RngStream(seed=seed).uniform(img.shape)
        other[0, rows] = img[0, rows]
        assert _jitter_units(other[0, rows]).tobytes() == _jitter_units(img[0, rows]).tobytes()
        op = StyleOp(intensity=intensity)
        assert graffiti_stylize(other, op)[0, rows].tobytes() == graffiti_stylize(img, op)[0, rows].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_face, _sizes, st.integers(0, len(ATTRIBUTE_NAMES) - 1), st.integers(0, 63))
    def test_one_band_row_value_changes_the_units(self, params, size, band, x):
        bands = render_face(params, size)[0, _band_index(size)]
        moved = bands.copy()
        moved[band, x % size] = np.nextafter(moved[band, x % size], 2.0)
        assert _jitter_units(moved).tobytes() != _jitter_units(bands).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_face, _sizes)
    def test_sweep_tracks_equal_the_render_s_bit_for_bit(self, params, size):
        """The order sweep's read of a face, which renders nothing, batches
        the band rows and units of its render, and reads its band rows."""
        seen, real = [], facegen._landmark_rows

        def spy(bands, intensities, units):
            seen.append((bands.copy(), units.copy()))
            return real(bands, intensities, units)

        with mock.patch.object(facegen, "_landmark_rows", spy):
            bands = _face_bands(params, size, (0.5, 1.0))
        img = render_face(params, size)
        rows = _band_index(size)
        [(rows_read, units)] = seen
        assert rows_read.tobytes() == img[0, rows].tobytes()
        assert units.tobytes() == _jitter_units(img[0, rows]).tobytes()
        assert bands[0].tobytes() == img[0, rows].tobytes()

    @pytest.mark.parametrize("params, size", [
        (FaceParams(eye_spacing=1.2), 64), (FaceParams(background=-0.1), 64), (FaceParams(palette_id=-1), 64),
        (BASE, 16), (BASE, 31),
    ])
    def test_sweep_read_rejects_what_render_face_rejects(self, params, size, monkeypatch):
        """With the error of ``render_face``, before any landmark is drawn."""
        with pytest.raises(ConfigError) as rendered:
            render_face(params, size)
        monkeypatch.setattr(facegen, "_landmark_splats", lambda *a: pytest.fail("drew landmarks"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(rendered.value))}$"):
            _face_bands(params, size, (0.5,))


class TestEmbedPrompt:
    def test_deterministic(self):
        assert np.array_equal(embed_prompt("guitarist pose"), embed_prompt("guitarist pose"))

    def test_distinct_prompts_differ(self):
        a = embed_prompt("guitarist pose")
        b = embed_prompt("DJ pose")
        assert float(a @ b) < 0.99

    def test_unit_norm(self):
        assert abs(np.linalg.norm(embed_prompt("singer on stage", dim=12)) - 1.0) <= 1e-12

    def test_empty_prompt_rejected(self):
        with pytest.raises(InputError):
            embed_prompt("   ")

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ConfigError, match="embedding dim must be >= 1, got 0"):
            embed_prompt("singer", dim=0)

    def test_injective_on_corpus(self):
        vecs = np.array([embed_prompt(f"prompt variant {i}", dim=8) for i in range(1000)])
        assert len(np.unique(vecs.round(12), axis=0)) == 1000


class TestFaceGrid:
    def test_deterministic_and_in_range(self):
        grid = face_grid(50, seed=3)
        again = face_grid(50, seed=3)
        assert grid == again
        for p in grid:
            attrs = p.attributes()
            assert np.all(attrs >= 0.1) and np.all(attrs <= 0.9)

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            face_grid(0)


class TestImageIO:
    def test_ppm_round_trip(self, tmp_path):
        img = render_face(BASE, 48)
        path = tmp_path / "face.ppm"
        write_ppm(path, img)
        header = b"P6\n48 48\n255\n"
        data = path.read_bytes()
        assert data.startswith(header) and len(data) == len(header) + 48 * 48 * 3
        red = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(48, 48, 3)[..., 0] / 255.0
        # red channel carries geometry up to 8-bit quantization
        assert np.max(np.abs(red - img[0])) <= 0.5 / 255.0 + 1e-12

    def test_histogram_normalized(self):
        h = chroma_histogram(render_face(BASE, 64))
        assert abs(h.sum() - 1.0) <= 1e-12
