import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craftfaces.diffusion import decode, make_codec
from craftfaces.errors import ExtractionError, InputError, ProjectionError
from craftfaces.facegen import (
    ATTRIBUTE_NAMES, EYE_OFFSET, EYE_SPAN, X_MARGIN, X_SPAN, FaceParams, StyleOp,
    _band_index, _band_rows, _jitter_units, _landmark_rows, face_grid, graffiti_stylize, render_face,
)
from craftfaces.identity import (
    _already_there,
    _attributes_or_none,
    _band_attributes,
    _decoded_attributes,
    _decoded_bands,
    _scores,
    _sweep_attributes,
    attr_loss,
    attribute_embedding,
    extract_attributes,
    ffc,
    project,
)
from craftfaces.numerics import RngStream
from craftfaces.pipeline import PipelineConfig
from imaging import chroma_histogram
from reference import decoded_attributes, order_attributes, redrawn_attributes, run_identity_first, run_style_first

FACE = FaceParams(
    eye_spacing=0.35,
    eye_size=0.6,
    nose_length=0.25,
    mouth_width=0.7,
    mouth_curve=0.4,
    face_radius=0.55,
)


class TestExtractAttributes:
    def test_inverse_of_renderer(self):
        img = render_face(FACE, 64)
        assert np.max(np.abs(extract_attributes(img) - FACE.attributes())) <= 1e-9

    def test_scale_consistency(self):
        a64 = extract_attributes(render_face(FACE, 64))
        a128 = extract_attributes(render_face(FACE, 128))
        assert np.max(np.abs(a64 - a128)) <= 1e-6

    def test_stylized_face_still_extracts_with_drift(self):
        img = render_face(FACE, 64)
        styled = graffiti_stylize(img, StyleOp(intensity=0.7))
        drifted = extract_attributes(styled)
        assert np.linalg.norm(drifted - FACE.attributes()) > 0.0

    def test_no_geometry_raises(self):
        with pytest.raises(ExtractionError):
            extract_attributes(np.zeros((2, 64, 64)))

    def test_wrong_layout_raises(self):
        with pytest.raises(ExtractionError):
            extract_attributes(np.zeros((64, 64)))
        for shape in ((3, 64, 64), (4, 3, 64, 64), (1, 4, 2, 64, 64)):
            with pytest.raises(ExtractionError):
                extract_attributes(np.ones(shape))

    @pytest.mark.parametrize("size", [32, 33, 47, 64])
    def test_stack_equals_per_image_calls_bit_for_bit(self, size):
        """A (B, 2, H, W) stack gives each image the attributes of its own
        call: renders, stylized renders and clipped noise."""
        faces = face_grid(3, seed=size)
        renders = [render_face(p, size) for p in faces]
        images = renders + [graffiti_stylize(img, StyleOp(intensity=0.7)) for img in renders]
        images.append(np.clip(0.5 + 0.3 * RngStream(seed=size).normal((2, size, size)), 0.0, 1.0))
        stack = extract_attributes(np.stack(images))
        assert stack.shape == (len(images), len(ATTRIBUTE_NAMES))
        for img, attrs in zip(images, stack, strict=True):
            assert attrs.tobytes() == extract_attributes(img).tobytes()

    def test_stack_with_a_blank_image_raises(self):
        stack = np.stack([render_face(FACE, 32), np.zeros((2, 32, 32))])
        with pytest.raises(ExtractionError):
            extract_attributes(stack)


class TestAttrLoss:
    def test_zero_on_self(self):
        img = render_face(FACE, 64)
        assert attr_loss(img, img) == 0.0

    def test_nonnegative(self):
        a = render_face(FACE, 64)
        b = render_face(replace(FACE, nose_length=0.8), 64)
        assert attr_loss(a, b) >= 0.0

    def test_single_attribute_delta_squared(self):
        delta = 0.17
        a = render_face(FACE, 64)
        b = render_face(replace(FACE, mouth_width=FACE.mouth_width + delta), 64)
        assert abs(attr_loss(a, b) - delta**2) <= 1e-9


class TestProject:
    def test_restores_attributes_after_stylization(self):
        img = render_face(FACE, 64)
        styled = graffiti_stylize(img, StyleOp(intensity=0.7))
        fixed = project(styled, FACE.attributes())
        assert np.max(np.abs(extract_attributes(fixed) - FACE.attributes())) <= 1e-9

    def test_identity_on_canonical_render(self):
        img = render_face(FACE, 64)
        assert project(img, FACE.attributes()).tobytes() == img.tobytes()

    def test_preserves_style_statistics(self):
        img = render_face(FACE, 64)
        styled = graffiti_stylize(img, StyleOp(intensity=0.7))
        fixed = project(styled, FACE.attributes())
        l1 = np.abs(chroma_histogram(styled) - chroma_histogram(fixed)).sum()
        assert l1 <= 0.05
        assert np.max(np.abs(extract_attributes(fixed) - FACE.attributes())) <= 1e-9

    def test_unreachable_target_rejected(self):
        """As are a target of the wrong length and an image of the wrong shape."""
        img = render_face(FACE, 64)
        with pytest.raises(ProjectionError):
            project(img, np.array([0.5, 0.5, 0.5, 0.5, 0.5, 1.2]))
        with pytest.raises(ProjectionError, match="must have 6 components, got 5"):
            project(img, np.full(5, 0.5))
        with pytest.raises(ProjectionError, match=r"expected a \(2, H, W\) image"):
            project(img[0], FACE.attributes())

    def test_image_with_an_empty_band_is_redrawn(self):
        """An image whose attributes cannot be read (a landmark band with no
        mass) gets every band redrawn at the target, and keeps every other
        row's bytes."""
        img = graffiti_stylize(render_face(FACE, 64), StyleOp(intensity=0.7))
        rows = _band_index(64)
        img[0, rows[2]] = 0.0
        assert _attributes_or_none(img) is None
        target = face_grid(1, seed=5)[0].attributes()
        out = project(img, target)
        assert np.max(np.abs(extract_attributes(out) - target)) <= 1e-9
        others = [r for r in range(64) if r not in rows]
        assert out[0, others].tobytes() == img[0, others].tobytes()
        assert out[1].tobytes() == img[1].tobytes()

    def test_restores_target_on_arbitrary_images(self):
        from craftfaces.numerics import RngStream

        ref = FACE.attributes()
        rng = RngStream(seed=100)
        for k in range(100):
            noise_img = rng.split(k).uniform((2, 64, 64))
            fixed = project(noise_img, ref)
            assert np.max(np.abs(extract_attributes(fixed) - FACE.attributes())) <= 1e-9


_unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit
    ),
    _unit,
    st.integers(32, 96),
)
def test_project_after_stylize_restores_attributes(params, intensity, size):
    styled = graffiti_stylize(render_face(params, size), StyleOp(intensity=intensity))
    restored = project(styled, params.attributes())
    assert np.max(np.abs(extract_attributes(restored) - params.attributes())) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit
    ),
    _unit,
    st.integers(32, 96),
    st.integers(0, 2**63 - 1),
)
def test_projecting_onto_own_attributes_is_a_bitwise_noop(params, intensity, size, noise_seed):
    """The reversed composition order rests on this: it restores the input's
    own attributes, so it may skip the projection and stylize the input."""
    styled = graffiti_stylize(render_face(params, size), StyleOp(intensity=intensity))
    noise = RngStream(seed=noise_seed).uniform((2, size, size))
    for img in (styled, noise):
        assert project(img, extract_attributes(img)).tobytes() == img.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit
    ),
    _unit,
    st.integers(32, 96),
    st.integers(0, 2**63 - 1),
    st.lists(_unit, min_size=6, max_size=6).map(np.array),
)
def test_redrawn_attributes_depend_only_on_target_and_shape(params, intensity, size, noise_seed, target):
    """The order sweep rests on this: it scores a style-first restore that
    redraws by the face's ``restored`` attributes, without building it."""
    styled = graffiti_stylize(render_face(params, size), StyleOp(intensity=intensity))
    noise = RngStream(seed=noise_seed).uniform((2, size, size))
    for img in (styled, noise):
        assume(not _already_there(_attributes_or_none(img), target))  # project redraws it
    a, b = (extract_attributes(project(img, target)).tobytes() for img in (styled, noise))
    assert a == b == redrawn_attributes(styled.shape, target).tobytes()


class TestVerifyComposition:
    """Both composition orders, through the per-cell references the order
    sweep is checked against: ``run_style_first`` (stylize, then project
    onto the input's attributes) and ``run_identity_first`` (project the
    input onto its own attributes, then stylize)."""

    @staticmethod
    def losses(img, intensity):
        cfg = PipelineConfig(style_intensity=intensity)
        _, ps = run_style_first(img, cfg)
        _, sp = run_identity_first(img, cfg)
        return ps.attr_loss, sp.attr_loss

    def test_identity_style_ties(self):
        loss_ps, loss_sp = self.losses(render_face(FACE, 64), 0.0)
        assert loss_ps == 0.0
        assert loss_sp == 0.0

    def test_default_intensity_strict(self):
        loss_ps, loss_sp = self.losses(render_face(FACE, 64), 0.7)
        assert loss_ps <= 1e-9
        assert loss_sp > 0.0
        assert loss_ps <= loss_sp

    def test_small_sweep(self):
        for p in face_grid(10, seed=4):
            img = render_face(p, 64)
            for i in range(1, 11):
                loss_ps, loss_sp = self.losses(img, i / 10)
                assert loss_ps <= loss_sp
                assert loss_ps <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit
    ),
    st.integers(32, 96),
)
def test_extract_inverts_render(params, size):
    assert np.max(np.abs(extract_attributes(render_face(params, size)) - params.attributes())) <= 1e-9


def _centroid(weights: np.ndarray, offset: int = 0) -> float:
    """The intensity centroid of one band (or eye half) alone."""
    mass = float(weights.sum())
    if mass <= 1e-9:
        raise ExtractionError("no detectable face geometry (empty landmark band)")
    xs = np.arange(weights.size, dtype=np.float64) + offset
    return float((xs * weights).sum() / mass)


def _extract_per_band(img: np.ndarray) -> np.ndarray:
    """The extractor as one ``_centroid`` call per band, in band order: the
    oracle for any batched reduction of the bands."""
    geometry = img[0]
    h, w = geometry.shape
    rows = _band_rows(h)
    out = np.empty(len(ATTRIBUTE_NAMES), dtype=np.float64)
    mid = w // 2
    eye_row = geometry[rows["eye_spacing"]]
    half_spacing = (_centroid(eye_row[mid:], offset=mid) - _centroid(eye_row[:mid])) / 2.0
    out[ATTRIBUTE_NAMES.index("eye_spacing")] = (half_spacing / w - EYE_OFFSET) / EYE_SPAN
    for name in ("eye_size", "nose_length", "mouth_width", "mouth_curve", "face_radius"):
        out[ATTRIBUTE_NAMES.index(name)] = (_centroid(geometry[rows[name]]) / w - X_MARGIN) / X_SPAN
    return np.clip(out, 0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.builds(
        FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit
    ),
    _unit,
    st.sampled_from((32, 33, 40, 47, 96)),
)
def test_extract_equals_per_band_centroids_bit_for_bit(params, intensity, size):
    styled = graffiti_stylize(render_face(params, size), StyleOp(intensity=intensity))
    assert extract_attributes(styled).tobytes() == _extract_per_band(styled).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.builds(
        FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit
    ),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True), max_size=6,
             unique=True),
    st.sampled_from((32, 33, 47, 64)),
)
def test_landmark_batch_equals_each_stylize_bit_for_bit(params, between, size):
    """One batch over intensities 0, ``between`` and 1 has, per intensity,
    the band rows of ``graffiti_stylize`` and the attributes that
    ``extract_attributes`` reads from them; ``reference.order_attributes``
    has the bits of extracting the render, each stylized image and each
    stylized image projected onto the render's attributes."""
    img = render_face(params, size)
    intensities = [0.0, *between, 1.0]
    rows = [_band_rows(size)[name] for name in ATTRIBUTE_NAMES]
    bands = _landmark_rows(img[0, rows], intensities, _jitter_units(img[0, rows]))
    attrs = _band_attributes(bands)
    ref, styled_attrs, restored_attrs = order_attributes(img, intensities)
    assert ref.tobytes() == extract_attributes(img).tobytes()
    for intensity, band, attr, styled_attr, restored_attr in zip(
        intensities, bands, attrs, styled_attrs, restored_attrs, strict=True
    ):
        styled = graffiti_stylize(img, StyleOp(intensity=intensity))
        assert band.tobytes() == styled[0, rows].tobytes()
        assert attr.tobytes() == styled_attr.tobytes() == extract_attributes(styled).tobytes()
        assert restored_attr.tobytes() == extract_attributes(project(styled, ref)).tobytes()


_face = st.builds(FaceParams, *[_unit] * 6, palette_id=st.integers(0, 7), background=_unit)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_face, min_size=1, max_size=5),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True), max_size=5,
             unique=True).flatmap(lambda between: st.permutations([0.0, *between, 1.0])),
    st.sampled_from((32, 33, 47, 64)),
)
def test_sweep_attributes_equal_the_per_face_reference_bit_for_bit(faces, intensities, size):
    """The order sweep's read of each face and its one restore of every
    face have the bits of ``reference.order_attributes``, one face at a
    time, in any intensity order. At intensity 0 each face's restore finds
    its ``ref`` already there; at 1 it redraws."""
    refs, styled, restored = _sweep_attributes(faces, size, intensities)
    assert refs.shape == (len(faces), 6) and styled.shape == restored.shape == (len(faces), len(intensities), 6)
    for params, got in zip(faces, zip(refs, styled, restored), strict=True):
        want = order_attributes(render_face(params, size), intensities)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("size, z_dim", [(32, 128), (64, 64), (40, 80)])
def test_decoded_bands_equal_the_rows_of_the_whole_decode_bit_for_bit(size, z_dim):
    """Each band row, one gemv over its slice of the decoder, has the bytes
    of the same row of the whole image's decode, clipped; so the attributes
    read from the bands have the bytes of extracting the decoded images.
    The latents spread the pixels over about [-3, 3], so the clip acts."""
    codec = make_codec((2, size, size), z_dim, RngStream(seed=size + z_dim).split("codec"))
    zs = RngStream(seed=size).normal((12, z_dim)) * np.sqrt(2.0 * size * size / z_dim)
    bands = _decoded_bands(zs, codec)
    assert bands.shape == (12, len(ATTRIBUTE_NAMES), size)
    for z, got in zip(zs, bands):
        assert got.tobytes() == np.clip(decode(z, codec), 0.0, 1.0)[0, _band_index(size)].tobytes()
    assert _decoded_attributes(zs, codec).tobytes() == decoded_attributes(zs, codec).tobytes()


def _reduced_dot(u, v):
    """The dot product as numpy's sum of the products: in order below 8
    elements, pairwise above."""
    return np.add.reduce(u * v)


_vectors = st.integers(1, 256).flatmap(lambda n: st.tuples(
    *[arrays(np.float64, (n,), elements=st.floats(-1.0, 1.0))] * 2
))


@settings(max_examples=300, deadline=None)
@given(_vectors, st.sampled_from((1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150)))
def test_ffc_equals_the_norm_formula_bit_for_bit(vectors, scale):
    """The formula with every dot product taken as numpy's sum of the
    products, ``np.add.reduce(u * v)``, which involves no BLAS kernel."""
    u, v = (x * scale for x in vectors)
    norms = np.sqrt(_reduced_dot(u, u)) * np.sqrt(_reduced_dot(v, v))
    assume(norms > 0.0)
    assert np.float64(ffc(u, v)).tobytes() == np.float64(_reduced_dot(u, v) / norms).tobytes()


_stacks = st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 6), elements=st.floats(-1.0, 1.0)), arrays(np.float64, (6,), elements=st.floats(-1.0, 1.0))
))


@settings(max_examples=300, deadline=None)
@given(_stacks, st.booleans())
def test_stacked_scores_equal_one_vector_at_a_time_bit_for_bit(stack, broadcast):
    """Each loss and FFC of an (I, 6) stack has the bits of scoring its
    vector alone, against ``ref`` itself or a broadcast view of it (as the
    order sweep scores its vectors), and of the formulas with every dot
    product an in-order sum of the six products."""
    attrs, ref = stack
    against = np.broadcast_to(ref, attrs.shape) if broadcast else ref
    if any(_reduced_dot(v, v) == 0.0 for v in (*attrs, ref)):  # a zero norm, or one that underflows
        with pytest.raises(InputError, match="zero vectors"):
            _scores(attrs, against)
        return
    losses, ffcs = _scores(attrs, against)
    assert losses.shape == ffcs.shape == (len(attrs),)
    for a, loss, cosine in zip(attrs, losses, ffcs, strict=True):
        d = a - ref
        assert np.float64(loss).tobytes() == np.float64(_reduced_dot(d, d)).tobytes()
        assert np.float64(cosine).tobytes() == np.float64(ffc(a, ref)).tobytes()
        norms = np.sqrt(_reduced_dot(a, a)) * np.sqrt(_reduced_dot(ref, ref))
        if norms > 0.0:  # the norm formula, which two tiny nonzero norms can underflow
            assert np.float64(cosine).tobytes() == np.float64(_reduced_dot(a, ref) / norms).tobytes()


_coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_nonzero = st.lists(_coords, min_size=6, max_size=6).map(np.array).filter(
    lambda u: np.linalg.norm(u) >= 1e-3
)


@settings(max_examples=200, deadline=None)
@given(_nonzero, _nonzero, st.floats(min_value=1e-6, max_value=1e6))
def test_ffc_is_scale_invariant(u, v, c):
    assert abs(ffc(c * u, v) - ffc(u, v)) <= 1e-12


class TestFfc:
    def test_identical(self):
        u = np.array([0.2, 0.5, 0.8])
        assert abs(ffc(u, u) - 1.0) <= 1e-12

    def test_orthogonal(self):
        assert abs(ffc(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) <= 1e-12

    def test_hand_value(self):
        assert abs(ffc(np.array([1.0, 0.0]), np.array([1.0, 1.0])) - 1 / np.sqrt(2)) <= 1e-12

    def test_scale_invariance(self):
        u = np.array([0.3, -0.4, 0.5])
        assert abs(ffc(u, 3.0 * u) - 1.0) <= 1e-12

    def test_opposite(self):
        u = np.array([0.3, -0.4, 0.5])
        assert abs(ffc(u, -u) + 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            ffc(np.zeros(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            ffc(np.ones(3), np.ones(4))


def test_attribute_embedding_centered():
    assert np.array_equal(attribute_embedding(np.full(6, 0.5)), np.zeros(6))
    assert np.array_equal(attribute_embedding(np.array([0.0, 1.0, 0.5, 0.5, 0.5, 0.5]))[:2], [-1.0, 1.0])
