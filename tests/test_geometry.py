"""Tests for quads, homographies, resampling, and PGM files."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doctext.errors import DegenerateQuadError, FormatError, InputError
from doctext.geometry import (
    _PGM_HEADER,
    GrayImage,
    Homography,
    Point,
    Quad,
    _paint_boxes,
    _sample_bilinear,
    compute_homography,
    read_pgm,
    rectify,
    write_pgm,
)
from doctext.formats import BoxRecord
from doctext.layout import TextBox, render_group_overlay
from doctext.pipeline import rectify_boxes
from doctext.synth import SynthSpec, gen_document, render_page


def random_convex_quad(rng, scale=1000.0):
    """Random quad: a rectangle with corner jitter, retried until convex."""
    while True:
        left, top = rng.uniform(0, scale, size=2)
        w, h = rng.uniform(scale * 0.05, scale * 0.5, size=2)
        base = [(left, top), (left + w, top), (left + w, top + h), (left, top + h)]
        jitter = rng.uniform(-0.2, 0.2, size=(4, 2)) * min(w, h)
        try:
            return Quad.from_points([(x + dx, y + dy) for (x, y), (dx, dy) in zip(base, jitter)])
        except DegenerateQuadError:
            continue


def sample_bilinear_reference(pixels, x, y):
    """Scalar bilinear sample with centres at half-integers and edge clamp.

    Written as the four-neighbour textbook formula so it shares nothing
    with the vectorised implementation.
    """
    h, w = pixels.shape
    fx, fy = x - 0.5, y - 0.5
    x0, y0 = math.floor(fx), math.floor(fy)
    tx, ty = fx - x0, fy - y0

    def at(r, c):
        return pixels[min(max(r, 0), h - 1), min(max(c, 0), w - 1)]

    return (
        at(y0, x0) * (1 - tx) * (1 - ty)
        + at(y0, x0 + 1) * tx * (1 - ty)
        + at(y0 + 1, x0) * (1 - tx) * ty
        + at(y0 + 1, x0 + 1) * tx * ty
    )


class TestQuad:
    def test_from_rect_corner_order(self):
        q = Quad.from_rect(1, 2, 4, 6)
        assert q.corners == (Point(1, 2), Point(4, 2), Point(4, 6), Point(1, 6))

    def test_collinear_corners_rejected(self):
        with pytest.raises(DegenerateQuadError):
            Quad.from_points([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_wrong_winding_rejected(self):
        # Counter-clockwise under y-down: TL, BL, BR, TR.
        with pytest.raises(DegenerateQuadError):
            Quad.from_points([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_self_crossing_rejected(self):
        with pytest.raises(DegenerateQuadError):
            Quad.from_points([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            Quad.from_points([(0, 0), (1, 0), (float("nan"), 1), (0, 1)])

    def test_invalid_rect_rejected(self):
        with pytest.raises(InputError):
            Quad.from_rect(5, 0, 5, 10)


class TestHomography:
    def test_identity_on_unit_rect(self):
        h = compute_homography(Quad.from_rect(0, 0, 7, 3), 7, 3)
        assert np.allclose(h.matrix, np.eye(3), atol=1e-12)

    def test_pure_translation(self):
        h = compute_homography(Quad.from_rect(10, 20, 17, 23), 7, 3)
        expected = np.array([[1, 0, -10], [0, 1, -20], [0, 0, 1]], dtype=float)
        assert np.allclose(h.matrix, expected, atol=1e-12)

    def test_corner_residuals_small(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            q = random_convex_quad(rng)
            w = int(rng.integers(1, 400))
            hgt = int(rng.integers(1, 400))
            h = compute_homography(q, w, hgt)
            dst = [(0, 0), (w, 0), (w, hgt), (0, hgt)]
            for corner, (u, v) in zip(q.corners, dst):
                gu, gv = h.apply(corner.x, corner.y)
                assert abs(gu - u) <= 1e-9
                assert abs(gv - v) <= 1e-9

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(22)
        q = random_convex_quad(rng)
        h = compute_homography(q, 50, 20)
        hinv = h.inverse()
        xs = rng.uniform(0, 1000, size=30)
        ys = rng.uniform(0, 1000, size=30)
        us, vs = h.apply(xs, ys)
        bx, by = hinv.apply(us, vs)
        assert np.allclose(bx, xs, atol=1e-6)
        assert np.allclose(by, ys, atol=1e-6)

    def test_matrix_normalised(self):
        h = Homography(2.0 * np.eye(3))
        assert h.matrix[2, 2] == 1.0
        assert h.matrix[0, 0] == 2.0 / 2.0 or h.matrix[0, 0] == 1.0

    def test_invalid_sizes_rejected(self):
        q = Quad.from_rect(0, 0, 1, 1)
        with pytest.raises(InputError):
            compute_homography(q, 0, 5)
        with pytest.raises(InputError):
            compute_homography(q, 5, -1)

    @pytest.mark.parametrize("width, height", [(7.0, 3), (7, 3.0), (True, 3), (7, np.True_), (2.5, 3)])
    def test_non_integer_sizes_rejected(self, width, height):
        with pytest.raises(InputError, match="must be an integer"):
            compute_homography(Quad.from_rect(0, 0, 7, 3), width, height)

    def test_bad_matrix_rejected(self):
        with pytest.raises(InputError):
            Homography(np.zeros((3, 3)))
        with pytest.raises(InputError):
            Homography(np.eye(4))


class TestGrayImage:
    def test_range_enforced(self):
        with pytest.raises(InputError):
            GrayImage(np.array([[0.0, 1.5]]))
        with pytest.raises(InputError):
            GrayImage(np.array([[-0.5, 0.5]]))

    def test_tiny_overshoot_clipped(self):
        img = GrayImage(np.array([[1.0 + 1e-12, -1e-12]]))
        assert img.pixels.max() <= 1.0
        assert img.pixels.min() >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            GrayImage(np.zeros((0, 4)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            GrayImage(np.array([[0.5, bad], [0.0, 1.0]]))


class TestBilinearSampling:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(23)
        pixels = rng.random((9, 13))
        # Include far out-of-range points to exercise the edge clamp.
        xs = rng.uniform(-4, 17, size=120)
        ys = rng.uniform(-4, 13, size=120)
        got = _sample_bilinear(pixels, xs, ys)
        want = [sample_bilinear_reference(pixels, x, y) for x, y in zip(xs, ys)]
        assert np.allclose(got, want, atol=1e-12)

    def test_pixel_centre_is_exact(self):
        rng = np.random.default_rng(24)
        pixels = rng.random((5, 6))
        xs, ys = np.meshgrid(np.arange(6) + 0.5, np.arange(5) + 0.5)
        assert np.allclose(_sample_bilinear(pixels, xs, ys), pixels, atol=1e-15)

    # coordinates on half-integers (pixel centres), a hair off them on
    # either side (weights next to 0, 1/2 and 1), anywhere near the raster,
    # and far outside it
    COORDS = (
        st.integers(-3, 12).map(lambda k: k + 0.5)
        | st.tuples(st.integers(-3, 12), st.sampled_from([0.0, 0.5]), st.floats(-1e-15, 1e-15)).map(sum)
        | st.floats(-20.0, 20.0)
        | st.floats(-1e300, 1e300)
    )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_samples_stay_in_the_unit_interval(self, page_h, page_w, data):
        # rectify builds its crop from these samples without a clip; the
        # proof is in its comment, and this is its check
        n = page_h * page_w
        pixels = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
        xs = data.draw(st.lists(self.COORDS, min_size=1, max_size=12))
        ys = data.draw(st.lists(self.COORDS, min_size=len(xs), max_size=len(xs)))
        got = _sample_bilinear(np.reshape(pixels, (page_h, page_w)), np.array(xs), np.array(ys))
        assert ((got >= 0.0) & (got <= 1.0)).all()

    def test_ones_sampled_where_one_minus_t_rounds(self):
        # weights just below and above 1/2, and t with 1 - t inexact
        t = np.array([np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 2**-53, 2**-54, 1e-17, 0.1, 0.3])
        xs, ys = np.meshgrid(np.concatenate([t + 0.5, t + 1.5]), t + 0.5)
        got = _sample_bilinear(np.ones((2, 3)), xs, ys)
        assert (got == 1.0).all()


class TestRectify:
    def test_integer_crop_is_exact(self):
        rng = np.random.default_rng(25)
        img = GrayImage(rng.random((40, 60)))
        crop = rectify(img, Quad.from_rect(12, 5, 31, 22), 31 - 12, 22 - 5)
        assert np.allclose(crop.pixels, img.pixels[5:22, 12:31], atol=1e-12)

    def test_full_identity_is_exact(self):
        rng = np.random.default_rng(26)
        img = GrayImage(rng.random((15, 20)))
        out = rectify(img, Quad.from_rect(0, 0, 20, 15), 20, 15)
        assert np.allclose(out.pixels, img.pixels, atol=1e-12)

    def test_output_shape(self):
        img = GrayImage(np.full((30, 30), 0.5))
        q = Quad.from_points([(2, 3), (25, 5), (27, 26), (4, 24)])
        out = rectify(img, q, 64, 16)
        assert out.width == 64 and out.height == 16

    def test_constant_image_stays_constant(self):
        img = GrayImage(np.full((30, 30), 0.625))
        q = Quad.from_points([(2, 3), (25, 5), (27, 26), (4, 24)])
        out = rectify(img, q, 40, 12)
        assert np.allclose(out.pixels, 0.625, atol=1e-12)

    @pytest.mark.parametrize(
        "left, right, edge", [(1e6, 2e6, 1.0), (1e19, 2e19, 1.0), (-2e19, -1e19, 0.0)]
    )
    def test_far_off_box_clamps_to_the_nearest_edge(self, left, right, edge):
        # Sample coordinates past the int64 range clamp like near ones,
        # without an overflowing cast.
        img = GrayImage(np.array([[0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rectify(img, Quad.from_rect(left, 0, right, 1), 2, 1)
        assert out.pixels.tolist() == [[edge, edge]]

    def test_double_resolution_pools_to_direct(self):
        # Rectifying at 2x and mean-pooling 2x2 must agree with the
        # direct warp on a smooth image: both approximate the same
        # continuous image, so the gap is bounded by curvature.
        ys, xs = np.mgrid[0:64, 0:64].astype(float)
        smooth = 0.5 + 0.25 * np.sin(xs / 9.0) + 0.25 * np.cos(ys / 11.0)
        img = GrayImage(smooth)
        q = Quad.from_points([(6, 9), (55, 5), (58, 52), (4, 56)])
        direct = rectify(img, q, 32, 24).pixels
        fine = rectify(img, q, 64, 48).pixels
        pooled = fine.reshape(24, 2, 32, 2).mean(axis=(1, 3))
        assert np.mean(np.abs(pooled - direct)) < 0.05

    def test_perspective_matches_scalar_pullback(self):
        # Cross-check the whole warp against the scalar sampler.
        rng = np.random.default_rng(27)
        img = GrayImage(rng.random((25, 25)))
        q = Quad.from_points([(3, 2), (21, 4), (23, 22), (2, 20)])
        out = rectify(img, q, 10, 8)
        hinv = compute_homography(q, 10, 8).inverse()
        for v in range(8):
            for u in range(10):
                sx, sy = hinv.apply(u + 0.5, v + 0.5)
                want = sample_bilinear_reference(img.pixels, float(sx), float(sy))
                assert out.pixels[v, u] == pytest.approx(want, abs=1e-12)


class TestCropRegion:
    """The crop rule of :func:`doctext.pipeline.rectify_boxes`."""

    @staticmethod
    def crop(quad, rect, height):
        left, top, right, bottom = rect
        img = GrayImage(np.random.default_rng(30).random((40, 60)))
        rec = BoxRecord(box=TextBox(id=3, left=left, top=top, right=right, bottom=bottom), quad=quad)
        return img, rectify_boxes(img, [rec], height)[3]

    def test_rect_fallback_keeps_aspect(self):
        img, crop = self.crop(None, (10.0, 20.0, 50.0, 30.0), 16)
        assert (crop.width, crop.height) == (64, 16)
        want = rectify(img, Quad.from_rect(10.0, 20.0, 50.0, 30.0), 64, 16)
        assert np.array_equal(crop.pixels, want.pixels)
        _, crop = self.crop(None, (10.0, 20.0, 51.0, 30.0), 16)
        assert crop.width == 66  # 65.6 rounds up

    def test_own_quad_is_the_source(self):
        q = Quad.from_points([(0, 0), (30, 2), (31, 12), (1, 10)])
        img, crop = self.crop(q, (0.0, 0.0, 31.0, 12.0), 24)
        width = round(31 / 12 * 24)
        assert (crop.width, crop.height) == (width, 24)
        assert np.array_equal(crop.pixels, rectify(img, q, width, 24).pixels)

    def test_width_is_at_least_one(self):
        _, crop = self.crop(None, (0.0, 0.0, 1.0, 100.0), 4)
        assert crop.width == 1


def homography_reference(src, width, height):
    """:func:`compute_homography` as it was when it filled its 8x8 system
    row by row, kept unchanged as an oracle."""
    dst = [(0.0, 0.0), (float(width), 0.0), (float(width), float(height)), (0.0, float(height))]
    a = np.zeros((8, 8), dtype=np.float64)
    b = np.zeros(8, dtype=np.float64)
    for k, (corner, (u, v)) in enumerate(zip(src.corners, dst)):
        x, y = corner.x, corner.y
        a[2 * k] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
        b[2 * k] = u
        a[2 * k + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        b[2 * k + 1] = v
    h = np.linalg.solve(a, b)
    return Homography(np.append(h, 1.0).reshape(3, 3))


def sample_bilinear_oracle(pixels, xs, ys):
    """``_sample_bilinear`` as it was when it indexed the 2-D raster with
    four clamped index pairs, kept unchanged as an oracle."""
    h, w = pixels.shape
    fx = xs - 0.5
    fy = ys - 0.5
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    tx = fx - x0
    ty = fy - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    v00 = pixels[y0c, x0c]
    v01 = pixels[y0c, x1c]
    v10 = pixels[y1c, x0c]
    v11 = pixels[y1c, x1c]
    top = v00 * (1.0 - tx) + v01 * tx
    bot = v10 * (1.0 - tx) + v11 * tx
    return top * (1.0 - ty) + bot * ty


def rectify_reference(image, src, width, height):
    """:func:`rectify` as it was before it broadcast its pullback and
    gathered from the flat raster: a meshgrid of pixel centres through
    ``Homography.apply``, the frozen sampler and homography above, and the
    crop checked and clipped by ``GrayImage``."""
    hinv = homography_reference(src, width, height).inverse()
    us, vs = np.meshgrid(
        np.arange(width, dtype=np.float64) + 0.5,
        np.arange(height, dtype=np.float64) + 0.5,
    )
    sx, sy = hinv.apply(us, vs)
    return GrayImage(sample_bilinear_oracle(image.pixels, sx, sy))


def quad_near_page(rng, width, height):
    """A random convex quad about the size of a ``width`` x ``height`` page,
    anywhere from wholly left of or above it to wholly right of or below it."""
    while True:
        left = rng.uniform(-2.0, 2.0) * width
        top = rng.uniform(-2.0, 2.0) * height
        w = rng.uniform(0.3, 2.0) * width
        h = rng.uniform(0.3, 2.0) * height
        base = [(left, top), (left + w, top), (left + w, top + h), (left, top + h)]
        jitter = rng.uniform(-0.3, 0.3, size=(4, 2)) * min(w, h)
        try:
            return Quad.from_points([(x + dx, y + dy) for (x, y), (dx, dy) in zip(base, jitter)])
        except DegenerateQuadError:
            continue


def paint_reference(boxes, shades, width, height):
    """The box fill loop that ``render_page`` and ``render_group_overlay``
    each ran before they shared :func:`_paint_boxes`."""
    px = np.ones((height, width), dtype=np.float64)
    for b, shade in zip(boxes, shades):
        r0 = max(0, int(np.floor(b.top)))
        r1 = min(height, int(np.ceil(b.bottom)))
        c0 = max(0, int(np.floor(b.left)))
        c1 = min(width, int(np.ceil(b.right)))
        if r0 < r1 and c0 < c1:
            px[r0:r1, c0:c1] = shade
    return GrayImage(px)


def same_image(a, b):
    return a.pixels.dtype == b.pixels.dtype and a.pixels.shape == b.pixels.shape and (
        a.pixels.tobytes() == b.pixels.tobytes()
    )


class TestCheckOnce:
    """``read_pgm``, ``rectify`` and the box painter know their pixels lie
    in [0, 1] and build their image without ``GrayImage``'s check; the
    checked path is the oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 255), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_read_pgm_equals_checked_image(self, tmp_path_factory, maxval, width, height, seed):
        raw = np.random.default_rng(seed).integers(0, maxval + 1, size=(height, width), dtype=np.uint8)
        p = tmp_path_factory.mktemp("pgm") / "page.pgm"
        p.write_bytes(f"P5\n{width} {height}\n{maxval}\n".encode() + raw.tobytes())
        assert same_image(read_pgm(p), GrayImage(raw.astype(np.float64) / float(maxval)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 12))
    def test_rectify_equals_checked_image(self, seed, width, height):
        rng = np.random.default_rng(seed)
        # runs of exact 0 and 1, the edges of the range, next to each other
        pixels = rng.choice([0.0, 1.0, rng.random()], size=(20, 30))
        img = GrayImage(pixels)
        q = random_convex_quad(rng, scale=30.0)
        assert same_image(rectify(img, q, width, height), rectify_reference(img, q, width, height))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-20, 60)] * 4, st.sampled_from([0.0, 0.25, 0.6, 1.0])), max_size=8),
           st.integers(1, 40), st.integers(1, 30))
    def test_painter_equals_old_loop(self, fills, width, height):
        boxes = [SimpleNamespace(left=x0, right=x0 + abs(x1), top=y0, bottom=y0 + abs(y1))
                 for x0, x1, y0, y1, _ in fills]
        shades = [shade for *_, shade in fills]
        assert same_image(_paint_boxes(boxes, shades, width, height), paint_reference(boxes, shades, width, height))

    def test_no_check_runs(self, tmp_path, monkeypatch):
        img = GrayImage(np.random.default_rng(31).random((20, 30)))
        p = tmp_path / "page.pgm"
        write_pgm(img, p)
        spec = SynthSpec(seed=1)
        doc = gen_document(spec)

        def refuse(self):
            raise AssertionError("GrayImage check ran")

        monkeypatch.setattr(GrayImage, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="check ran"):
            GrayImage(img.pixels)
        assert read_pgm(p).width == 30
        assert rectify(img, Quad.from_points([(2, 3), (25, 5), (27, 16), (4, 14)]), 12, 8).height == 8
        assert render_page(doc, spec).width == spec.page_width
        assert render_group_overlay(doc.boxes, {b.id: 0 for b in doc.boxes}, 50, 40).height == 40


class TestFrozenOracle:
    """``rectify`` broadcasts its pullback, gathers its samples from the flat
    raster and builds its homography system as one array; each must give
    the bits of the code it replaced, kept above as frozen oracles."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 30), st.integers(1, 24), st.integers(1, 12))
    @example(seed=0, page_h=1, page_w=1, width=1, height=1)
    @example(seed=1, page_h=1, page_w=17, width=9, height=1)
    @example(seed=2, page_h=13, page_w=1, width=1, height=5)
    def test_rectify_equals_frozen_oracle(self, seed, page_h, page_w, width, height):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.choice([0.0, 1.0, rng.random()], size=(page_h, page_w)))
        q = quad_near_page(rng, page_w, page_h)
        assert same_image(rectify(img, q, width, height), rectify_reference(img, q, width, height))
        got = compute_homography(q, width, height).matrix
        assert got.tobytes() == homography_reference(q, width, height).matrix.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 30))
    def test_sampler_equals_frozen_oracle(self, seed, page_h, page_w):
        rng = np.random.default_rng(seed)
        pixels = rng.random((page_h, page_w))
        xs = rng.uniform(-2.0, 2.0, size=(5, 7)) * page_w
        ys = rng.uniform(-2.0, 2.0, size=(5, 7)) * page_h
        got = _sample_bilinear(pixels, xs, ys)
        assert got.tobytes() == sample_bilinear_oracle(pixels, xs, ys).tobytes()

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_page_crops_equal_frozen_oracle(self, seed):
        spec = SynthSpec(temperature=0.515, jitter=0.2)
        doc = gen_document(spec, np.random.default_rng(seed))
        page = render_page(doc, spec)
        crops = rectify_boxes(page, [BoxRecord(box=b) for b in doc.boxes], 32)
        assert len(crops) == len(doc.boxes)
        for b in doc.boxes:
            want = rectify_reference(page, Quad.from_rect(b.left, b.top, b.right, b.bottom), crops[b.id].width, 32)
            assert same_image(crops[b.id], want)


class TestPgm:
    def test_round_trip_quantised(self, tmp_path):
        rng = np.random.default_rng(28)
        img = GrayImage(rng.random((12, 17)))
        p = tmp_path / "img.pgm"
        write_pgm(img, p)
        back = read_pgm(p)
        assert back.width == 17 and back.height == 12
        # One write/read quantises to 1/255 steps.
        assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255.0 + 1e-12

    def test_second_generation_stable(self, tmp_path):
        rng = np.random.default_rng(29)
        img = GrayImage(rng.random((8, 8)))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(img, p1)
        write_pgm(read_pgm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x00\x40\x80\xff")
        img = read_pgm(p)
        assert img.pixels[0, 0] == 0.0
        assert img.pixels[1, 1] == 1.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_maxval_scaling(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 1\n100\n\x00\x64")
        img = read_pgm(p)
        assert img.pixels[0, 1] == 1.0

    def test_value_above_maxval_names_the_file(self, tmp_path):
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n2 1\n100\n\x00\xc8")
        with pytest.raises(FormatError, match=r"over\.pgm: PGM value 200 exceeds maxval 100"):
            read_pgm(p)

    def test_every_byte_at_every_maxval(self, tmp_path):
        # one division into float64 gives the bits of a float64 copy divided
        for maxval in range(1, 256):
            raw = np.arange(maxval + 1, dtype=np.uint8)[None, :]
            p = tmp_path / f"m{maxval}.pgm"
            p.write_bytes(f"P5\n{maxval + 1} 1\n{maxval}\n".encode() + raw.tobytes())
            want = raw.astype(np.float64) / float(maxval)
            assert read_pgm(p).pixels.tobytes() == want.tobytes(), maxval

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20))
    def test_written_bytes_equal_frozen_expression(self, tmp_path_factory, seed, width, height):
        rng = np.random.default_rng(seed)
        # exact 0 and 1, pixels on the .5 steps that rint rounds to even,
        # and arbitrary ones
        halves = (rng.integers(0, 255, size=(height, width)) + 0.5) / 255.0
        pixels = rng.choice([0.0, 1.0, 0.5, 0.5 / 255.0, 254.5 / 255.0, rng.random()], size=(height, width))
        pixels = np.where(rng.random((height, width)) < 0.3, halves, pixels)
        img = GrayImage(pixels)
        p = tmp_path_factory.mktemp("pgm") / "page.pgm"
        write_pgm(img, p)
        want = np.rint(img.pixels * 255.0).astype(np.uint8)
        assert p.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + want.tobytes()

    @pytest.mark.parametrize("name", ["missing.pgm", "."])
    def test_unreadable_file_is_input_error(self, tmp_path, name):
        p = tmp_path / name
        with pytest.raises(InputError, match=rf"^cannot read {re.escape(str(p))}: ") as info:
            read_pgm(p)
        assert type(info.value) is InputError

    def test_oversized_maxval_rejected(self, tmp_path):
        p = tmp_path / "m16.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(p)


def read_pgm_tokens_reference(data: bytes, count: int) -> tuple[list[int], int]:
    """Read ``count`` whitespace-separated integer tokens, honouring
    ``#`` comments, and return them with the offset one byte past the
    final token's trailing whitespace character.

    The tokenizer that read PGM headers before the header pattern; kept
    as the oracle for it.
    """
    tokens: list[int] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i] not in b"\r\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError("truncated PGM header")
        tok = data[start:i]
        if not tok.isdigit():
            raise FormatError(f"bad PGM header token {tok!r}")
        tokens.append(int(tok))
        if len(tokens) == count:
            if i >= n:
                raise FormatError("truncated PGM header")
            i += 1  # exactly one whitespace byte separates header and raster
    return tokens, i


def pgm_header_reference(data: bytes):
    """(width, height, maxval, raster offset) by the tokenizer, or None
    where it refuses the header."""
    if not re.match(rb"^P5\s", data):
        return None
    try:
        (width, height, maxval), offset = read_pgm_tokens_reference(data[2:], 3)
    except FormatError:
        return None
    return width, height, maxval, offset + 2


def pgm_header(data: bytes):
    """The same by the header pattern of :func:`read_pgm`."""
    header = _PGM_HEADER.match(data)
    if header is None:
        return None
    return (*map(int, header.groups()), header.end())


_WHITESPACE = st.text(" \t\r\n\x0b\x0c", min_size=1, max_size=3).map(str.encode)
# comment text may hold digits, "#" and spaces, which must stay comment
_COMMENT = st.lists(st.sampled_from([b" ", b"\t", b"1", b"9", b"#", b"a", b"\xff"]), max_size=6).map(
    lambda parts: b"#" + b"".join(parts)
)


@st.composite
def pgm_headers(draw):
    """A P5 header with whitespace runs (CR, LF, tab, ...) and comments
    between its tokens and a few raster bytes, sometimes damaged: a
    comment glued to a number, cut short, or one byte spliced in."""

    def separator():
        parts = [draw(_WHITESPACE)]
        for _ in range(draw(st.integers(0, 2))):
            parts.append(draw(_COMMENT) + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
            parts.append(draw(st.just(b"") | _WHITESPACE))
        return b"".join(parts)

    def number(lo, hi):
        digits = (draw(st.sampled_from(["", "0", "00"])) + str(draw(st.integers(lo, hi)))).encode()
        if draw(st.integers(0, 7)) == 0:  # a comment glued to the number, which both refuse
            digits += draw(_COMMENT) + b"\n"
        return digits

    data = b"P5"
    for lo, hi in ((0, 20), (0, 20), (1, 65535)):
        data += separator() + number(lo, hi)
    data += draw(_WHITESPACE) + draw(st.binary(max_size=6))
    damage = draw(st.sampled_from(["none", "cut", "splice"]))
    at = draw(st.integers(0, len(data)))
    if damage == "cut":
        data = data[:at]
    elif damage == "splice":
        data = data[:at] + draw(st.sampled_from([b"#", b" ", b"\n", b"a", b"7", b"-"])) + data[at:]
    return data


class TestPgmHeader:
    @settings(max_examples=400, deadline=None)
    @given(pgm_headers())
    def test_pattern_matches_tokenizer(self, data):
        assert pgm_header(data) == pgm_header_reference(data)

    @pytest.mark.parametrize("data, expected", [
        (b"P5\n# a comment\n2 2\n# another\n255\n", (2, 2, 255, 33)),
        # after the maxval only the "\r" separates; the "\n" is raster
        (b"P5\r\n3\t4\r\n255\r\n", (3, 4, 255, 13)),
        (b"P5 1 1 65535 ", (1, 1, 65535, 13)),
        (b"P5\n#12 12\n1 1 9\n\n", (1, 1, 9, 16)),
        (b"P5\n# 1 1 9 \nx", None),
        (b"P5#c\n1 1 9\n", None),
        (b"P5\n1 1#c\n 9\n", None),
        (b"P5\n1 1 9#c\n", None),
        (b"P5\n1 1 9", None),
    ], ids=["comments", "crlf_tab", "maxval_16_bit", "digits_in_comment", "header_in_comment", "comment_glued_to_magic",
            "comment_glued_to_number", "comment_glued_to_maxval", "no_byte_after_maxval"])
    def test_examples(self, data, expected):
        assert pgm_header_reference(data) == expected
        assert pgm_header(data) == expected

    @pytest.mark.parametrize("data", [
        b"P6\n2 2\n255\n" + b"\x00" * 12,
        b"P5",
        b"P5\n2 2\n",
        b"P5\n2 2\n# only a comment",
        b"P5\n2x 2\n255\n\x00\x00\x00\x00",
        b"P5\n2#c\n2\n255\n\x00\x00\x00\x00",
        b"P5\n0 2\n255\n",
        b"P5\n1 1\n0\n\x00",
        b"P5\n1 1\n65535\n\x00\x00",
        b"P5\n4 4\n255\n\x00\x01",
        b"P5\n2 1\n100\n\x00\xc8",
        b"P5\n" + b"1" * 5000 + b" 1\n255\n",
    ], ids=["magic", "magic_only", "truncated_header", "comment_to_the_end", "bad_token",
            "glued_comment", "zero_width", "zero_maxval", "maxval_16_bit", "truncated_raster",
            "value_above_maxval", "number_too_long"])
    def test_every_refusal_names_the_file(self, tmp_path, data):
        p = tmp_path / "page.pgm"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(p))}: "):
            read_pgm(p)
