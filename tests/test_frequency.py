import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from hsfpn import (
    DegenerateBackgroundError,
    ScrWindows,
    ShapeError,
    ValidationError,
    blob_scene,
    dct_matrix,
    highfreq_response,
    highpass_cut,
    lowcut_filter,
    scr,
    scr_filter_sweep,
)
from hsfpn import frequency, tensor

from oracles import (
    naive_dct2_plane,
    naive_dct_basis,
    naive_highfreq_response,
    naive_idct2_plane,
    naive_lowcut_filter,
)

RNG = np.random.default_rng(99)


def mask_reference_scr(img, win):
    """SCR with the background taken by a boolean mask over the whole image, through mean() and std()."""
    trs, tcs = win.target_slice(*img.shape)
    nrs, ncs = win.neighborhood_slice(*img.shape)
    ann = np.zeros(img.shape, bool)
    ann[nrs, ncs] = True
    ann[trs, tcs] = False
    bg = img[ann].astype(np.float64)
    return float(abs(img[trs, tcs].astype(np.float64).mean() - bg.mean()) / bg.std())


def dct_coeffs(x):
    """The 2D DCT of each plane as the package's matrix products, D_H @ x @ D_W.T, in float64."""
    return dct_matrix(x.shape[-2]) @ np.asarray(x, np.float64) @ dct_matrix(x.shape[-1]).T


def from_coeffs(y):
    """The inverse of :func:`dct_coeffs`, D_H.T @ y @ D_W."""
    return dct_matrix(y.shape[-2]).T @ np.asarray(y, np.float64) @ dct_matrix(y.shape[-1])


class TestDctBasis:
    """The oracle's loop-built basis, checked against the direct sums and then against dct_matrix."""

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_oracle_basis_matches_direct_sums_on_impulses(self, n):
        basis = naive_dct_basis(n)
        for i in range(n):
            for j in range(n):
                impulse = np.zeros((n, n))
                impulse[i, j] = 1.0
                np.testing.assert_allclose(basis @ impulse @ basis.T, naive_dct2_plane(impulse),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(basis.T @ impulse @ basis, naive_idct2_plane(impulse),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 100])
    def test_dct_matrix_matches_oracle_basis(self, n):
        np.testing.assert_allclose(dct_matrix(n), naive_dct_basis(n), rtol=0, atol=1e-12)


class TestDct2:
    """The 2D DCT as dct_matrix products (the transform lowcut_filter projects with)."""

    def test_constant_plane_dc_only(self):
        c, h, w = 0.7, 6, 9
        plane = np.full((h, w), c, np.float32)
        coeffs = dct_coeffs(plane)
        assert coeffs[0, 0] == pytest.approx(c * np.sqrt(h * w), abs=1e-5)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-5

    def test_roundtrip_random_plane(self):
        x = RNG.standard_normal((8, 8)).astype(np.float32)
        np.testing.assert_allclose(from_coeffs(dct_coeffs(x)), x, atol=1e-5)

    def test_impulse_matches_direct_sum(self):
        plane = np.zeros((4, 4), np.float32)
        plane[0, 0] = 1.0
        np.testing.assert_allclose(dct_coeffs(plane), naive_dct2_plane(plane), atol=1e-6)

    def test_random_4x4_matches_direct_sum(self):
        plane = RNG.standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_allclose(dct_coeffs(plane), naive_dct2_plane(plane), atol=1e-6)

    def test_rectangular_matches_direct_sum(self):
        plane = RNG.standard_normal((5, 7)).astype(np.float32)
        np.testing.assert_allclose(dct_coeffs(plane), naive_dct2_plane(plane), atol=1e-6)

    def test_parseval(self):
        x = RNG.standard_normal((1, 3, 16, 12)).astype(np.float32)
        before = np.square(x.astype(np.float64)).sum()
        after = np.square(dct_coeffs(x)).sum()
        assert after == pytest.approx(before, rel=1e-4)

    def test_linear(self):
        x = RNG.standard_normal((8, 8)).astype(np.float32)
        y = RNG.standard_normal((8, 8)).astype(np.float32)
        lhs = dct_coeffs(2.5 * x + 0.5 * y)
        rhs = 2.5 * dct_coeffs(x) + 0.5 * dct_coeffs(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_4d_acts_per_plane(self):
        # lowcut_filter takes a bare plane or an (N, C, H, W) tensor alike
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        out = lowcut_filter(x, 2, 3)
        np.testing.assert_allclose(out[1, 2], lowcut_filter(x[1, 2], 2, 3), atol=1e-7)


class TestIdct2:
    def test_zeros(self):
        np.testing.assert_array_equal(from_coeffs(np.zeros((5, 5), np.float32)), np.zeros((5, 5)))

    def test_forward_roundtrip(self):
        y = RNG.standard_normal((8, 8)).astype(np.float32)
        np.testing.assert_allclose(dct_coeffs(from_coeffs(y)), y, atol=1e-5)

    def test_single_coefficient_profile(self):
        coeffs = np.zeros((4, 4), np.float32)
        coeffs[1, 0] = 1.0
        np.testing.assert_allclose(from_coeffs(coeffs), naive_idct2_plane(coeffs), atol=1e-6)


class TestHighpassMask:
    """The corner (r, s) that highpass_cut blocks, and lowcut_filter's absolute region."""

    def test_alpha_zero_all_ones(self):
        assert highpass_cut(6, 8, 0.0) == (0, 0)

    def test_alpha_one_all_zeros(self):
        assert highpass_cut(6, 8, 1.0) == (6, 8)

    def test_quarter_on_8x8(self):
        assert highpass_cut(8, 8, 0.25) == (2, 2)

    def test_real_valued_threshold(self):
        # alpha*h = 2.5 on h = 10: indices 0, 1, 2 fall below the threshold
        assert highpass_cut(10, 10, 0.25) == (3, 3)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.0, 1.0, 21)
        prev = highpass_cut(13, 11, float(alphas[0]))
        for a in alphas[1:]:
            cur = highpass_cut(13, 11, float(a))
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            highpass_cut(4, 4, 1.5)

    def test_lowcut_mask_region(self):
        # cut (2, 3) zeroes exactly the 2x3 corner of the coefficients, no other
        x = RNG.standard_normal((6, 6)).astype(np.float32)
        before, after = dct_coeffs(x), dct_coeffs(lowcut_filter(x, 2, 3))
        assert np.abs(after[:2, :3]).max() <= 1e-6
        kept = np.ones((6, 6), bool)
        kept[:2, :3] = False
        np.testing.assert_allclose(after[kept], before[kept], atol=1e-6)


class TestHighfreqResponse:
    def test_alpha_zero_identity(self):
        x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(highfreq_response(x, 0.0), x, atol=1e-5)

    def test_alpha_one_blocks_everything(self):
        x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        assert np.abs(highfreq_response(x, 1.0)).max() <= 1e-5

    def test_enabled_level_changes_values(self):
        x = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
        assert not np.allclose(highfreq_response(x, 0.5), x, atol=1e-3)

    def test_idempotent_projection(self):
        x = RNG.standard_normal((1, 2, 12, 12)).astype(np.float32)
        once = highfreq_response(x, 0.3)
        twice = highfreq_response(once, 0.3)
        np.testing.assert_allclose(twice, once, atol=1e-5)

    def test_preserves_dims(self):
        x = RNG.standard_normal((2, 3, 10, 14)).astype(np.float32)
        assert highfreq_response(x, 0.4).shape == x.shape

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("hw", [(9, 7), (10, 6)], ids=["9x7", "10x6"])
    def test_matches_direct_sum_oracle(self, hw, alpha):
        x = RNG.standard_normal((2, 2, *hw)).astype(np.float32)
        np.testing.assert_allclose(highfreq_response(x, alpha),
                                   naive_highfreq_response(x, alpha), rtol=0, atol=1e-5)

    def test_cut_on_exact_row_boundary(self):
        # alpha*h lands on an integer: that row is not blocked (u < alpha*h is strict)
        assert highpass_cut(10, 6, 0.5) == (5, 3)
        assert highpass_cut(10, 10, 0.1) == (1, 1)
        assert highpass_cut(9, 7, 0.0) == (0, 0)
        assert highpass_cut(9, 7, 1.0) == (9, 7)
        for h, w, alpha in [(10, 6, 0.5), (9, 7, 0.25), (10, 10, 0.1)]:
            blocked = sum(u < alpha * h and v < alpha * w for u in range(h) for v in range(w))
            r, s = highpass_cut(h, w, alpha)
            assert blocked == r * s

    def test_alpha_zero_bitwise_identity(self):
        x = RNG.standard_normal((1, 3, 9, 7)).astype(np.float32)
        assert highfreq_response(x, 0.0).tobytes() == x.tobytes()

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0])
    def test_matches_masked_filter_plane(self, alpha):
        x = RNG.standard_normal((2, 2, 12, 10)).astype(np.float32)
        out = highfreq_response(x, alpha)
        # the corner rows u < alpha*12 and columns v < alpha*10, counted directly
        r, c = sum(u < alpha * 12 for u in range(12)), sum(v < alpha * 10 for v in range(10))
        for s in range(2):
            for ch in range(2):
                np.testing.assert_allclose(out[s, ch], naive_lowcut_filter(x[s, ch], r, c),
                                           rtol=0, atol=1e-6)

    def test_peak_memory_bounded_by_input(self):
        x = RNG.standard_normal((1, 64, 128, 128)).astype(np.float32)
        highfreq_response(x, 0.25)  # first call outside the measurement
        tracemalloc.start()
        try:
            highfreq_response(x, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 output plus one group of 64 * BAND_ROWS // 128 = 8 planes in float64: 1.33x
        assert peak <= 1.5 * x.nbytes, f"peak {peak} B is {peak / x.nbytes:.2f}x the input"

    # 14 planes of 40 rows: BAND_ROWS 1, 9 and 40 give groups of 1, 3 (which does not divide 14) and
    # all 14 planes; the ids are the group sizes
    @pytest.mark.parametrize("band_rows", [1, 9, 40], ids=["1", "3", "14"])
    def test_bitwise_equal_to_one_whole_map_group(self, band_rows, monkeypatch):
        x = RNG.standard_normal((2, 7, 40, 24)).astype(np.float32)
        monkeypatch.setattr(tensor, "BAND_ROWS", band_rows)
        grouped = lowcut_filter(x, 11, 5)
        monkeypatch.setattr(tensor, "BAND_ROWS", 10**6)
        assert grouped.tobytes() == lowcut_filter(x, 11, 5).tobytes()


class TestScr:
    def test_constant_target_known_ratio(self):
        # target window constant 10 over a background with mean 2, std 2
        rng = np.random.default_rng(5)
        img = rng.normal(2.0, 2.0, size=(100, 100)).astype(np.float32)
        win = ScrWindows(target_center=(50, 50), target_extent=40, neighborhood_extent=80)
        trs, tcs = win.target_slice(100, 100)
        img[trs, tcs] = 10.0
        nrs, ncs = win.neighborhood_slice(100, 100)
        ann = np.zeros(img.shape, bool)
        ann[nrs, ncs] = True
        ann[trs, tcs] = False
        expected = abs(10.0 - img[ann].mean()) / img[ann].std()
        assert scr(img, win) == pytest.approx(expected, rel=1e-6)
        assert scr(img, win) == pytest.approx(4.0, rel=0.1)

    def test_zero_when_means_match(self):
        img = np.zeros((60, 60), np.float32)
        win = ScrWindows(target_center=(30, 30), target_extent=10, neighborhood_extent=20)
        img[::2, ::2] += 1.0  # structured background, same mean everywhere
        img[25:35, 25:35] = img[25:35, 25:35]  # target untouched
        val = scr(img, win)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_constant_shift_invariant(self):
        img = RNG.uniform(size=(64, 64)).astype(np.float32)
        win = ScrWindows(target_center=(32, 32), target_extent=8, neighborhood_extent=24)
        a = scr(img, win)
        b = scr(img + 3.0, win)
        assert a == pytest.approx(b, rel=1e-4)

    def test_degenerate_background(self):
        img = np.zeros((50, 50), np.float32)
        img[20:30, 20:30] = 1.0
        win = ScrWindows(target_center=(25, 25), target_extent=10, neighborhood_extent=30)
        with pytest.raises(DegenerateBackgroundError):
            scr(img, win)

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            ScrWindows(target_center=(5, 5), target_extent=10, neighborhood_extent=10)
        with pytest.raises(ValidationError):
            ScrWindows(target_center=(5, 5), target_extent=0, neighborhood_extent=10)

    @pytest.mark.parametrize("args", [((1,), 2, 4), ((1, 2, 3), 2, 4), ((1.5, 2), 2, 4), ((True, 2), 2, 4),
                                      (5, 2, 4), ("12", 2, 4), ((1, 2), 2.0, 4), ((1, 2), True, 4),
                                      ((1, 2), 2, 4.5), ((1, 2), np.float64(2.0), 4)],
                             ids=["one", "three", "float-centre", "bool-centre", "scalar-centre",
                                  "str-centre", "float-extent", "bool-extent", "float-neighbourhood",
                                  "numpy-float-extent"])
    def test_window_fields_typed(self, args):
        with pytest.raises(ValidationError):
            ScrWindows(*args)

    def test_window_fields_stored_as_python_ints(self):
        win = ScrWindows([np.int64(3), np.int32(4)], np.int16(2), np.uint8(6))
        assert win == ScrWindows((3, 4), 2, 6)
        assert [type(v) for v in (*win.target_center, win.target_extent, win.neighborhood_extent)] == [int] * 4

    def test_windows_clamped_at_border(self):
        img = RNG.uniform(size=(40, 40)).astype(np.float32)
        win = ScrWindows(target_center=(2, 2), target_extent=10, neighborhood_extent=20)
        assert np.isfinite(scr(img, win))

    def test_windows_clipped_not_shifted_at_top_and_left(self):
        # extent 40 around row 5 covers rows -15..25; clipping keeps 0..25
        win = ScrWindows(target_center=(5, 50), target_extent=40, neighborhood_extent=80)
        assert win.target_slice(100, 100) == (slice(0, 25), slice(30, 70))
        assert win.neighborhood_slice(100, 100) == (slice(0, 45), slice(10, 90))
        win = ScrWindows(target_center=(50, 5), target_extent=40, neighborhood_extent=80)
        assert win.target_slice(100, 100) == (slice(30, 70), slice(0, 25))
        # the bottom and right edges clip the same way
        win = ScrWindows(target_center=(95, 50), target_extent=40, neighborhood_extent=80)
        assert win.target_slice(100, 100) == (slice(75, 100), slice(30, 70))

    def test_target_off_image_rejected(self):
        img = RNG.uniform(size=(100, 100)).astype(np.float32)
        win = ScrWindows(target_center=(-1000, -1000))
        with pytest.raises(ValidationError):
            win.target_slice(100, 100)
        with pytest.raises(ValidationError):
            scr(img, win)

    @pytest.mark.parametrize("centre, want", [
        ((-1000, 50), (slice(0, 0), slice(10, 90))),
        ((1000, 50), (slice(100, 100), slice(10, 90))),
        ((50, -1000), (slice(10, 90), slice(0, 0))),
        ((50, 1000), (slice(10, 90), slice(100, 100))),
        ((-1000, -1000), (slice(0, 0), slice(0, 0))),
    ], ids=["above", "below", "left", "right", "corner"])
    def test_neighbourhood_off_image_is_empty_and_in_bounds(self, centre, want):
        # both bounds are clamped: a stop left negative would read from the far edge
        rows, cols = ScrWindows(target_center=centre).neighborhood_slice(100, 100)
        assert (rows, cols) == want
        assert np.zeros((100, 100))[rows, cols].size == 0

    @pytest.mark.parametrize("centre", [(50, 50), (3, 40), (97, 40), (40, 1), (40, 98), (0, 99)],
                             ids=["inside", "top", "bottom", "left", "right", "corner"])
    def test_matches_full_image_annulus_bitwise(self, centre):
        # the same background pixels in the same order as a mask over the whole image
        img = RNG.uniform(size=(100, 100)).astype(np.float32)
        win = ScrWindows(target_center=centre, target_extent=20, neighborhood_extent=50)
        assert scr(img, win) == mask_reference_scr(img, win)

    @pytest.mark.parametrize("shape, centre, target, hood", [
        ((101, 77), (50, 38), 7, 21),
        ((31, 29), (15, 14), 7, 8),  # the target is flush with the bottom and right of the neighbourhood
        ((64, 64), (2, 3), 9, 15),  # both windows clipped at the top and left
        ((64, 63), (62, 61), 10, 13),  # both windows clipped at the bottom and right
        ((40, 40), (20, 20), 38, 41),  # a one-pixel ring
        ((10, 60), (5, 30), 11, 31),  # no rows above or below the target
    ], ids=["odd", "one-wider", "flush-top-left", "flush-bottom-right", "ring", "sides-only"])
    def test_matches_mask_reference_at_odd_extents_and_edges(self, shape, centre, target, hood):
        # values spanning 1e-6..1e3, so a changed summation order would show in the last bits
        img = (10.0 ** np.random.default_rng(sum(shape)).uniform(-6, 3, size=shape)).astype(np.float32)
        win = ScrWindows(target_center=centre, target_extent=target, neighborhood_extent=hood)
        assert scr(img, win) == mask_reference_scr(img, win)

    def test_peak_memory_reads_only_the_neighbourhood(self):
        img = RNG.uniform(size=(2048, 2048)).astype(np.float32)
        win = ScrWindows(target_center=(1024, 1024))
        scr(img, win)  # first call outside the measurement
        tracemalloc.start()
        try:
            scr(img, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * img.nbytes, f"peak {peak} B is {peak / img.nbytes:.4f}x the image"


class TestSweepTrend:
    def test_rise_then_fall_on_blob_scene(self):
        scene = blob_scene()
        win = ScrWindows(target_center=(50, 50))
        cuts = [(c, c) for c in list(range(0, 13)) + list(range(16, 61, 4))]
        rows = scr_filter_sweep(scene, win, cuts)
        vals = [v for _, _, v in rows]
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        assert vals[peak] > 2.0 * vals[0]
        assert vals[-1] < 0.25 * vals[peak]
        assert vals[-1] < vals[0]

    def test_zero_cut_is_identity(self):
        scene = blob_scene()
        win = ScrWindows(target_center=(50, 50))
        rows = scr_filter_sweep(scene, win, [(0, 0)])
        assert rows[0][2] == pytest.approx(scr(scene, win), rel=1e-5)

    # the square scene is symmetric under transposition; the oblong one tells
    # cut rows from cut columns
    @pytest.mark.parametrize("h, w", [(100, 100), (100, 80)], ids=["100x100", "100x80"])
    def test_matches_filter_plane_reference(self, h, w):
        scene = blob_scene(h, w)
        win = ScrWindows(target_center=(h // 2, w // 2))
        cuts = [(0, 0), (0, 5), (5, 0), (7, 7), (200, 3)]
        rows = scr_filter_sweep(scene, win, cuts)
        assert [(r, c) for r, c, _ in rows] == cuts
        for r, c, value in rows:
            ref = scr(naive_lowcut_filter(scene, r, c), win)
            assert value == pytest.approx(ref, rel=1e-6), (r, c)

    def test_peak_memory_bounded_by_image(self):
        # the 512x512 scene and the 33 square cuts of the scr-sweep benchmark
        scene = blob_scene(512, 512)
        win = ScrWindows(target_center=(256, 256))
        cuts = [(c, c) for c in range(0, 257, 8)]
        scr_filter_sweep(scene, win, cuts)  # first call outside the measurement
        tracemalloc.start()
        try:
            scr_filter_sweep(scene, win, cuts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 corner, one band's float64 copy and product: 1.25x
        assert peak <= 1.4 * scene.nbytes, f"peak {peak} B is {peak / scene.nbytes:.2f}x the image"


def _spot_scene(h, w, target):
    # blob scene plus noise and a bright 3x3 spot on the target: every cut of
    # TestSweepOracle then scores above 0.1, so a relative tolerance holds
    scene = blob_scene(h, w) + np.random.default_rng(h * w).normal(0.0, 0.05, (h, w)).astype(np.float32)
    r, c = target
    scene[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2] += 1.0
    return scene


BENCH_SCENE = blob_scene(512, 512)  # the scene and windows of the scr-sweep benchmark
BENCH_WINDOWS = ScrWindows(target_center=(256, 256))


@functools.cache
def _bench_scene_scr(cut):
    return scr(lowcut_filter(BENCH_SCENE, cut, cut), BENCH_WINDOWS)


class TestBlobScene:
    def test_default_scene_pinned(self):
        digest = hashlib.sha256(blob_scene().tobytes()).hexdigest()
        assert digest == "da39303646df76575336ad160027cde04d72727fecd0cd5408c05e721061c8b3"

    def test_blob_wider_than_float_range_is_flat(self):
        # blob_sigma ** 2 overflows to inf, so the blob adds `amplitude` everywhere, without a warning
        scene = blob_scene(8, 8, blob_sigma=1e200)
        assert scene.min() == pytest.approx(0.8) and np.ptp(scene) == pytest.approx(0.2)


class TestSweepOracle:
    """The shared-corner sweep against one full filter per cut."""

    # unsorted, repeated and shrinking; rectangular, empty on one axis, and
    # larger than the image on one axis or both
    CUTS = [(6, 6), (0, 5), (5, 0), (3, 9), (6, 6), (2, 2), (0, 0), (12, 1), (1, 12),
            (200, 3), (3, 200), (9, 3), (40, 40), (4, 4)]

    @pytest.mark.parametrize("h, w", [(48, 48), (40, 56)], ids=["square", "oblong"])
    @pytest.mark.parametrize("where", ["centre", "top", "bottom", "left", "right", "corner"])
    def test_matches_per_cut_filters(self, h, w, where):
        centre = {"centre": (h // 2, w // 2), "top": (1, w // 2), "bottom": (h - 2, w // 2),
                  "left": (h // 2, 0), "right": (h // 2, w - 1), "corner": (h - 1, 0)}[where]
        scene = _spot_scene(h, w, centre)
        win = ScrWindows(target_center=centre, target_extent=4, neighborhood_extent=20)
        rows = scr_filter_sweep(scene, win, iter(self.CUTS))
        assert [(r, c) for r, c, _ in rows] == self.CUTS
        for r, c, value in rows:
            assert value == pytest.approx(scr(lowcut_filter(scene, r, c), win), rel=1e-6), (r, c)
            ref = scr(naive_lowcut_filter(scene, r, c), win)
            assert value == pytest.approx(ref, rel=1e-6), (r, c)

    def test_empty_cut_scores_the_unfiltered_image_bitwise(self):
        scene = _spot_scene(40, 56, (20, 28))
        win = ScrWindows(target_center=(20, 28), target_extent=4, neighborhood_extent=20)
        rows = scr_filter_sweep(scene, win, [(3, 3), (0, 9), (9, 0), (0, 0)])
        unfiltered = scr(scene, win)
        assert rows[0][2] != unfiltered
        assert [value for _, _, value in rows[1:]] == [unfiltered] * 3

    def test_no_cuts_scores_nothing(self):
        scene = _spot_scene(40, 56, (20, 28))
        win = ScrWindows(target_center=(20, 28), target_extent=4, neighborhood_extent=20)
        assert scr_filter_sweep(scene, win, []) == []

    def test_benchmark_scene_matches_lowcut_filter(self):
        # the 512x512 scene and the 33 square cuts of the scr-sweep benchmark
        scene = blob_scene(512, 512)
        win = ScrWindows(target_center=(256, 256))
        cuts = [(c, c) for c in range(0, 257, 8)]
        rows = scr_filter_sweep(scene, win, cuts)
        assert [(r, c) for r, c, _ in rows] == cuts
        for r, c, value in rows:
            assert value == pytest.approx(scr(lowcut_filter(scene, r, c), win), rel=1e-6), (r, c)

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_benchmark_scene_in_any_order(self, order):
        # a cut that covers the one before adds a strip to the window; any
        # other starts it again from zero (ascending: the test above)
        cuts = [(c, c) for c in range(0, 257, 8)]
        if order == "descending":
            cuts.reverse()
        else:
            np.random.default_rng(7).shuffle(cuts)
        rows = scr_filter_sweep(BENCH_SCENE, BENCH_WINDOWS, cuts)
        assert [(r, c) for r, c, _ in rows] == cuts
        for r, c, value in rows:
            assert value == pytest.approx(_bench_scene_scr(r), rel=1e-6), (r, c)

    def test_many_small_steps_keep_their_accuracy(self):
        # 257 cuts, each adding one row and one column of coefficients: rounding
        # that built up over the updates would show at the later cuts
        rows = scr_filter_sweep(BENCH_SCENE, BENCH_WINDOWS, [(c, c) for c in range(257)])
        assert [r for r, _, _ in rows] == list(range(257))
        for r, c, value in rows[::16]:
            assert value == pytest.approx(_bench_scene_scr(r), rel=1e-6), (r, c)

    def test_negative_cut_mid_sweep_rejected(self, monkeypatch):
        # every cut is checked before any is scored, wherever the bad one sits
        scene = _spot_scene(48, 48, (24, 24))
        win = ScrWindows(target_center=(24, 24), target_extent=4, neighborhood_extent=20)
        calls = []
        monkeypatch.setattr(frequency, "scr", lambda *args: calls.append(args))
        for cuts in ([(2, 2), (4, 4), (3, -1), (5, 5)], [(2, 2), (4, 4), (5, 5), (6, -1)]):
            with pytest.raises(ValidationError):
                scr_filter_sweep(scene, win, iter(cuts))
        assert calls == []

    def test_target_off_image_rejected(self):
        scene = _spot_scene(48, 48, (24, 24))
        for centre in [(-1000, -1000), (24, 100), (100, 24)]:
            with pytest.raises(ValidationError):
                scr_filter_sweep(scene, ScrWindows(target_center=centre), [(0, 0), (4, 4)])


class TestExtentRule:
    """dct_matrix and highpass_cut check their extents by the rule lowcut_filter's cuts follow."""

    @pytest.mark.parametrize("h, w", [(10.5, 10), (10, 0), (0, 10), (-3, 10), (True, 10), ("10", 10),
                                      (np.float64(10.0), 10)],
                             ids=["float", "zero-w", "zero-h", "negative", "bool", "str", "numpy-float"])
    def test_highpass_cut_rejects_bad_extents(self, h, w):
        with pytest.raises(ValidationError, match="plane extents must be integers >= 1"):
            highpass_cut(h, w, 0.25)

    @pytest.mark.parametrize("alpha", ["a", None, True, 1.5, -0.1, float("nan")],
                             ids=["str", "none", "bool", "above", "below", "nan"])
    def test_highpass_cut_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\]"):
            highpass_cut(10, 10, alpha)

    def test_highpass_cut_accepts_numpy_scalars(self):
        assert highpass_cut(np.int64(10), np.int32(10), np.float32(0.25)) == (3, 3)


class TestCutExtents:
    """lowcut_filter and scr_filter_sweep take the same cuts: integers >= 0, numpy ones included."""

    SCENE = blob_scene(40, 40)
    WIN = ScrWindows(target_center=(20, 20), target_extent=4, neighborhood_extent=20)

    @pytest.mark.parametrize("cut", [(2.5, 3), (3, -1), (np.float64(2.0), 3), (True, 3), ("2", 3)],
                             ids=["float", "negative", "numpy-float", "bool", "str"])
    def test_rejected_by_both(self, cut):
        with pytest.raises(ValidationError, match="cut extents must be integers >= 0"):
            lowcut_filter(self.SCENE, *cut)
        with pytest.raises(ValidationError, match="cut extents must be integers >= 0"):
            scr_filter_sweep(self.SCENE, self.WIN, [(1, 1), cut])

    @pytest.mark.parametrize("cuts", [[(1, 2, 3)], [5], [(1, 1), (4,)], None],
                             ids=["triple", "scalar", "single", "none"])
    def test_sweep_cuts_must_be_pairs(self, cuts):
        with pytest.raises(ValidationError, match="pair"):
            scr_filter_sweep(self.SCENE, self.WIN, cuts)

    def test_numpy_integers_accepted(self):
        cut = (np.int64(3), np.int32(2))
        assert lowcut_filter(self.SCENE, *cut).tobytes() == lowcut_filter(self.SCENE, 3, 2).tobytes()
        assert scr_filter_sweep(self.SCENE, self.WIN, [cut]) == scr_filter_sweep(self.SCENE, self.WIN, [(3, 2)])


class TestLowcutRank:
    """lowcut_filter converts its input once, then takes rank 2 (a bare plane) or rank 4."""

    X = RNG.standard_normal((2, 20, 40, 24)).astype(np.float32)

    @pytest.mark.parametrize("shape", [(24,), (20, 40, 24)], ids=["rank-1", "rank-3"])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"rank-2 plane or a rank-4 .* got rank"):
            lowcut_filter(np.ones(shape, np.float32), 2, 2)

    def test_ragged_list_rejected_as_unconvertible(self):
        with pytest.raises(ValidationError, match="not convertible"):
            lowcut_filter([[1], [1, 2]], 2, 2)

    @pytest.mark.parametrize("cut", [(5, 7), (40, 1), (64, 64)])
    def test_every_plane_equals_the_tensor_filter(self, cut):
        out = lowcut_filter(self.X, *cut)
        for s in range(self.X.shape[0]):
            for c in range(self.X.shape[1]):
                assert lowcut_filter(self.X[s, c], *cut).tobytes() == out[s, c].tobytes(), (s, c)

    def test_nested_list_plane_equals_its_array(self):
        plane = self.X[1, 3]
        assert lowcut_filter(plane.tolist(), 5, 7).tobytes() == lowcut_filter(plane, 5, 7).tobytes()


class TestDctMatrixCache:
    def test_cache_holds_at_most_sixteen_orders(self):
        for n in range(1, 101):
            dct_matrix(n)
            dct_matrix(n, n // 2)
        info = frequency._dct_rows.cache_info()
        assert info.maxsize == 16 and info.currsize <= info.maxsize

    @pytest.mark.parametrize("n", [1, 7, 64, 100, 512])
    def test_rows_bitwise_equal_to_full_matrix(self, n):
        full = dct_matrix(n)
        for rows in sorted({0, 1, n // 3, n - 1, n}):
            part = dct_matrix(n, rows)
            assert part.shape == (rows, n) and part.flags.c_contiguous and not part.flags.writeable
            assert part.tobytes() == full[:rows].tobytes()

    def test_keyed_by_order_and_rows(self):
        # the default row count is the order itself: one cache entry, not two
        assert dct_matrix(40) is dct_matrix(40, 40)
        assert dct_matrix(np.int64(40), np.int32(5)) is dct_matrix(40, 5)
        assert dct_matrix(40, 5) is not dct_matrix(40, 6)

    @pytest.mark.parametrize("args", [(0,), (-1,), (2.5,), (True,), ("a",), (np.float64(4.0),), (None,),
                                      (4, 5), (4, -1), (4, 2.0), (0, 0)],
                             ids=["zero", "negative", "float", "bool", "str", "numpy-float", "none",
                                  "rows-above-order", "rows-negative", "rows-float", "empty-order"])
    def test_bad_order_or_rows_rejected_before_the_cache(self, args):
        before = frequency._dct_rows.cache_info()
        with pytest.raises(ValidationError):
            dct_matrix(*args)
        after = frequency._dct_rows.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_filter_builds_only_the_rows_it_needs(self):
        # a 64x48 cut on a 1024^2 plane keeps its 64 and 48 DCT rows alive in
        # the cache, not the 8 MB 1024x1024 float64 matrix
        plane = RNG.standard_normal((1024, 1024)).astype(np.float32)
        frequency._dct_rows.cache_clear()
        tracemalloc.start()
        try:
            out = lowcut_filter(plane, 64, 48)
            kept = tracemalloc.get_traced_memory()[0] - out.nbytes
        finally:
            tracemalloc.stop()
        assert kept <= (64 + 48) * 1024 * 8 + 65536, f"{kept} B stay allocated after the call"


class TestFilterPlane:
    def test_full_mask_identity(self):
        # an empty cut on either axis returns the plane bitwise
        plane = RNG.uniform(size=(10, 10)).astype(np.float32)
        for cut in [(0, 0), (0, 4), (4, 0)]:
            assert lowcut_filter(plane, *cut).tobytes() == plane.tobytes()
