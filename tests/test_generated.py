"""Generated cases: each exported fast path against its naive oracle or reference.

Hypothesis draws the shapes, extents and flags (settings in conftest.py), and a
drawn seed fills the arrays. Examples and extents are capped so the naive loops
stay fast. Each tolerance is the one the path's hand-picked oracle test uses.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsfpn import (ConvLayer, ConvSpec, PyramidConfig, ScrWindows, SdpParams, adaptive_pool, block_attention,
                   conv2d, hsfpn_forward, init_weights, lowcut_filter, random_pyramid, read_pgm, scr, sdp_forward,
                   tensor)
from hsfpn.sdp import sdp_specs

from oracles import (naive_adaptive_pool, naive_block_attention, naive_conv2d, naive_hsfpn_forward,
                     naive_lowcut_filter, naive_sdp_forward)
from test_frequency import mask_reference_scr

SEEDS = st.integers(0, 2**32 - 1)


def normal(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


CONV_CASES = dict(batch=st.integers(1, 2), groups=st.integers(1, 3), cin_g=st.integers(1, 3),
                  cout_g=st.integers(1, 3), kernel=st.sampled_from([1, 3]), h=st.integers(1, 40),
                  w=st.integers(1, 12), bias=st.booleans(), seed=SEEDS)


def conv_case(batch, groups, cin_g, cout_g, kernel, h, w, bias, seed):
    spec = ConvSpec(groups * cin_g, groups * cout_g, kernel=kernel, groups=groups, has_bias=bias)
    x = normal(seed, batch, spec.in_channels, h, w)
    weight = normal(seed + 1, *spec.weight_shape)
    return x, spec, weight, normal(seed + 2, spec.out_channels) if bias else None


@settings(max_examples=50)
@given(**CONV_CASES)
def test_conv2d(**case):
    x, spec, weight, b = conv_case(**case)
    np.testing.assert_allclose(conv2d(x, spec, weight, b), naive_conv2d(x, weight, b, spec.groups), atol=1e-5)


@settings(max_examples=50)
@given(**CONV_CASES, nonfinite=st.lists(st.tuples(st.sampled_from([np.inf, -np.inf, np.nan]), st.integers(0)),
                                        max_size=3))
def test_conv2d_fallback_gives_the_same_bits(nonfinite, **case):
    x, spec, weight, b = conv_case(**case)
    for value, at in nonfinite:
        x.flat[at % x.size] = value
    bound = conv2d(x, spec, weight, b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_blas_dgemm", lambda: None)  # the path of a numpy without the symbol
        assert conv2d(x, spec, weight, b).tobytes() == bound.tobytes()


@settings(max_examples=50)
@given(data=st.data(), shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 24), st.integers(1, 24)),
       mode=st.sampled_from(["avg", "max"]), seed=SEEDS)
def test_adaptive_pool(data, shape, mode, seed):
    out_h, out_w = data.draw(st.integers(1, shape[2])), data.draw(st.integers(1, shape[3]))
    x = normal(seed, *shape)
    np.testing.assert_allclose(adaptive_pool(x, out_h, out_w, mode), naive_adaptive_pool(x, out_h, out_w, mode),
                               rtol=0, atol=1e-6)


@settings(max_examples=40)
@given(planes=st.tuples(st.integers(1, 2), st.integers(1, 3)), h=st.integers(1, 40), w=st.integers(1, 12),
       cut_rows=st.integers(0, 44), cut_cols=st.integers(0, 16), bare=st.booleans(), seed=SEEDS)
def test_lowcut_filter(planes, h, w, cut_rows, cut_cols, bare, seed):
    # cuts run past the plane extents, and a bare (H, W) plane takes the rank-2 path
    x = normal(seed, *((1, 1) if bare else planes), h, w)
    out = lowcut_filter(x[0, 0] if bare else x, cut_rows, cut_cols).reshape(x.shape)
    for s, c in np.ndindex(*x.shape[:2]):
        np.testing.assert_allclose(out[s, c], naive_lowcut_filter(x[s, c], cut_rows, cut_cols), rtol=0, atol=1e-6)


@settings(max_examples=40)
@given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=8), channels=st.integers(1, 6), seed=SEEDS)
def test_block_attention(counts, channels, seed):
    # key j stands for counts[j] copies of itself; the oracle attends over the copies, one per query
    q, k, v = (normal(seed + i, n, channels) for i, n in enumerate((sum(counts), len(counts), len(counts))))
    ref = naive_block_attention(q, np.repeat(k, counts, axis=0), np.repeat(v, counts, axis=0))
    np.testing.assert_allclose(block_attention(q, k, v, counts), ref, rtol=0, atol=1e-5)


@settings(max_examples=20)
@given(data=st.data(), batch=st.integers(1, 2), channels=st.integers(1, 3),
       upper=st.tuples(st.integers(1, 6), st.integers(1, 6)), seed=SEEDS)
def test_sdp_forward(data, batch, channels, upper, seed):
    # every block extent that divides the lower map, odd ones included
    h, w = 2 * upper[0], 2 * upper[1]
    block_h = data.draw(st.sampled_from([d for d in range(1, h + 1) if h % d == 0]))
    block_w = data.draw(st.sampled_from([d for d in range(1, w + 1) if w % d == 0]))
    layers = {role: ConvLayer(spec, normal(seed + i, *spec.weight_shape))
              for i, (role, spec) in enumerate(sdp_specs(channels).items())}
    params = SdpParams(**layers, block_h=block_h, block_w=block_w)
    c_low, p_up = normal(seed + 3, batch, channels, h, w), normal(seed + 4, batch, channels, *upper)
    np.testing.assert_allclose(sdp_forward(c_low, p_up, params), naive_sdp_forward(c_low, p_up, params), atol=1e-4)


@settings(max_examples=6)
@given(batch=st.integers(1, 2), channels=st.sampled_from([2, 4]), groups=st.sampled_from([1, 2]),
       base=st.tuples(st.sampled_from([8, 16]), st.sampled_from([8, 16])), k=st.integers(1, 20),
       alpha=st.floats(0.0, 1.0), fusion_mode=st.sampled_from(["sdp_only", "sdp_plus_add"]), squash=st.booleans(),
       seed=st.integers(0, 2**16))
def test_hsfpn_forward(batch, channels, groups, base, k, alpha, fusion_mode, squash, seed):
    config = PyramidConfig(channels=channels, alpha=alpha, k=k, groups=groups, fusion_mode=fusion_mode, seed=seed,
                           squash=squash)
    weights = init_weights(config)
    pyr = random_pyramid(channels, base_hw=base, batch=batch, seed=seed + 1)
    out = hsfpn_forward(pyr, weights)
    ref = naive_hsfpn_forward({lv: pyr[lv] for lv in (2, 3, 4, 5)}, weights, config.alpha)
    for lv in (2, 3, 4, 5):
        np.testing.assert_allclose(out[lv], ref[lv], atol=1e-4)


SPACE = st.sampled_from(list(b" \t\n\r\x0b\x0c"))
# a comment runs to the next newline and may hold any other byte, non-ASCII and control bytes included
COMMENT = st.binary(max_size=6).map(lambda body: b"#" + body.replace(b"\n", b"") + b"\n")
# a run between header tokens opens with whitespace: a '#' right after a token would belong to it
RUN = st.tuples(SPACE, st.lists(st.one_of(SPACE.map(lambda b: bytes([b])), COMMENT), max_size=4)).map(
    lambda run: bytes([run[0]]) + b"".join(run[1]))


@pytest.fixture(scope="module")
def pgm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm")


@settings(max_examples=60)
@given(width=st.integers(1, 6), height=st.integers(1, 6), maxval=st.integers(1, 255),
       lead=st.one_of(RUN, COMMENT), runs=st.tuples(RUN, RUN), last=SPACE, seed=SEEDS)
def test_read_pgm_header_runs(pgm_dir, width, height, maxval, lead, runs, last, seed):
    # any whitespace and comments between the tokens read as the canonical header does
    raster = np.random.default_rng(seed).integers(0, maxval + 1, width * height, dtype=np.uint8).tobytes()
    canonical, varied = pgm_dir / "canonical.pgm", pgm_dir / "varied.pgm"
    canonical.write_bytes(b"P5\n%d %d\n%d\n" % (width, height, maxval) + raster)
    varied.write_bytes(b"P5" + lead + b"%d" % width + runs[0] + b"%d" % height + runs[1] + b"%d" % maxval
                       + bytes([last]) + raster)
    want, got = read_pgm(canonical), read_pgm(varied)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def area(rows, cols):
    return (rows.stop - rows.start) * (cols.stop - cols.start)


@settings(max_examples=100)
@given(data=st.data(), shape=st.tuples(st.integers(1, 30), st.integers(1, 30)), target=st.integers(1, 12),
       ring=st.integers(1, 12), seed=SEEDS)
def test_scr(data, shape, target, ring, seed):
    # any centre whose target window keeps a pixel, so both windows clip at every edge;
    # images span 1e-6..1e3, so a changed summation order shows in the last bits
    (h, w), half = shape, target // 2
    centre = (data.draw(st.integers(half - target + 1, h - 1 + half)),
              data.draw(st.integers(half - target + 1, w - 1 + half)))
    win = ScrWindows(target_center=centre, target_extent=target, neighborhood_extent=target + ring)
    assume(area(*win.neighborhood_slice(h, w)) - area(*win.target_slice(h, w)) >= 2)  # a background with a spread
    img = (10.0 ** np.random.default_rng(seed).uniform(-6, 3, size=shape)).astype(np.float32)
    assert scr(img, win) == mask_reference_scr(img, win)
