import itertools

import numpy as np
import pytest

from facedet import augment as ag
from facedet import network, ops, ppm
from naive_ops import apply_color_unbanded, augment_pipeline_staged, resize_bilinear_fancy

# one row per band, the default, and the whole image as one band
BAND_BYTES_CASES = (1, ops.BAND_BYTES, 1 << 40)
COLOR_ORDERS = list(itertools.permutations(ag._COLOR_OPS))
COLOR_SHAPES = [(1, 5), (7, 33), (768, 256)]
COLOR_PARAMS = [
    (0.07, 1.3, 0.6), (-0.09, 0.7, 1.4),  # every op runs
    (0.0, 1.3, 0.6), (0.07, 1.0, 0.6), (0.07, 1.3, 1.0),  # one identity skip each
    (0.0, 1.0, 1.0),
]
CROPS = [(0, 0, 40), (3, 5, 17), (60, 20, 20), (25, 40, 35), (0, 0, 1)]
CROP_PARAMS = [(0.07, 1.3, 0.6), (-0.09, 0.7, 1.4), (0.07, 1.0, 0.6)]
RESIZE_CASES = [
    ((300, 300), (1024, 1024)), ((768, 768), (1024, 1024)), ((1024, 1024), (512, 512)),
    ((480, 640), (384, 512)), ((517, 999), (700, 260)), ((64, 64), (64, 64)),
    ((1, 1), (4, 4)), ((40, 40), (1, 1)),
]
FLIP_CASES = [
    ((300, 300), (1024, 1024)), ((1024, 1024), (512, 512)), ((517, 999), (700, 260)),
    ((64, 64), (64, 64)), ((1, 1), (4, 4)), ((40, 40), (1, 1)),
]
PIPELINE_SHAPES = [(64, 80), (80, 64), (64, 64), (50, 120), (97, 61), (71, 93)]
PIPELINE_SEEDS = 60
NO_CONTRAST_FROM = 48  # seeds from here on draw contrast exactly 1


def checker_image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((1, 3, h, w), dtype=np.float32)


def sample(h=100, w=100, boxes=(), seed=0):
    return ag.Sample(checker_image(h, w, seed), np.array(boxes, np.float32).reshape(-1, 4))


def pipeline_sample(seed):
    """A small source with six boxes, some crossing its edges, for the
    pipeline's oracle tests."""
    h, w = PIPELINE_SHAPES[seed % len(PIPELINE_SHAPES)]
    box_rng = np.random.default_rng([seed, 1])
    xy = box_rng.uniform(-10, [w, h], (6, 2))
    boxes = np.hstack([xy, xy + box_rng.uniform(5, 60, (6, 2))]).astype(np.float32)
    return ag.Sample(checker_image(h, w, seed), boxes, "src")


def full_size_sample():
    img = checker_image(768, 1024, seed=9)
    return ag.Sample(img, [[100, 100, 200, 220], [500, 300, 560, 380], [900, 600, 1024, 768]])


class TestColorDistort:
    def test_identity_parameters_unchanged(self):
        img = checker_image(8, 8)
        out = ag.apply_color(img, 0.0, 1.0, 1.0)
        np.testing.assert_array_equal(out, img)

    def test_output_clamped(self):
        rng = np.random.default_rng(0)
        img = checker_image(16, 16)
        for _ in range(20):
            out = ag.color_distort(img, ag.draw_color(rng))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_same_seed_identical(self):
        img = checker_image(12, 12)
        a = ag.color_distort(img, ag.draw_color(np.random.default_rng(5)))
        b = ag.color_distort(img, ag.draw_color(np.random.default_rng(5)))
        np.testing.assert_array_equal(a, b)

    def test_brightness_shifts(self):
        img = np.full((1, 3, 4, 4), 0.4, np.float32)
        out = ag.apply_color(img, 0.1, 1.0, 1.0, order=("brightness",))
        np.testing.assert_allclose(out, 0.5, atol=1e-6)

    def test_saturation_zero_is_grayscale(self):
        img = checker_image(6, 6)
        out = ag.apply_color(img, 0.0, 1.0, 0.0, order=("saturation",))
        np.testing.assert_allclose(out[0, 0], out[0, 1], atol=1e-6)
        np.testing.assert_allclose(out[0, 1], out[0, 2], atol=1e-6)

    def test_boxes_never_touched(self):
        s = sample(boxes=[[10, 10, 40, 40]])
        rng = np.random.default_rng(1)
        out = ag.Sample(ag.color_distort(s.image, ag.draw_color(rng)), s.boxes, s.source_id)
        np.testing.assert_array_equal(out.boxes, s.boxes)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown color op 'hue'"):
            ag.apply_color(checker_image(4, 4), 0.1, 1.2, 0.8, order=("brightness", "hue"))

    @pytest.mark.parametrize("h,w", COLOR_SHAPES)
    @pytest.mark.parametrize("params", COLOR_PARAMS)
    def test_matches_unbanded_oracle_bit_for_bit(self, monkeypatch, params, h, w):
        # every op order, so each op meets the source and another op's
        # output, and an identity op sits before and after each other op
        img = checker_image(h, w, seed=h)
        for order in COLOR_ORDERS:
            expected = apply_color_unbanded(img, *params, order=order, work=np.float32)
            for band_bytes in BAND_BYTES_CASES:
                monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)
                out = ag.apply_color(img, *params, order=order)
                np.testing.assert_array_equal(
                    out.view(np.uint32), expected.view(np.uint32), err_msg=f"{order} {band_bytes}"
                )
                assert out.dtype == np.float32 and out.flags.c_contiguous

    @pytest.mark.parametrize("crop", CROPS)
    @pytest.mark.parametrize("params", CROP_PARAMS)
    def test_crop_matches_cropped_whole_image_bit_for_bit(self, monkeypatch, params, crop):
        # contrast's mean is the whole image's, every other op is per pixel;
        # (60, 20, 20) and (25, 40, 35) touch the right and the bottom edge
        img = checker_image(75, 80, seed=3)
        x0, y0, side = crop
        for order in COLOR_ORDERS:
            expected = apply_color_unbanded(img, *params, order=order, work=np.float32)
            expected = expected[:, :, y0 : y0 + side, x0 : x0 + side]
            for band_bytes in BAND_BYTES_CASES:
                monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)
                out = ag.apply_color(img, *params, order=order, crop=crop)
                np.testing.assert_array_equal(
                    out.view(np.uint32), expected.view(np.uint32), err_msg=f"{order} {band_bytes}"
                )
                assert out.dtype == np.float32 and out.flags.c_contiguous

    def test_repeated_contrast_takes_each_mean_in_turn(self):
        img = checker_image(30, 40, seed=4)
        order = ("contrast", "saturation", "contrast")
        expected = apply_color_unbanded(img, 0.0, 1.4, 0.5, order=order, work=np.float32)[:, :, 5:25, 10:30]
        out = ag.apply_color(img, 0.0, 1.4, 0.5, order=order, crop=(10, 5, 20))
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))


class TestRandomCrop:
    def test_first_candidate_is_biggest_centered_square(self):
        rng = np.random.default_rng(0)
        cands = ag.crop_candidates(60, 100, rng)
        assert cands[0] == (20, 0, 60)
        cands = ag.crop_candidates(100, 100, rng)
        assert cands[0] == (0, 0, 100)

    def test_candidate_sides_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            h, w = int(rng.integers(40, 200)), int(rng.integers(40, 200))
            short = min(h, w)
            cands = ag.crop_candidates(h, w, rng)
            assert cands[0][2] == short
            for x0, y0, side in cands[1:]:
                assert round(0.3 * short) - 1 <= side <= short
                assert 0 <= x0 <= w - side
                assert 0 <= y0 <= h - side

    def test_whole_image_crop_is_identity(self):
        s = sample(80, 80, boxes=[[5, 5, 30, 30]])
        out = ag.crop_sample(s, 0, 0, 80)
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.boxes, s.boxes)

    def test_box_center_outside_dropped(self):
        s = sample(100, 100, boxes=[[0, 0, 30, 30], [60, 60, 90, 90]])
        out = ag.crop_sample(s, 50, 50, 50)
        assert len(out.boxes) == 1
        np.testing.assert_allclose(out.boxes[0], [10, 10, 40, 40])

    def test_straddling_box_clipped_to_patch(self):
        s = sample(100, 100, boxes=[[30, 40, 70, 80]])  # center (50, 60)
        out = ag.crop_sample(s, 40, 50, 40)  # patch x [40, 80), y [50, 90)
        np.testing.assert_allclose(out.boxes[0], [0, 0, 30, 30])

    def test_pixels_match_box_bookkeeping(self):
        # paint the box region, crop, and recover its bounds from the pixels
        img = np.zeros((1, 3, 100, 100), np.float32)
        img[:, :, 20:60, 30:80] = 1.0
        s = ag.Sample(img, [[30.0, 20.0, 80.0, 60.0]])
        out = ag.crop_sample(s, 25, 10, 60)
        ys, xs = np.nonzero(out.image[0, 0] > 0.5)
        got = out.boxes[0]
        assert abs(xs.min() - got[0]) <= 1 and abs(xs.max() + 1 - got[2]) <= 1
        assert abs(ys.min() - got[1]) <= 1 and abs(ys.max() + 1 - got[3]) <= 1

    def test_deterministic(self):
        s = sample(90, 120, boxes=[[10, 10, 50, 50]])
        a = ag.random_crop(s, np.random.default_rng(3))
        b = ag.random_crop(s, np.random.default_rng(3))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.boxes, b.boxes)


class TestResize:
    def test_upscale_doubles_boxes(self):
        s = sample(512, 512, boxes=[[10, 20, 100, 200]])
        out = ag.resize_square(s, 1024)
        assert out.image.shape == (1, 3, 1024, 1024)
        np.testing.assert_allclose(out.boxes[0], [20, 40, 200, 400])

    def test_same_size_identity(self):
        s = sample(64, 64)
        out = ag.resize_square(s, 64)
        np.testing.assert_allclose(out.image, s.image, atol=1e-6)

    def test_constant_image_stays_constant(self):
        img = np.full((1, 3, 40, 40), 0.37, np.float32)
        out = ag.resize_bilinear(img, 96, 96)
        np.testing.assert_allclose(out, 0.37, atol=1e-6)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ag.resize_square(sample(50, 60), 128)

    def test_interpolation_weights(self):
        # 2 -> 3 columns: centers sample at the edge, midpoint, edge
        img = np.zeros((1, 3, 2, 2), np.float32)
        img[:, :, :, 1] = 1.0
        out = ag.resize_bilinear(img, 2, 3)
        np.testing.assert_allclose(out[0, 0, 0], [0.0, 0.5, 1.0], atol=1e-6)

    @pytest.mark.parametrize("size,out_size", RESIZE_CASES)
    def test_matches_fancy_index_oracle_bit_for_bit(self, monkeypatch, size, out_size):
        img = checker_image(*size, seed=size[0])
        expected = resize_bilinear_fancy(img, *out_size, work=np.float32)
        for band_bytes in BAND_BYTES_CASES:
            monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)
            out = ag.resize_bilinear(img, *out_size)
            np.testing.assert_array_equal(
                out.view(np.uint32), expected.view(np.uint32), err_msg=str(band_bytes)
            )
            assert out.dtype == np.float32 and out.flags.c_contiguous

    @pytest.mark.parametrize("size,out_size", FLIP_CASES)
    def test_flip_mirrors_columns_bit_for_bit(self, monkeypatch, size, out_size):
        # reversed column taps give out[..., ::-1] element for element, the
        # unchanged size (the copy path) included
        img = checker_image(*size, seed=size[1])
        expected = resize_bilinear_fancy(img, *out_size, work=np.float32)[..., ::-1]
        for band_bytes in BAND_BYTES_CASES:
            monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)
            out = ag.resize_bilinear(img, *out_size, flip=True)
            np.testing.assert_array_equal(
                out.view(np.uint32), expected.view(np.uint32), err_msg=str(band_bytes)
            )
            assert out.dtype == np.float32 and out.flags.c_contiguous

    @pytest.mark.parametrize("side,target", [(90, 128), (128, 128)])
    def test_resize_square_flip_is_hflip(self, side, target):
        s = sample(side, side, boxes=[[3, 5, 40, 60], [50, 10, 90, 30]], seed=side)
        want = ag.hflip(ag.resize_square(s, target), np.random.default_rng(0), p=1.0)
        out = ag.resize_square(s, target, flip=True)
        np.testing.assert_array_equal(out.image.view(np.uint32), want.image.view(np.uint32))
        np.testing.assert_array_equal(out.boxes.view(np.uint32), want.boxes.view(np.uint32))


class TestHFlip:
    def test_forced_flip_mirrors_box(self):
        s = sample(50, 100, boxes=[[0, 0, 10, 10]])
        out = ag.hflip(s, np.random.default_rng(0), p=1.0)
        np.testing.assert_allclose(out.boxes[0], [90, 0, 100, 10])

    def test_involution(self):
        s = sample(30, 40, boxes=[[3, 5, 20, 25]])
        rng = np.random.default_rng(0)
        twice = ag.hflip(ag.hflip(s, rng, p=1.0), rng, p=1.0)
        np.testing.assert_array_equal(twice.image, s.image)
        np.testing.assert_allclose(twice.boxes, s.boxes)

    def test_centered_box_fixed_point(self):
        s = sample(40, 100, boxes=[[40, 5, 60, 25]])
        out = ag.hflip(s, np.random.default_rng(0), p=1.0)
        np.testing.assert_allclose(out.boxes[0], [40, 5, 60, 25])

    def test_pixels_match_box_bookkeeping(self):
        img = np.zeros((1, 3, 50, 100), np.float32)
        img[:, :, 10:30, 5:25] = 1.0
        s = ag.Sample(img, [[5.0, 10.0, 25.0, 30.0]])
        out = ag.hflip(s, np.random.default_rng(0), p=1.0)
        ys, xs = np.nonzero(out.image[0, 0] > 0.5)
        got = out.boxes[0]
        assert abs(xs.min() - got[0]) <= 1 and abs(xs.max() + 1 - got[2]) <= 1

    def test_no_flip_below_probability(self):
        s = sample(20, 20)
        out = ag.hflip(s, np.random.default_rng(0), p=0.0)
        np.testing.assert_array_equal(out.image, s.image)

    def test_flip_rate_near_half(self):
        flips = 0
        trials = 10_000
        s = sample(8, 8, boxes=[[0, 0, 3, 3]])
        for seed in range(trials):
            out = ag.hflip(s, np.random.default_rng(seed), p=0.5)
            flips += out.boxes[0, 0] != 0
        assert 0.47 <= flips / trials <= 0.53


class TestFilterBoxes:
    def test_narrow_box_removed(self):
        s = sample(60, 60, boxes=[[0, 0, 19, 30]])
        assert len(ag.filter_boxes(s).boxes) == 0

    def test_boundary_box_kept(self):
        s = sample(60, 60, boxes=[[0, 0, 20, 20]])
        assert len(ag.filter_boxes(s).boxes) == 1

    def test_empty_stays_empty(self):
        assert len(ag.filter_boxes(sample()).boxes) == 0


class TestStagesShareImage:
    # neither stage changes a pixel, so neither may copy the image
    def test_hflip_without_flip(self):
        s = sample(40, 60, boxes=[[0, 0, 30, 30]])
        out = ag.hflip(s, np.random.default_rng(0), p=0.0)
        assert np.shares_memory(out.image, s.image)
        np.testing.assert_array_equal(out.boxes, s.boxes)

    def test_filter_boxes(self):
        s = sample(60, 60, boxes=[[0, 0, 19, 30], [0, 0, 30, 30]])
        out = ag.filter_boxes(s)
        assert np.shares_memory(out.image, s.image)
        np.testing.assert_array_equal(out.boxes, [[0, 0, 30, 30]])


class TestAugmentConfig:
    def test_target_size_above_input_cap_rejected(self):
        # only checked, never allocated: 4097^2 is just over the cap
        cap = network.MAX_INPUT_PIXELS
        with pytest.raises(ValueError, match=f"cap of {cap} pixels"):
            ag.AugmentConfig(target_size=4097)

    def test_target_size_at_cap_accepted(self):
        assert ag.AugmentConfig(target_size=4096).target_size == 4096


class TestPipeline:
    def test_deterministic(self):
        s = sample(300, 400, boxes=[[50, 60, 200, 210], [10, 10, 80, 90]], seed=2)
        a = ag.augment_pipeline(s, np.random.default_rng(11))
        b = ag.augment_pipeline(s, np.random.default_rng(11))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_output_contract(self):
        cfg = ag.AugmentConfig(target_size=256)
        rng_master = np.random.default_rng(0)
        for seed in range(30):
            h = int(rng_master.integers(150, 500))
            w = int(rng_master.integers(150, 500))
            boxes = []
            for _ in range(int(rng_master.integers(0, 4))):
                x0 = rng_master.uniform(0, w - 30)
                y0 = rng_master.uniform(0, h - 30)
                boxes.append([x0, y0, x0 + rng_master.uniform(10, 30), y0 + rng_master.uniform(10, 30)])
            s = ag.Sample(checker_image(h, w, seed), np.array(boxes, np.float32).reshape(-1, 4))
            out = ag.augment_pipeline(s, np.random.default_rng(seed), cfg)
            assert out.image.shape == (1, 3, 256, 256)
            assert out.image.min() >= 0 and out.image.max() <= 1
            for box in out.boxes:
                assert box[2] - box[0] >= ag.MIN_BOX_PX
                assert box[3] - box[1] >= ag.MIN_BOX_PX
                assert 0 <= box[0] <= box[2] <= 256
                assert 0 <= box[1] <= box[3] <= 256

    def test_empty_box_list_is_legal(self):
        s = sample(200, 200, boxes=[[0, 0, 8, 8]])  # too small to survive the filter
        out = ag.augment_pipeline(s, np.random.default_rng(1))
        assert out.boxes.shape == (0, 4)
        assert out.image.shape == (1, 3, 1024, 1024)

    def test_no_stage_copies_for_layout(self, monkeypatch):
        # every stage hands on a C-contiguous float32 array, so no as_tensor
        # call along the pipeline (Sample, apply_color, resize) makes a copy
        as_tensor = ops.as_tensor
        copied = []

        def watched(data):
            out = as_tensor(data)
            if isinstance(data, np.ndarray) and not np.shares_memory(out, data):
                copied.append(data.strides)
            return out

        monkeypatch.setattr(ops, "as_tensor", watched)
        for seed in range(10):
            s = sample(300, 400, boxes=[[50, 60, 200, 210]], seed=seed)
            out = ag.augment_pipeline(s, np.random.default_rng(seed), ag.AugmentConfig(256))
            assert out.image.flags.c_contiguous
        assert copied == []

    def test_matches_staged_oracle_bit_for_bit(self, monkeypatch):
        # every draw first, color on the crop only and the flip inside the
        # resize give the stage-by-stage output bit for bit; the draws are
        # peeked from a twin rng to check that each case below came up
        seen = set()
        for seed in range(PIPELINE_SEEDS):
            if seed >= NO_CONTRAST_FROM:
                monkeypatch.setattr(ag, "CONTRAST_RANGE", (1.0, 1.0))
            if seed % 5 == 4:
                monkeypatch.setattr(ops, "BAND_BYTES", 1)
            s = pipeline_sample(seed)
            h, w = s.height, s.width
            cfg = ag.AugmentConfig(target_size=64)
            want = augment_pipeline_staged(s, np.random.default_rng(seed), cfg, np.float32)
            out = ag.augment_pipeline(s, np.random.default_rng(seed), cfg)
            np.testing.assert_array_equal(out.image.view(np.uint32), want.image.view(np.uint32))
            np.testing.assert_array_equal(out.boxes.view(np.uint32), want.boxes.view(np.uint32))
            assert out.image.flags.c_contiguous and out.source_id == "src"
            monkeypatch.undo()

            twin = np.random.default_rng(seed)
            color = ag.draw_color(twin)
            x0, y0, side = ag.draw_crop(h, w, twin)
            flip = twin.random() < ag.FLIP_PROB
            seen.add(f"contrast {color.order.index('contrast')}" if seed < NO_CONTRAST_FROM else "no contrast")
            seen.add("flip" if flip else "no flip")
            seen |= {"copy path, flipped"} if side == 64 and flip else set()
            seen |= {"right edge"} if x0 + side == w else set()
            seen |= {"bottom edge"} if y0 + side == h else set()
        assert seen == {"contrast 0", "contrast 1", "contrast 2", "no contrast", "flip", "no flip",
                        "copy path, flipped", "right edge", "bottom edge"}

    def test_full_size_source_matches_staged_oracle(self):
        s = full_size_sample()
        for seed in range(3):
            want = augment_pipeline_staged(s, np.random.default_rng(seed), ag.AugmentConfig(), np.float32)
            out = ag.augment_pipeline(s, np.random.default_rng(seed))
            np.testing.assert_array_equal(out.image.view(np.uint32), want.image.view(np.uint32))
            np.testing.assert_array_equal(out.boxes.view(np.uint32), want.boxes.view(np.uint32))

    def test_stages_called_through_module(self, monkeypatch):
        # tracers and tests that swap a stage on the module see every call
        calls = []

        def watch(name):
            fn = getattr(ag, name)

            def watched(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(ag, name, watched)

        for name in ("draw_color", "draw_crop", "color_distort", "resize_square", "filter_boxes"):
            watch(name)
        ag.augment_pipeline(sample(90, 120, boxes=[[10, 10, 60, 60]]), np.random.default_rng(0),
                            ag.AugmentConfig(64))
        assert calls == ["draw_color", "draw_crop", "color_distort", "resize_square", "filter_boxes"]

    def test_source_id_carried(self):
        s = ag.Sample(checker_image(150, 150), np.zeros((0, 4)), source_id="img7")
        out = ag.augment_pipeline(s, np.random.default_rng(0))
        assert out.source_id == "img7"


class TestFloat64Bound:
    """The stated bound of the float32 chains: `apply_color`,
    `resize_bilinear` and `augment_pipeline` stay within 1e-6 absolute of
    the float64 oracles, and within 1 uint8 level of them once `write_ppm`
    rounds both, over the shapes, parameters, orders, crops, flips and
    pipeline draws of the bit-for-bit tests above.  Boxes do not depend on
    the pixels, so they stay bit for bit."""

    ATOL = 1e-6

    def assert_near(self, tmp_path, out, want):
        np.testing.assert_allclose(out, want, rtol=0, atol=self.ATOL)
        ppm.write_ppm(tmp_path / "out.ppm", out)
        ppm.write_ppm(tmp_path / "want.ppm", want)
        got, ref = (np.frombuffer((tmp_path / f).read_bytes(), np.uint8).astype(np.int16)
                    for f in ("out.ppm", "want.ppm"))
        assert got.shape == ref.shape and np.abs(got - ref).max() <= 1

    @pytest.mark.parametrize("h,w", COLOR_SHAPES)
    def test_color(self, tmp_path, h, w):
        img = checker_image(h, w, seed=h)
        for params, order in itertools.product(COLOR_PARAMS, COLOR_ORDERS):
            want = apply_color_unbanded(img, *params, order=order)
            self.assert_near(tmp_path, ag.apply_color(img, *params, order=order), want)

    def test_color_crop(self, tmp_path):
        img = checker_image(75, 80, seed=3)
        for params, order in itertools.product(CROP_PARAMS, COLOR_ORDERS):
            whole = apply_color_unbanded(img, *params, order=order)
            for x0, y0, side in CROPS:
                out = ag.apply_color(img, *params, order=order, crop=(x0, y0, side))
                self.assert_near(tmp_path, out, whole[:, :, y0 : y0 + side, x0 : x0 + side])
        img = checker_image(30, 40, seed=4)
        order = ("contrast", "saturation", "contrast")
        want = apply_color_unbanded(img, 0.0, 1.4, 0.5, order=order)[:, :, 5:25, 10:30]
        self.assert_near(tmp_path, ag.apply_color(img, 0.0, 1.4, 0.5, order, crop=(10, 5, 20)), want)

    @pytest.mark.parametrize("size,out_size", RESIZE_CASES)
    def test_resize(self, tmp_path, size, out_size):
        img = checker_image(*size, seed=size[0])
        want = resize_bilinear_fancy(img, *out_size)
        self.assert_near(tmp_path, ag.resize_bilinear(img, *out_size), want)
        self.assert_near(tmp_path, ag.resize_bilinear(img, *out_size, flip=True), want[..., ::-1])

    def test_pipeline(self, tmp_path, monkeypatch):
        cases = [(pipeline_sample(seed), seed, ag.AugmentConfig(64)) for seed in range(PIPELINE_SEEDS)]
        cases += [(full_size_sample(), seed, ag.AugmentConfig()) for seed in range(3)]
        for s, seed, cfg in cases:
            if cfg.target_size == 64 and seed >= NO_CONTRAST_FROM:
                monkeypatch.setattr(ag, "CONTRAST_RANGE", (1.0, 1.0))
            want = augment_pipeline_staged(s, np.random.default_rng(seed), cfg)
            out = ag.augment_pipeline(s, np.random.default_rng(seed), cfg)
            monkeypatch.undo()
            self.assert_near(tmp_path, out.image, want.image)
            np.testing.assert_array_equal(out.boxes.view(np.uint32), want.boxes.view(np.uint32))
