from fractions import Fraction

import numpy as np
import pytest

from facedet import anchors as anc
from facedet.targets import center_size_to_corner
from facedet.network import ANCHOR_SCALES, default_descriptor, forward

from conftest import densified_centers, tiling_density
from naive_ops import generate_anchors_stacked

_FIELDS = ("cx", "cy", "side", "layer_index", "row", "col", "sub_index")
_RANDOM_SIZES = [
    (int(w), int(h)) for w, h in np.random.default_rng(15).integers(128, 1501, (8, 2))
]


class TestTilingDensity:
    def test_default_anchor_densities(self):
        # scales on their raw tiling intervals
        pairs = [(32, 32), (64, 32), (128, 32), (256, 64), (512, 128)]
        assert [tiling_density(s, i) for s, i in pairs] == [1, 2, 4, 4, 4]

    def test_densified_interval_reaches_4(self):
        assert tiling_density(32, 32 / 4) == 4
        assert tiling_density(64, 32 / 2) == 4

    def test_identity_ratio(self):
        for s in (1, 17, 512):
            assert tiling_density(s, s) == Fraction(1)

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            tiling_density(32, 0)


class TestFeatureMapSize:
    """Anchor grids are the feature maps of the descriptor's spatial sizes, (h, w)."""

    def test_known_sizes(self):
        d = default_descriptor()
        assert d.spatial_sizes(1024, 1024)["Inception3"] == (32, 32)
        assert d.spatial_sizes(640, 640)["Conv4_2"] == (5, 5)
        sizes = d.spatial_sizes(480, 640)
        assert sizes["Inception3"] == (15, 20)
        assert sizes["Conv3_2"] == (8, 10)
        assert sizes["Conv4_2"] == (4, 5)

    def test_matches_ceil_division(self):
        # the same-padding chain collapses to ceil(size / stride)
        rng = np.random.default_rng(0)
        d = default_descriptor()
        for _ in range(20):
            w = int(rng.integers(128, 1500))
            h = int(rng.integers(128, 1500))
            sizes = d.spatial_sizes(h, w)
            for layer, stride in (("Inception3", 32), ("Conv3_2", 64), ("Conv4_2", 128)):
                assert sizes[layer] == (-(-h // stride), -(-w // stride))

    def test_undersized_image(self):
        with pytest.raises(ValueError, match="minimum"):
            anc.generate_anchors(64, 640)


class TestDensifiedCenters:
    def test_single_anchor_is_cell_center(self):
        np.testing.assert_allclose(densified_centers(0, 0, 64, 1), [[32.0, 32.0]])

    def test_two_by_two_grid(self):
        got = densified_centers(0, 0, 32, 2)
        np.testing.assert_allclose(got, [[8, 8], [24, 8], [8, 24], [24, 24]])

    def test_four_by_four_spacing(self):
        got = densified_centers(0, 0, 32, 4)
        assert got.shape == (16, 2)
        xs = np.unique(got[:, 0])
        np.testing.assert_allclose(np.diff(xs), 8.0)  # interval 32/4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_centroid_is_cell_center(self, n):
        got = densified_centers(3, 7, 32, n)
        np.testing.assert_allclose(got.mean(axis=0), [7.5 * 32, 3.5 * 32])

    def test_offset_cell(self):
        got = densified_centers(2, 1, 64, 1)
        np.testing.assert_allclose(got, [[96.0, 160.0]])

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            densified_centers(0, 0, 32, 0)


class TestGenerateAnchors:
    def test_counts(self):
        assert len(anc.generate_anchors(640, 640)) == 8525
        assert len(anc.generate_anchors(1024, 1024)) == 21824
        assert len(anc.generate_anchors(640, 480)) == 6400

    def test_count_matches_independent_formula(self):
        for w, h in ((640, 640), (1024, 1024), (640, 480)):
            total = 0
            sizes = default_descriptor().spatial_sizes(h, w)
            for layer, scales in ANCHOR_SCALES.items():
                rows, cols = sizes[layer]
                total += cols * rows * sum(n * n for _, n in scales)
            assert len(anc.generate_anchors(w, h)) == total

    def test_21_anchors_per_inception3_cell(self):
        a = anc.generate_anchors(640, 640)
        cell = (a.layer_index == 0) & (a.row == 7) & (a.col == 3)
        assert int(cell.sum()) == 21

    def test_ordering_within_cell(self):
        a = anc.generate_anchors(640, 640)
        # first cell of Inception3: 16 sub-anchors of 32, then 4 of 64, then 1 of 128
        assert a.side[:21].tolist() == [32] * 16 + [64] * 4 + [128]
        assert a.sub_index[:16].tolist() == list(range(16))
        np.testing.assert_allclose(a.cx[:4], [4, 12, 20, 28])
        np.testing.assert_allclose(a.cy[:4], [4, 4, 4, 4])

    def test_cells_row_major_and_layers_in_order(self):
        a = anc.generate_anchors(640, 640)
        i3 = a.layer_index == 0
        rows, cols = a.row[i3], a.col[i3]
        flat = rows.astype(np.int64) * 20 + cols
        assert (np.diff(flat) >= 0).all()
        assert a.layer_index.tolist() == sorted(a.layer_index.tolist())
        # layer blocks: 20*20*21, then 10*10, then 5*5
        assert int((a.layer_index == 0).sum()) == 8400
        assert int((a.layer_index == 1).sum()) == 100
        assert int((a.layer_index == 2).sum()) == 25

    def test_centers_match_densified_centers(self):
        a = anc.generate_anchors(640, 640)
        cell = (a.layer_index == 0) & (a.row == 3) & (a.col == 5) & (a.side == 32)
        got = np.stack([a.cx[cell], a.cy[cell]], axis=1)
        np.testing.assert_allclose(got, densified_centers(3, 5, 32, 4))

    def test_not_clipped_at_borders(self):
        a = anc.generate_anchors(640, 640)
        corners = center_size_to_corner(a.center_sizes())
        assert corners[:, 0].min() < 0
        assert corners[:, 2].max() > 640

    @pytest.mark.parametrize(
        "w,h", [(128, 128), (640, 480), (999, 517), (1024, 1024), (4096, 4096)] + _RANDOM_SIZES
    )
    def test_matches_stacked_oracle_bit_for_bit(self, w, h):
        got, want = anc.generate_anchors(w, h), generate_anchors_stacked(w, h)
        assert (got.image_w, got.image_h) == (want.image_w, want.image_h)
        for field in _FIELDS:
            g, e = getattr(got, field), getattr(want, field)
            assert g.dtype == e.dtype, field
            np.testing.assert_array_equal(g.view(np.uint32), e.view(np.uint32), err_msg=field)
            assert g.flags.c_contiguous, field

    def test_serialization_deterministic(self):
        a1 = "\n".join(anc.generate_anchors(640, 480).to_lines())
        a2 = "\n".join(anc.generate_anchors(640, 480).to_lines())
        assert a1 == a2
        assert a1.splitlines()[0] == "anchors w 640 h 480 count 6400"


class TestHeadConsistency:
    @pytest.mark.parametrize("w,h", [(640, 640), (1024, 1024), (640, 480)])
    def test_head_slots_equal_anchor_count(self, descriptor, random_weights, w, h):
        x = np.random.default_rng(0).random((1, 3, h, w), dtype=np.float32)
        heads = forward(random_weights, descriptor, x)
        assert heads.loc.shape[1] == len(anc.generate_anchors(w, h))

    def test_grid_matches_forward_shapes(self, descriptor, random_weights):
        x = np.random.default_rng(1).random((1, 3, 480, 640), dtype=np.float32)
        heads = forward(random_weights, descriptor, x)
        sizes = descriptor.spatial_sizes(480, 640)
        # each source's grid cells times its anchors per cell
        count = sum(
            sizes[src][0] * sizes[src][1] * sum(n * n for _, n in scales)
            for src, scales in ANCHOR_SCALES.items()
        )
        assert heads.loc.shape == (1, count, 4)
        assert heads.conf.shape == (1, count, 2)
