import math

import numpy as np
import pytest

from facedet import ops
from facedet import targets as tg
from facedet.anchors import generate_anchors
from facedet.targets import TrainingTargets

from conftest import decode_box, encode_box, jaccard
from naive_ops import hard_negative_mine_sorted, softmax_cross_entropy_rows


def brute_force_match(anchor_corners, gt_boxes, threshold):
    """Documented matching policy, re-implemented with plain loops."""
    n, m = len(anchor_corners), len(gt_boxes)
    labels = [False] * n
    assign = [-1] * n
    claimed = [False] * n
    for f in range(m):
        best, best_iou = -1, 0.0
        for a in range(n):
            if claimed[a]:
                continue
            iou = jaccard(anchor_corners[a], gt_boxes[f])
            if iou > best_iou:
                best, best_iou = a, iou
        if best >= 0:
            claimed[best] = True
            labels[best] = True
            assign[best] = f
    for a in range(n):
        if claimed[a]:
            continue
        best, best_iou = 0, -1.0
        for f in range(m):
            iou = jaccard(anchor_corners[a], gt_boxes[f])
            if iou > best_iou:
                best, best_iou = f, iou
        if best_iou > threshold:
            labels[a] = True
            assign[a] = best
    return labels, assign


def dense_instance(rng, max_faces=5):
    """Realistic regime: anchors tile the field densely enough that every face
    overlaps more anchors (>= 9) than there are faces, so the exclusive
    stage-1 claims can never starve a face.  Sparse adversarial layouts (all
    of a face's overlapped anchors already claimed by earlier faces) can
    defeat the guarantee by construction and are covered by the oracle test.
    """
    centers = 12.5 + 25.0 * np.arange(4)
    cx, cy = np.meshgrid(centers, centers)
    anchors_cs = np.stack([cx.ravel(), cy.ravel(), np.full(16, 35.0)], axis=1)
    m = int(rng.integers(1, max_faces + 1))
    side = rng.uniform(45, 60, m)
    fx = rng.uniform(-5, 105 - side)
    fy = rng.uniform(-5, 105 - side)
    gt = np.stack([fx, fy, fx + side, fy + side], axis=1)
    return anchors_cs, gt


def random_instance(rng, max_anchors=20, max_faces=5, field=100.0):
    n = int(rng.integers(1, max_anchors + 1))
    m = int(rng.integers(0, max_faces + 1))
    side = rng.uniform(5, 40, n)
    cx = rng.uniform(0, field, n)
    cy = rng.uniform(0, field, n)
    anchors_cs = np.stack([cx, cy, side], axis=1)
    gx0 = rng.uniform(0, field - 5, m)
    gy0 = rng.uniform(0, field - 5, m)
    gw = rng.uniform(4, 40, m)
    gh = rng.uniform(4, 40, m)
    gt = np.stack([gx0, gy0, gx0 + gw, gy0 + gh], axis=1)
    return anchors_cs, gt


class TestJaccard:
    def test_identity(self):
        assert jaccard([1, 2, 5, 9], [1, 2, 5, 9]) == 1.0

    def test_disjoint(self):
        assert jaccard([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0

    def test_quarter_overlap(self):
        assert jaccard([0, 0, 2, 2], [1, 1, 3, 3]) == pytest.approx(1 / 7)

    def test_zero_union_is_zero(self):
        assert jaccard([0, 0, 0, 0], [0, 0, 0, 0]) == 0.0

    def test_against_rasterized_oracle(self):
        rng = np.random.default_rng(0)
        grid = 24
        for _ in range(50):
            a = np.sort(rng.integers(0, grid, 2))
            b = np.sort(rng.integers(0, grid, 2))
            box_a = [a[0], b[0], a[1] + 1, b[1] + 1]
            c = np.sort(rng.integers(0, grid, 2))
            d = np.sort(rng.integers(0, grid, 2))
            box_b = [c[0], d[0], c[1] + 1, d[1] + 1]
            mask_a = np.zeros((grid + 1, grid + 1), bool)
            mask_b = np.zeros((grid + 1, grid + 1), bool)
            mask_a[box_a[1] : box_a[3], box_a[0] : box_a[2]] = True
            mask_b[box_b[1] : box_b[3], box_b[0] : box_b[2]] = True
            want = (mask_a & mask_b).sum() / (mask_a | mask_b).sum()
            assert jaccard(box_a, box_b) == pytest.approx(want)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 50, (6, 2))
        boxes_a = np.hstack([a, a + rng.uniform(1, 20, (6, 2))])
        b = rng.uniform(0, 50, (4, 2))
        boxes_b = np.hstack([b, b + rng.uniform(1, 20, (4, 2))])
        matrix = tg.pairwise_jaccard(boxes_a, boxes_b)
        for i in range(6):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(jaccard(boxes_a[i], boxes_b[j]))


    @pytest.mark.parametrize("faces", [1, 5, 60])
    def test_bands_match_one_band_bit_for_bit(self, monkeypatch, faces):
        # one row per band, the default, and the whole matrix as one band;
        # faces repeat, cross the image edge and hold a zero-area box
        rng = np.random.default_rng(faces)
        corners = tg.center_size_to_corner(generate_anchors(320, 256).center_sizes())
        xy = rng.uniform(-40, 300, (faces, 2))
        gt = np.hstack([xy, xy + rng.uniform(8, 200, (faces, 2))])
        gt[faces // 2] = gt[0]
        gt[-1] = [50, 50, 50, 80]
        monkeypatch.setattr(ops, "BAND_BYTES", 1 << 40)
        expected = tg.pairwise_jaccard(corners, gt)
        for band_bytes in (1, 1 << 18):
            monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)
            out = tg.pairwise_jaccard(corners, gt)
            np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("a,b", [(0, 3), (5, 0), (0, 0)])
    def test_empty_side_gives_empty_matrix(self, a, b):
        out = tg.pairwise_jaccard(np.ones((a, 4)), np.ones((b, 4)))
        assert out.shape == (a, b) and out.dtype == np.float64


class TestMatchAnchors:
    def test_exact_match_zero_offsets(self):
        anchors = [[16, 16, 32]]
        gt = [[0, 0, 32, 32]]
        out = tg.match_anchors(anchors, gt)
        assert out.labels.tolist() == [True]
        assert out.gt_index.tolist() == [0]
        np.testing.assert_allclose(out.offsets[0], 0, atol=1e-6)

    def test_low_overlap_face_still_claims_best_anchor(self):
        # best overlap far below the 0.35 threshold: stage 1 must still claim
        anchors = [[16, 16, 32], [80, 16, 32]]
        gt = [[0, 0, 14, 14]]
        iou = jaccard([0, 0, 32, 32], gt[0])
        assert iou < 0.35
        out = tg.match_anchors(anchors, gt)
        assert out.labels.tolist() == [True, False]

    def test_multiple_anchors_above_threshold(self):
        anchors = [[16, 16, 32], [24, 16, 32], [200, 200, 32]]
        gt = [[4, 0, 36, 32]]
        ious = [jaccard(c, gt[0]) for c in tg.center_size_to_corner(anchors)]
        assert ious[0] > 0.35 and ious[1] > 0.35
        out = tg.match_anchors(anchors, gt)
        assert out.labels.tolist() == [True, True, False]
        assert out.gt_index.tolist() == [0, 0, -1]

    def test_empty_ground_truth_all_negative(self):
        out = tg.match_anchors([[16, 16, 32], [48, 16, 32]], np.zeros((0, 4)))
        assert not out.labels.any()
        assert (out.gt_index == -1).all()

    def test_earlier_face_wins_contested_anchor(self):
        anchors = [[16, 16, 32], [20, 16, 32]]
        gt = [[0, 0, 32, 32], [0, 0, 32, 32]]  # identical faces fight for anchor 0
        out = tg.match_anchors(anchors, gt)
        assert out.gt_index[0] == 0
        assert out.gt_index[1] == 1  # second face falls back to the next-best anchor

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            anchors_cs, gt = random_instance(rng)
            corners = tg.center_size_to_corner(anchors_cs)
            got = tg.match_anchors(anchors_cs, gt)
            labels, assign = brute_force_match(corners, gt, 0.35)
            assert got.labels.tolist() == labels
            assert got.gt_index.tolist() == assign

    def test_every_overlapped_face_gets_a_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            anchors_cs, gt = dense_instance(rng)
            corners = tg.center_size_to_corner(anchors_cs)
            got = tg.match_anchors(anchors_cs, gt)
            overlaps = tg.pairwise_jaccard(corners, gt)
            for f in range(len(gt)):
                if overlaps[:, f].max() > 0:
                    assert (got.gt_index[got.labels] == f).any()
        # low-overlap corollary: a lone face below threshold still gets its best
        anchors_cs = np.array([[16.0, 16.0, 32.0], [80.0, 16.0, 32.0]])
        got = tg.match_anchors(anchors_cs, [[0, 0, 12, 12]])
        assert got.labels.sum() == 1

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            tg.match_anchors([[16, 16, 32]], [[0, 0, 32, 32]], threshold=0.0)


class TestEncodeDecode:
    def test_fixed_point(self):
        t = encode_box([16, 16, 32], [0, 0, 32, 32])
        np.testing.assert_allclose(t, 0, atol=1e-12)

    def test_known_center_shift(self):
        t = encode_box([16, 16, 32], [8, 0, 40, 32])  # center (24, 16), same size
        np.testing.assert_allclose(t, [2.5, 0, 0, 0], atol=1e-9)

    def test_decode_identity(self):
        box = decode_box([16, 16, 32], [0, 0, 0, 0])
        np.testing.assert_allclose(box, [0, 0, 32, 32])

    def test_decode_doubles_width(self):
        tw = math.log(2) / 0.2
        box = decode_box([16, 16, 32], [0, 0, tw, 0])
        np.testing.assert_allclose(box[2] - box[0], 64, rtol=1e-9)

    def test_round_trip_property(self):
        rng = np.random.default_rng(3)
        side = rng.uniform(8, 512, 1000)
        anchors_cs = np.stack(
            [rng.uniform(0, 1024, 1000), rng.uniform(0, 1024, 1000), side], axis=1
        )
        gw = rng.uniform(8, 512, 1000)
        gh = rng.uniform(8, 512, 1000)
        gx = rng.uniform(0, 1024, 1000)
        gy = rng.uniform(0, 1024, 1000)
        gt = np.stack([gx - gw / 2, gy - gh / 2, gx + gw / 2, gy + gh / 2], axis=1)
        back = tg.decode_boxes(anchors_cs, tg.encode_boxes(anchors_cs, gt))
        assert np.abs(back - gt).max() < 1e-4

    def test_nonpositive_gt_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            encode_box([16, 16, 32], [10, 10, 10, 20])


def _targets(labels, losses=None):
    labels = np.asarray(labels, bool)
    return TrainingTargets(
        labels,
        np.where(labels, 0, -1).astype(np.int32),
        np.zeros((len(labels), 4), np.float32),
        np.zeros(len(labels), bool),
    )


class TestHardNegativeMining:
    def test_three_to_one_cap(self):
        rng = np.random.default_rng(0)
        labels = np.zeros(102, bool)
        labels[:2] = True
        loss = rng.uniform(0, 1, 102)
        mask = tg.hard_negative_mine(loss, _targets(labels))
        assert mask.sum() == 6
        neg_losses = loss[2:]
        picked = loss[mask]
        assert set(np.round(picked, 12)) == set(np.round(np.sort(neg_losses)[-6:], 12))

    def test_no_positive_selects_one(self):
        loss = np.array([0.1, 0.9, 0.4])
        mask = tg.hard_negative_mine(loss, _targets([False, False, False]))
        assert mask.tolist() == [False, True, False]

    def test_fewer_negatives_than_quota(self):
        labels = [True, True, True, False, False]
        mask = tg.hard_negative_mine(np.ones(5), _targets(labels))
        assert mask.tolist() == [False, False, False, True, True]

    def test_never_selects_positives(self):
        rng = np.random.default_rng(1)
        labels = rng.random(50) < 0.3
        mask = tg.hard_negative_mine(rng.random(50), _targets(labels))
        assert not (mask & labels).any()

    def test_ties_break_to_lower_index(self):
        labels = np.zeros(4, bool)
        labels[0] = True
        mask = tg.hard_negative_mine(np.array([9.0, 1.0, 1.0, 1.0]), _targets(labels))
        # quota 3, all ties: every negative picked; shrink quota via fewer positives
        assert mask.tolist() == [False, True, True, True]
        labels5 = np.zeros(5, bool)
        labels5[0] = True
        t5 = _targets(labels5)
        mask5 = tg.hard_negative_mine(np.array([9.0, 1.0, 1.0, 1.0, 1.0]), t5)
        assert mask5.tolist() == [False, True, True, True, False]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tg.hard_negative_mine(np.ones(3), _targets([False] * 4))

    def test_matches_full_sort_oracle(self):
        # partition, then a stable sort of the candidates only: the same mask
        # as one stable sort of every negative, through heavy ties, NaN, +-inf
        # and -0.0, and quotas of 0, 1, some and all negatives
        rng = np.random.default_rng(3)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0])
        quotas = set()
        for trial in range(1200):
            n = int(rng.integers(1, 200))
            labels = rng.random(n) < rng.choice([0.0, 0.05, 0.3, 1.0])
            loss = [
                rng.random(n),
                rng.integers(0, 3, n).astype(np.float64),
                rng.choice(specials, n),
                np.where(rng.random(n) < 0.3, rng.choice(specials, n), rng.random(n)),
            ][trial % 4]
            want = hard_negative_mine_sorted(loss, labels)
            got = tg.hard_negative_mine(loss, _targets(labels))
            np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
            negatives = int((~labels).sum())
            quotas.add("0" if not want.any() else "1" if want.sum() == 1 else
                       "all" if want.sum() == negatives else "some")
        assert quotas == {"0", "1", "some", "all"}


class TestDetectionLoss:
    def test_cross_entropy_matches_row_oracle_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for scale in (0.1, 2.0, 30.0, 800.0):
            z = rng.normal(0, scale, (21824, 2))
            y = rng.integers(0, 2, 21824)
            want = softmax_cross_entropy_rows(z, y)
            got = tg.softmax_cross_entropy(z, y)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        z = np.array([[np.nan, 0.0], [np.inf, 1.0], [-np.inf, 1.0], [-0.0, 0.0], [3.0, 3.0]])
        y = np.array([0, 1, 1, 0, 1])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(
                tg.softmax_cross_entropy(z, y), softmax_cross_entropy_rows(z, y)
            )

    def test_cross_entropy_rejects_label_two(self):
        with pytest.raises(IndexError):
            tg.softmax_cross_entropy(np.zeros((3, 2)), [0, 2, 1])

    def test_smooth_l1_closed_form(self):
        np.testing.assert_allclose(tg.smooth_l1([0.5, 2.0, -2.0]), [0.125, 1.5, 1.5])

    def test_uniform_logits_give_ln2(self):
        labels = np.array([True, False, False, False])
        t = _targets(labels)
        t.selected_negatives = tg.hard_negative_mine(np.zeros(4), t)
        out = tg.detection_loss(np.zeros((4, 2)), np.zeros((4, 4)), t)
        assert out.cls_loss == pytest.approx(math.log(2), abs=1e-9)

    def test_perfect_predictions_near_zero(self):
        anchors_cs = [[16, 16, 32], [64, 64, 32]]
        gt = [[0, 0, 32, 32]]
        t = tg.match_anchors(anchors_cs, gt)
        conf = np.where(t.labels[:, None], [0.0, 40.0], [40.0, 0.0])
        loc = t.offsets.copy()
        t.selected_negatives = tg.hard_negative_mine(
            tg.softmax_cross_entropy(conf, t.labels.astype(int)), t
        )
        out = tg.detection_loss(conf, loc, t)
        assert out.combined < 1e-3

    def test_no_positives_zero_regression(self):
        t = _targets([False, False])
        t.selected_negatives = tg.hard_negative_mine(np.array([1.0, 2.0]), t)
        out = tg.detection_loss(np.zeros((2, 2)), np.ones((2, 4)), t)
        assert out.reg_loss == 0.0
        assert out.combined == out.cls_loss

    def test_translation_consistency(self):
        rng = np.random.default_rng(5)
        anchors_cs, gt = random_instance(rng, max_anchors=12, max_faces=3)
        while len(gt) == 0:
            anchors_cs, gt = random_instance(rng, max_anchors=12, max_faces=3)
        shift = np.array([17.0, -9.0])
        moved_anchors = anchors_cs.copy()
        moved_anchors[:, :2] += shift
        moved_gt = gt + np.tile(shift, 2)
        base = tg.match_anchors(anchors_cs, gt)
        moved = tg.match_anchors(moved_anchors, moved_gt)
        assert base.labels.tolist() == moved.labels.tolist()
        np.testing.assert_allclose(base.offsets, moved.offsets, atol=1e-5)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            anchors_cs, gt = random_instance(rng, max_anchors=15, max_faces=4)
            t = tg.match_anchors(anchors_cs, gt)
            conf = rng.standard_normal((len(anchors_cs), 2))
            loc = rng.standard_normal((len(anchors_cs), 4))
            ce = tg.softmax_cross_entropy(conf, t.labels.astype(int))
            t.selected_negatives = tg.hard_negative_mine(ce, t)
            out = tg.detection_loss(conf, loc, t)
            assert out.cls_loss >= 0 and out.reg_loss >= 0
            assert out.combined == pytest.approx(out.cls_loss + out.reg_loss)

    def test_mining_required(self):
        t = _targets([False, False])
        with pytest.raises(ValueError, match="mining"):
            tg.detection_loss(np.zeros((2, 2)), np.zeros((2, 4)), t)
