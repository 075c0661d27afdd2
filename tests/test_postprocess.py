import warnings

import numpy as np
import pytest

from facedet import postprocess as pp
from facedet.anchors import generate_anchors
from facedet.network import ANCHOR_SOURCES, HeadOutputs, forward
from facedet.targets import center_size_to_corner, decode_boxes

from conftest import Det, forward_head_maps, grid_anchors
from naive_ops import flatten_head_maps, softmax_pairs


def brute_force_nms(dets, threshold):
    """O(n^2) suppression oracle: precomputed IoU table, plain list walk."""
    def iou(a, b):
        ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
        iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
        inter = ix * iy
        area_a = (a[2] - a[0]) * (a[3] - a[1])
        area_b = (b[2] - b[0]) * (b[3] - b[1])
        union = area_a + area_b - inter
        return inter / union if union > 0 else 0.0

    remaining = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            i for i in remaining if iou(dets[best].box, dets[i].box) <= threshold
        ]
    return [dets[i] for i in kept]


def random_detections(rng, n, field=200.0):
    x0 = rng.uniform(0, field, n)
    y0 = rng.uniform(0, field, n)
    w = rng.uniform(5, 80, n)
    h = rng.uniform(5, 80, n)
    scores = np.round(rng.uniform(0, 1, n), 3)  # rounding forces score ties
    return [
        Det((x0[i], y0[i], x0[i] + w[i], y0[i] + h[i]), float(scores[i]))
        for i in range(n)
    ]


def nms_dets(dets, threshold):
    """pp.nms on the arrays of a Det list, mapped back to the list."""
    boxes = np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return [dets[i] for i in pp.nms(boxes, scores, threshold)]


def single_layer_heads(loc, conf):
    """The anchor rows of one loc (n, 4A, h, w) and conf (n, 2A, h, w) map pair."""
    return HeadOutputs(*flatten_head_maps([loc], [conf]))


class TestNms:
    def test_pair_suppression(self):
        # B overlaps A at IoU 200/600 = 1/3 > 0.3, C is disjoint
        a = Det((0, 0, 20, 20), 0.9)
        b = Det((0, 10, 20, 30), 0.8)
        c = Det((100, 100, 120, 120), 0.7)
        out = nms_dets([a, b, c], 0.3)
        assert out == [a, c]

    def test_disjoint_preserved_sorted(self):
        dets = [
            Det((i * 50.0, 0.0, i * 50.0 + 10, 10.0), s)
            for i, s in enumerate([0.2, 0.9, 0.5])
        ]
        out = nms_dets(dets, 0.3)
        assert [d.score for d in out] == [0.9, 0.5, 0.2]

    def test_duplicates_collapse(self):
        d = Det((5, 5, 25, 25), 0.7)
        out = nms_dets([d, d, d], 0.99)
        assert out == [d]

    def test_tie_breaks_to_earlier_index(self):
        a = Det((0, 0, 10, 10), 0.5)
        b = Det((0, 0, 10, 10), 0.5)
        out = nms_dets([b, a], 0.3)
        assert out == [b]

    def test_empty(self):
        assert nms_dets([], 0.3) == []

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dets = random_detections(rng, int(rng.integers(1, 120)))
            got = nms_dets(dets, 0.3)
            want = brute_force_nms(dets, 0.3)
            assert got == want

    def test_kept_pairwise_below_threshold(self):
        rng = np.random.default_rng(1)
        dets = random_detections(rng, 200)
        kept = nms_dets(dets, 0.3)
        boxes = np.array([d.box for d in kept])
        from facedet.targets import pairwise_jaccard

        matrix = pairwise_jaccard(boxes, boxes)
        np.fill_diagonal(matrix, 0)
        assert matrix.max() <= 0.3


class TestDecodeAll:
    def test_zero_offsets_give_anchors_and_half_scores(self):
        aset = generate_anchors(640, 640)
        loc = [np.zeros((1, 84, 20, 20), np.float32),
               np.zeros((1, 4, 10, 10), np.float32),
               np.zeros((1, 4, 5, 5), np.float32)]
        conf = [np.zeros((1, 42, 20, 20), np.float32),
                np.zeros((1, 2, 10, 10), np.float32),
                np.zeros((1, 2, 5, 5), np.float32)]
        heads = HeadOutputs(*flatten_head_maps(loc, conf))
        boxes, scores = pp.decode_all(heads, aset)
        assert boxes.shape == (8525, 4)
        np.testing.assert_allclose(scores, 0.5, atol=1e-6)
        np.testing.assert_allclose(boxes, center_size_to_corner(aset.center_sizes()), atol=1e-3)

    def test_order_preserved_per_anchor(self):
        # stamp slot index into the offsets; decoded row i must use anchor i
        aset = grid_anchors(256, 128, 64, 64)
        n = len(aset)
        loc_rows = np.zeros((n, 4), np.float32)
        loc_rows[:, 0] = np.arange(n) * 0.01
        grid_h, grid_w = 2, 4
        loc = loc_rows.reshape(grid_h, grid_w, 1 * 4).transpose(2, 0, 1)[None]
        conf = np.zeros((1, 2, grid_h, grid_w), np.float32)
        boxes, _ = pp.decode_all(single_layer_heads(loc, conf), aset)
        want = decode_boxes(aset.center_sizes(), loc_rows)
        np.testing.assert_allclose(boxes, want, rtol=1e-5)

    def test_count_mismatch_rejected(self):
        aset = grid_anchors(256, 128, 64, 64)
        loc = np.zeros((1, 4, 2, 3), np.float32)  # 6 slots, 8 anchors
        conf = np.zeros((1, 2, 2, 3), np.float32)
        with pytest.raises(ValueError, match="anchors"):
            pp.decode_all(single_layer_heads(loc, conf), aset)
        # conf rows are checked too
        heads = HeadOutputs(np.zeros((1, 8, 4), np.float32), np.zeros((1, 7, 2), np.float32))
        with pytest.raises(ValueError, match="8 anchors"):
            pp.decode_all(heads, aset)

    def test_scores_agree_with_softmax_pairs(self):
        aset = grid_anchors(256, 256, 32, 32)
        rng = np.random.default_rng(8)
        conf = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        loc = np.zeros((1, 4, 8, 8), np.float32)
        _, scores = pp.decode_all(single_layer_heads(loc, conf), aset)
        want = softmax_pairs(conf)[0, 1].reshape(-1)
        np.testing.assert_allclose(scores, want, atol=1e-6)

    @pytest.mark.parametrize("cols,rows", [(55, 155), (176, 124), (500, 400)])
    def test_scores_match_softmax_pairs_bit_for_bit(self, cols, rows):
        # 8,525, 21,824 and 200,000 rows: the column softmax computes each
        # score as the paired-channel one does
        aset = grid_anchors(cols * 8, rows * 8, 8, 8)
        rng = np.random.default_rng(cols)
        conf = (rng.standard_normal((1, 2, rows, cols)) * rng.choice([0.1, 3, 40], (1, 2, rows, cols)))
        conf = conf.astype(np.float32)
        loc = np.zeros((1, 4, rows, cols), np.float32)
        _, scores = pp.decode_all(single_layer_heads(loc, conf), aset)
        want = softmax_pairs(conf)[0, 1].reshape(-1)
        np.testing.assert_array_equal(scores.view(np.uint32), want.view(np.uint32))

    def test_non_finite_head_named(self):
        # a bad value in the middle of one source's rows names that head map
        for w, h in ((640, 640), (999, 517)):
            aset = generate_anchors(w, h)
            for li, source in enumerate(ANCHOR_SOURCES):
                rows = np.flatnonzero(aset.layer_index == li)
                for kind in ("loc", "conf"):
                    for value in (np.nan, -np.inf):
                        heads = HeadOutputs(np.zeros((1, len(aset), 4), np.float32),
                                            np.zeros((1, len(aset), 2), np.float32))
                        getattr(heads, kind)[0, rows[len(rows) // 2], 1] = value
                        with pytest.raises(ValueError, match=rf"^head {source}\.{kind} holds NaN"):
                            pp.decode_all(heads, aset)

    def test_batch_rejected(self):
        # a two-image batch must not be cut to its first image
        heads = single_layer_heads(
            np.zeros((2, 4, 8, 8), np.float32), np.zeros((2, 2, 8, 8), np.float32)
        )
        with pytest.raises(ValueError, match="2 images"):
            pp.decode_all(heads, grid_anchors(256, 256, 32, 32))
        # the batch is named before a row count that is also off
        heads = HeadOutputs(np.zeros((3, 5, 4), np.float32), np.zeros((3, 5, 2), np.float32))
        with pytest.raises(ValueError, match="3 images"):
            pp.decode_all(heads, grid_anchors(256, 256, 32, 32))

    def test_forward_heads_flatten_consistently(self, descriptor, random_weights, monkeypatch):
        x = np.random.default_rng(0).random((1, 3, 640, 640), dtype=np.float32)
        heads, maps = forward_head_maps(random_weights, descriptor, x, monkeypatch)
        loc, conf = heads.loc[0], heads.conf[0]
        assert loc.shape == (8525, 4)
        assert conf.shape == (8525, 2)
        # spot-check one mid-grid slot of the 21-anchor layer
        row, col, a = 7, 11, 13
        slot = (row * 20 + col) * 21 + a
        np.testing.assert_array_equal(
            loc[slot], maps["Inception3.loc"][0, 4 * a : 4 * a + 4, row, col]
        )
        np.testing.assert_array_equal(
            conf[slot], maps["Inception3.conf"][0, 2 * a : 2 * a + 2, row, col]
        )


def grid_heads(face_logits, grid=(32, 32)):
    """Single-anchor-per-cell synthetic heads over a 1024x1024 image."""
    h, w = grid
    loc = np.zeros((1, 4, h, w), np.float32)
    conf = np.zeros((1, 2, h, w), np.float32)
    conf[0, 1] = face_logits
    return single_layer_heads(loc, conf)


class TestRunPostprocess:
    # disjoint 16 px anchors at stride 32: suppression-free cap checks
    def _anchors(self):
        return grid_anchors(1024, 1024, 32, 16)

    def test_all_below_threshold_empty(self):
        heads = grid_heads(np.full((32, 32), -10.0, np.float32))
        rows, _ = pp.run_postprocess(heads, self._anchors())
        assert rows.shape == (0, 5)

    def test_top_k_caps_500_disjoint(self):
        logits = np.full((32, 32), -10.0, np.float32)
        logits.ravel()[:500] = 5.0  # 500 confident, pairwise-disjoint boxes
        rows, _ = pp.run_postprocess(grid_heads(logits), self._anchors())
        assert len(rows) == 200

    def test_output_never_exceeds_post_top_k(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-3, 3, (32, 32)).astype(np.float32)
        for k in (1, 7, 50):
            cfg = pp.PostprocessConfig(post_nms_top_k=k)
            rows, _ = pp.run_postprocess(grid_heads(logits), self._anchors(), cfg)
            assert len(rows) <= k

    def test_raising_threshold_monotone(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-4, 1, (32, 32)).astype(np.float32)
        heads = grid_heads(logits)
        counts = []
        for thr in (0.05, 0.2, 0.5, 0.8):
            cfg = pp.PostprocessConfig(conf_threshold=thr)
            counts.append(len(pp.run_postprocess(heads, self._anchors(), cfg)[0]))
        assert counts == sorted(counts, reverse=True)

    def test_threshold_is_strict(self):
        # score exactly at the threshold must be dropped
        logit = float(np.log(0.5 / (1 - 0.5)))  # score 0.5
        logits = np.full((32, 32), -20.0, np.float32)
        logits[0, 0] = logit
        cfg = pp.PostprocessConfig(conf_threshold=0.5)
        rows, _ = pp.run_postprocess(grid_heads(logits), self._anchors(), cfg)
        assert len(rows) == 0

    def test_scores_sorted_and_clipped(self):
        rng = np.random.default_rng(4)
        logits = rng.uniform(-2, 4, (32, 32)).astype(np.float32)
        rows, _ = pp.run_postprocess(grid_heads(logits), self._anchors())
        scores = rows[:, 4].tolist()
        assert scores == sorted(scores, reverse=True)
        for x0, y0, x1, y1, score in rows:
            assert 0 <= x0 <= x1 <= 1024
            assert 0 <= y0 <= y1 <= 1024
            assert 0 <= score <= 1

    def test_boxes_clipped_only_after_nms(self):
        # a border anchor decodes outside the image; the output must be clipped
        aset = grid_anchors(1024, 1024, 32, 64)
        logits = np.full((32, 32), -20.0, np.float32)
        logits[0, 0] = 6.0
        rows, _ = pp.run_postprocess(grid_heads(logits), aset)
        assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0

    def test_degenerate_boxes_counted(self):
        loc = np.zeros((1, 4, 32, 32), np.float32)
        loc[0, 2] = -1e5  # width collapses to zero after decode
        conf = np.zeros((1, 2, 32, 32), np.float32)
        conf[0, 1] = 3.0
        heads = single_layer_heads(loc, conf)
        rows, stats = pp.run_postprocess(heads, self._anchors())
        assert len(rows) == 0
        assert stats["degenerate_dropped"] == 1024

    def test_huge_size_offsets_clamped(self):
        # two neighbouring anchors whose size offsets would overflow exp
        loc = np.zeros((1, 4, 32, 32), np.float32)
        loc[0, 2:, 0, :2] = 1e4
        conf = np.zeros((1, 2, 32, 32), np.float32)
        conf[0, 1] = -20.0
        conf[0, 1, 0, :2] = 5.0
        heads = single_layer_heads(loc, conf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            boxes, _ = pp.decode_all(heads, self._anchors())
            rows, _ = pp.run_postprocess(heads, self._anchors())
        assert np.isfinite(boxes).all()
        assert len(rows) == 1

    def test_heads_left_unchanged(self, descriptor, random_weights):
        # the size-offset clamp works on a copy: heads can be decoded again
        x = np.random.default_rng(9).random((1, 3, 640, 640), dtype=np.float32)
        heads = forward(random_weights, descriptor, x)
        heads.loc[0, ::7, 2:] = 1e4  # far beyond SIZE_OFFSET_CLIP / SIZE_VARIANCE
        loc, conf = heads.loc.copy(), heads.conf.copy()
        aset = generate_anchors(640, 640)
        boxes, _ = pp.decode_all(heads, aset)
        pp.run_postprocess(heads, aset)
        np.testing.assert_array_equal(heads.loc.view(np.uint32), loc.view(np.uint32))
        np.testing.assert_array_equal(heads.conf.view(np.uint32), conf.view(np.uint32))
        np.testing.assert_array_equal(pp.decode_all(heads, aset)[0], boxes)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-3, 3, (32, 32)).astype(np.float32)
        heads = grid_heads(logits)
        a, _ = pp.run_postprocess(heads, self._anchors())
        b, _ = pp.run_postprocess(heads, self._anchors())
        np.testing.assert_array_equal(a, b)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            pp.PostprocessConfig(conf_threshold=0.0)
        with pytest.raises(ValueError):
            pp.PostprocessConfig(pre_nms_top_k=0)


class TestFunnel:
    # the default 400 keeps 200 boxes before the cut matters; 100 makes the
    # pre-NMS cut decide what survives
    @pytest.mark.parametrize("pre_top_k", [400, 100])
    def test_matches_brute_force_funnel(self, descriptor, random_weights, pre_top_k):
        # threshold -> top k -> NMS -> top 200 -> clip on real head maps
        x = np.random.default_rng(11).random((1, 3, 640, 640), dtype=np.float32)
        heads = forward(random_weights, descriptor, x)
        aset = generate_anchors(640, 640)
        cfg = pp.PostprocessConfig(pre_nms_top_k=pre_top_k)
        rows, stats = pp.run_postprocess(heads, aset, cfg)

        boxes, scores = pp.decode_all(heads, aset)
        candidates = [
            Det(tuple(box), score)
            for box, score in zip(boxes.tolist(), scores.tolist())
            if box[2] > box[0] and box[3] > box[1] and score > cfg.conf_threshold
        ]
        assert len(candidates) == stats["above_threshold"] > cfg.pre_nms_top_k
        candidates.sort(key=lambda d: -d.score)  # stable: anchor order breaks ties
        kept = brute_force_nms(candidates[: cfg.pre_nms_top_k], cfg.nms_overlap)
        want = [
            [min(max(v, 0.0), 640.0) for v in d.box] + [d.score]
            for d in kept[: cfg.post_nms_top_k]
        ]
        assert len(rows) == len(want) == stats["kept"]
        np.testing.assert_allclose(rows, want, rtol=0, atol=1e-4)
