import numpy as np
import pytest

from facedet import evaluate as ev
from facedet import formats
from facedet.cli import main
from conftest import Det, jaccard


def det(x0, y0, x1, y1, score):
    return Det((x0, y0, x1, y1), score)


def rows(dets):
    """(k, 5) `x_min y_min x_max y_max score` rows of a Det list."""
    return np.array([[*d.box, d.score] for d in dets], dtype=np.float64).reshape(-1, 5)


def gt_map(**boxes_by_image):
    """Image id -> (m, 4) float64 corner boxes, the form `match_detections` reads."""
    return {k: np.array(v, dtype=np.float64).reshape(-1, 4) for k, v in boxes_by_image.items()}


def brute_force_labels(dets, gts, threshold):
    """Greedy matcher re-implemented with plain loops (one image)."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = [False] * len(gts)
    flags = [False] * len(dets)
    for i in order:
        best, best_iou = -1, -1.0
        for g in range(len(gts)):
            if taken[g]:
                continue
            iou = jaccard(dets[i].box, gts[g])
            if iou > best_iou:
                best, best_iou = g, iou
        if best >= 0 and best_iou >= threshold:
            taken[best] = True
            flags[i] = True
    return flags


class TestMatchDetections:
    def test_duplicate_detection_penalized(self):
        gt = gt_map(a=[[0, 0, 100, 100]])
        dets = {"a": rows([det(0, 0, 100, 100, 0.9), det(5, 5, 100, 100, 0.8)])}
        _, is_tp = ev.match_detections(dets, gt)
        assert is_tp.tolist() == [True, False]

    def test_threshold_inclusive_at_half(self):
        gt = gt_map(a=[[0, 0, 100, 100]])
        exactly_half = det(0, 0, 100, 50, 0.9)  # IoU 0.5
        just_below = det(0, 0, 100, 49, 0.9)  # IoU 0.49
        _, is_tp = ev.match_detections({"a": rows([exactly_half])}, gt)
        assert is_tp[0]
        _, is_tp = ev.match_detections({"a": rows([just_below])}, gt)
        assert not is_tp[0]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # at 0 a detection far from every face would still take one as a TP
        gt = gt_map(a=[[0, 0, 10, 10]])
        with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\]"):
            ev.match_detections({"a": rows([det(50, 50, 60, 60, 0.9)])}, gt, threshold)

    def test_threshold_one_needs_exact_box(self):
        gt = gt_map(a=[[0, 0, 10, 10]])
        dets = {"a": rows([det(0, 0, 10, 10, 0.9), det(0, 0, 10, 9, 0.8)])}
        _, is_tp = ev.match_detections(dets, gt, 1.0)
        assert is_tp.tolist() == [True, False]

    def test_zero_detections(self):
        gt = gt_map(a=[[0, 0, 10, 10]])
        scores, is_tp = ev.match_detections({"a": rows([])}, gt)
        assert scores.shape == is_tp.shape == (0,)

    def test_lower_scored_det_can_take_other_gt(self):
        gt = gt_map(a=[[0, 0, 10, 10], [20, 0, 30, 10]])
        dets = {"a": rows([det(0, 0, 10, 10, 0.9), det(20, 0, 30, 10, 0.5)])}
        _, is_tp = ev.match_detections(dets, gt)
        assert is_tp.all()

    def test_unknown_image_listed(self):
        gt = gt_map(a=[[0, 0, 10, 10]])
        with pytest.raises(ValueError, match=r"\['b', 'c'\]"):
            ev.match_detections({"b": rows([]), "c": rows([]), "a": rows([])}, gt)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_det = int(rng.integers(0, 7))
            n_gt = int(rng.integers(0, 5))
            gts = []
            for _ in range(n_gt):
                x0, y0 = rng.uniform(0, 60, 2)
                gts.append([x0, y0, x0 + rng.uniform(10, 40), y0 + rng.uniform(10, 40)])
            dets = []
            for _ in range(n_det):
                x0, y0 = rng.uniform(0, 60, 2)
                dets.append(
                    det(x0, y0, x0 + rng.uniform(10, 40), y0 + rng.uniform(10, 40),
                        round(float(rng.uniform(0, 1)), 2))
                )
            _, is_tp = ev.match_detections({"img": rows(dets)}, gt_map(img=gts))
            assert is_tp.tolist() == brute_force_labels(dets, gts, 0.5)


def cumulative_sweep(pairs):
    """Cumulative TP and FP counts over (score, is_tp) pairs in descending
    score order, ties in list order: plain lists, no numpy sort."""
    tp, fp = [], []
    for _, is_tp in sorted(pairs, key=lambda pair: -pair[0]):
        tp.append((tp[-1] if tp else 0) + is_tp)
        fp.append((fp[-1] if fp else 0) + (not is_tp))
    return tp, fp


def labeled(*pairs):
    """(tp, fp) count arrays for the scoring functions, from (score, is_tp) pairs."""
    tp, fp = cumulative_sweep(pairs)
    return np.array(tp, dtype=np.int64), np.array(fp, dtype=np.int64)


class TestPrecisionRecall:
    def test_perfect_detector(self):
        _, ap = ev.precision_recall(*labeled((0.9, True), (0.8, True)), total_faces=2)
        assert ap == pytest.approx(1.0)

    def test_all_false_positives(self):
        _, ap = ev.precision_recall(*labeled((0.9, False), (0.8, False)), total_faces=2)
        assert ap == pytest.approx(0.0)

    def test_tp_then_fp_half(self):
        points, ap = ev.precision_recall(*labeled((0.9, True), (0.8, False)), total_faces=2)
        assert points == [(0.5, 1.0), (0.5, 0.5)]
        assert ap == pytest.approx(0.5)

    def test_envelope_interpolation(self):
        # FP first, then TP: envelope lifts the precision at recall 0.5 to 0.5
        _, ap = ev.precision_recall(*labeled((0.9, False), (0.8, True)), total_faces=1)
        assert ap == pytest.approx(0.5)

    def test_recall_monotone(self):
        rng = np.random.default_rng(1)
        pairs = [(float(rng.uniform(0, 1)), bool(rng.random() < 0.5)) for _ in range(50)]
        points, _ = ev.precision_recall(*labeled(*pairs), total_faces=40)
        recalls = [r for r, _ in points]
        assert recalls == sorted(recalls)

    def test_score_transform_invariance(self):
        rng = np.random.default_rng(2)
        pairs = [(float(rng.uniform(0.01, 1)), bool(rng.random() < 0.4)) for _ in range(60)]
        _, ap = ev.precision_recall(*labeled(*pairs), total_faces=30)
        squashed = [(score**3, is_tp) for score, is_tp in pairs]
        _, ap2 = ev.precision_recall(*labeled(*squashed), total_faces=30)
        assert ap == pytest.approx(ap2)

    def test_total_faces_required(self):
        with pytest.raises(ValueError):
            ev.precision_recall(*labeled((0.5, True)), total_faces=0)


class TestTprAtFp:
    def test_budget_beyond_all_fps_saturates(self):
        out = ev.tpr_at_fp(*labeled((0.9, True), (0.8, False), (0.7, True)), 4, [1000])
        assert out[1000] == pytest.approx(2 / 4)

    def test_first_fp_at_rank_one(self):
        out = ev.tpr_at_fp(*labeled((0.9, False), (0.8, True)), 2, [0.5])
        assert out[0.5] == 0.0

    def test_hand_computed_sequence(self):
        # T F T T F F T F F F -> cum TP (1,1,2,3,3,3,4,...), cum FP (0,1,1,1,2,3,3,4,5,6)
        seq = [True, False, True, True, False, False, True, False, False, False]
        pairs = [(1.0 - 0.05 * i, tp) for i, tp in enumerate(seq)]
        out = ev.tpr_at_fp(*labeled(*pairs), 5, [1, 2, 3, 100])
        assert out[1] == pytest.approx(3 / 5)  # just before FP count hits 2
        assert out[2] == pytest.approx(3 / 5)
        assert out[3] == pytest.approx(4 / 5)
        assert out[100] == pytest.approx(4 / 5)

    def test_lower_scored_fp_cannot_change_saturated_budget(self):
        pairs = [(0.9, True), (0.8, False), (0.7, True)]
        a = ev.tpr_at_fp(*labeled(*pairs), 4, [1])
        b = ev.tpr_at_fp(*labeled(*pairs, (0.1, False)), 4, [1])
        assert a[1] == b[1]

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ev.tpr_at_fp(*labeled((0.5, True)), 1, [0])


class TestEvaluateDetections:
    def test_end_to_end(self):
        gt = {"a": [[0, 0, 10, 10], [50, 50, 80, 80]]}  # coerced to arrays by the callee
        dets = {"a": rows([det(0, 0, 10, 10, 0.9), det(200, 200, 210, 210, 0.8)])}
        result = ev.evaluate_detections(dets, gt, fp_budgets=(1, 1000))
        assert result.average_precision == pytest.approx(0.5)
        assert result.tpr_at_fp[1000] == pytest.approx(0.5)
        assert result.roc_points == [(0, 0.5), (1, 0.5)]

    def test_total_faces_counted(self, tmp_path):
        # every face of every image counts, also in an image with no detections
        (tmp_path / "gt.txt").write_text(
            "image a 10 10\nface 0 0 5 5\n\nimage b 10 10\nface 0 0 5 5\nface 5 5 9 9\n"
        )
        dets = tmp_path / "a.det.txt"
        dets.write_text(formats.format_detections("a", 10, 10, rows([det(0, 0, 5, 5, 0.9)])))
        out = tmp_path / "eval.txt"
        argv = ["eval", "--gt", str(tmp_path / "gt.txt"), "--dets", str(dets), "--out", str(out)]
        assert main(argv) == 0
        fields = out.read_text().splitlines()[-1].split("\t")
        assert fields[fields.index("faces") + 1] == "3"
        assert fields[fields.index("ap") + 1] == f"{1 / 3:.6f}"


class TestEvalCommandOracle:
    def test_multi_image_matches_plain_python(self, tmp_path, capsys):
        """`eval` over several images whose scores tie across images equals
        per-image brute-force labels plus a list-based cumulative sweep, so
        cross-image ties keep image order, then row order."""
        rng = np.random.default_rng(7)
        gt_blocks, det_paths, labels, total = [], [], [], 0
        for i in range(4):
            # integer corners and one-decimal scores survive the text round trip
            gts = []
            for _ in range(int(rng.integers(1, 5))):
                x, y = rng.integers(0, 150, 2).tolist()
                w, h = rng.integers(20, 50, 2).tolist()
                gts.append([x, y, x + w, y + h])
            # a shifted copy of every face but the last, then random boxes
            boxes = []
            for x0, y0, x1, y1 in gts[:-1]:
                dx, dy = rng.integers(-4, 5, 2).tolist()
                boxes.append([x0 + dx, y0 + dy, x1 + dx, y1 + dy])
            for x, y in rng.integers(0, 150, (int(rng.integers(2, 6)), 2)).tolist():
                boxes.append([x, y, x + 30, y + 30])
            dets = [det(*box, float(rng.choice([0.3, 0.5, 0.7, 0.9]))) for box in boxes]
            faces = [f"face {x0} {y0} {x1} {y1}" for x0, y0, x1, y1 in gts]
            gt_blocks.append("\n".join([f"image img{i} 200 200", *faces]))
            det_paths.append(tmp_path / f"img{i}.det.txt")
            det_paths[-1].write_text(formats.format_detections(f"img{i}", 200, 200, rows(dets)))
            flags = brute_force_labels(dets, gts, 0.5)
            labels += [(i, d.score, tp) for d, tp in zip(dets, flags)]
            total += len(gts)
        (tmp_path / "gt.txt").write_text("\n\n".join(gt_blocks) + "\n")
        assert any(
            a[1] == b[1] and a[0] != b[0] and a[2] != b[2] for a in labels for b in labels
        ), "no cross-image TP/FP tie to order"

        out = tmp_path / "eval.txt"
        argv = ["eval", "--gt", str(tmp_path / "gt.txt"), "--dets", *map(str, det_paths),
                "--fp-budgets", "1,2,1000", "--out", str(out)]
        assert main(argv) == 0

        tp, fp = cumulative_sweep([(score, tp) for _, score, tp in labels])
        recall = [t / total for t in tp]
        precision = [t / (t + f) for t, f in zip(tp, fp)]
        envelope = [max(precision[i:]) for i in range(len(precision))]
        ap = sum((r - prev) * e for r, prev, e in zip(recall, [0.0] + recall, envelope))
        want = [f"pr\t{r:.6f}\t{p:.6f}" for r, p in zip(recall, precision)]
        want += [f"roc\t{f}\t{t / total:.6f}" for t, f in zip(tp, fp)]
        summary = ["summary", f"ap\t{ap:.6f}", f"faces\t{total}", f"detections\t{len(labels)}"]
        for budget in (1, 2, 1000):
            # the TP count at the last rank before the FP count exceeds the budget
            cut = next((k for k, f in enumerate(fp) if f > budget), len(fp))
            summary.append(f"tpr@{budget}\t{tp[cut - 1] / total if cut else 0.0:.6f}")
        want.append("\t".join(summary))
        assert out.read_text() == "\n".join(want) + "\n"

        # a NaN budget is no budget: a data error naming it, not a tpr@nan line
        argv[argv.index("1,2,1000")] = "nan"
        capsys.readouterr()
        assert main(argv) == 2
        assert "fp budget must be positive, got nan" in capsys.readouterr().err
        assert out.read_text() == "\n".join(want) + "\n"

        # a list with no number in it is a usage error naming the flag, not a
        # float() message or a summary without any tpr@ field
        for budgets in ("abc", ","):
            argv[argv.index("--fp-budgets") + 1] = budgets
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"argument --fp-budgets: needs comma-separated numbers, got {budgets!r}" in err
            assert out.read_text() == "\n".join(want) + "\n"
