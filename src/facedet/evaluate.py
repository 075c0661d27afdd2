"""Detection scoring: greedy TP/FP labelling per image, precision/recall with
all-points-interpolated AP, and the discrete ROC metric (true positive rate at
a false-positive budget)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import pairwise_jaccard

EVAL_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class EvalResult:
    pr_points: list[tuple[float, float]]
    average_precision: float
    roc_points: list[tuple[int, float]]
    tpr_at_fp: dict[float, float]


def match_detections(
    rows_by_image, gt: dict[str, np.ndarray], iou_threshold: float = EVAL_IOU_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Label detections TP/FP, per image in descending score order.

    A detection is a TP when its best-IoU still-unmatched ground truth reaches
    the threshold (inclusive, in (0, 1]); that ground truth is then spent, so
    duplicates become FP.  `rows_by_image` maps image id -> (k, 5) `x_min
    y_min x_max y_max score` rows, `gt` image id -> (m, 4) corner boxes.
    Returns (scores, is_tp) over all rows, images in the given order and rows
    in their order within each.  Unknown image ids fail loudly.
    """
    if not 0 < iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    unknown = sorted(i for i in rows_by_image if i not in gt)
    if unknown:
        raise ValueError(f"detections reference unknown image ids: {unknown}")

    # seeded with empty arrays so that no images still concatenate
    scores, flags = [np.zeros(0)], [np.zeros(0, dtype=bool)]
    for image_id, rows in rows_by_image.items():
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
        ious = pairwise_jaccard(rows[:, :4], gt[image_id])
        spent = np.zeros(ious.shape[1], dtype=bool)
        is_tp = np.zeros(len(rows), dtype=bool)
        for i in np.argsort(-rows[:, 4], kind="stable"):
            if spent.all():
                break
            # spent ground truths drop below every IoU, so argmax picks the
            # lowest-index free one among ties
            free_ious = np.where(spent, -1.0, ious[i])
            best = int(np.argmax(free_ious))
            if free_ious[best] >= iou_threshold:
                spent[best] = True
                is_tp[i] = True
        scores.append(rows[:, 4])
        flags.append(is_tp)
    return np.concatenate(scores), np.concatenate(flags)


def precision_recall(tp, fp, total_faces: int) -> tuple[list[tuple[float, float]], float]:
    """PR points from cumulative TP and FP counts over descending score, and
    all-points-interpolated AP (area under the precision envelope)."""
    if total_faces <= 0:
        raise ValueError(f"total_faces must be positive, got {total_faces}")
    recall = tp / total_faces
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    delta = np.diff(np.concatenate([[0.0], recall]))
    ap = float((delta * envelope).sum())
    return list(zip(recall.tolist(), precision.tolist())), ap


def roc_curve(tp, fp, total_faces: int) -> list[tuple[int, float]]:
    """(cumulative false positives, true positive rate) per rank."""
    return list(zip(fp.tolist(), (tp / total_faces).tolist()))


def tpr_at_fp(tp, fp, total_faces: int, fp_budgets) -> dict[float, float]:
    """TPR just before cumulative false positives first exceed each budget;
    the final TPR when they never do."""
    if total_faces <= 0:
        raise ValueError(f"total_faces must be positive, got {total_faces}")
    result: dict[float, float] = {}
    for budget in fp_budgets:
        if not budget > 0:  # also NaN
            raise ValueError(f"fp budget must be positive, got {budget}")
        over = np.flatnonzero(fp > budget)
        cut = int(over[0]) if over.size else len(fp)
        result[budget] = float(tp[cut - 1] / total_faces) if cut > 0 else 0.0
    return result


def evaluate_detections(
    rows_by_image,
    gt,
    iou_threshold: float = EVAL_IOU_THRESHOLD,
    fp_budgets=(1000,),
) -> EvalResult:
    """Full scoring pass over `gt`, image id -> corner boxes: match, one
    descending-score sweep of cumulative TP and FP counts (ties keep their
    matching order), then PR/AP, ROC and TPR at the requested budgets."""
    gt = {key: np.asarray(val, dtype=np.float64).reshape(-1, 4) for key, val in gt.items()}
    scores, is_tp = match_detections(rows_by_image, gt, iou_threshold)
    is_tp = is_tp[np.argsort(-scores, kind="stable")]
    tp, fp = np.cumsum(is_tp), np.cumsum(~is_tp)
    total = sum(len(b) for b in gt.values())
    pr, ap = precision_recall(tp, fp, total) if total else ([], 0.0)
    return EvalResult(
        pr_points=pr,
        average_precision=ap,
        roc_points=roc_curve(tp, fp, total if total else 1),
        tpr_at_fp=tpr_at_fp(tp, fp, total if total else 1, fp_budgets),
    )
