"""Detection scoring: greedy TP/FP labelling per image, precision/recall with
all-points-interpolated AP, and the discrete ROC metric (true positive rate at
a false-positive budget)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .targets import pairwise_jaccard

EVAL_IOU_THRESHOLD = 0.5


@dataclass
class GroundTruthSet:
    """Ground-truth corner boxes keyed by image id."""

    boxes_by_image: dict[str, np.ndarray]

    def __post_init__(self):
        self.boxes_by_image = {
            key: np.asarray(val, dtype=np.float64).reshape(-1, 4)
            for key, val in self.boxes_by_image.items()
        }

    @property
    def total_faces(self) -> int:
        return sum(len(b) for b in self.boxes_by_image.values())

    @classmethod
    def from_annotations(cls, annotated) -> "GroundTruthSet":
        """Build from objects carrying .path and .boxes (annotation blocks)."""
        return cls({item.path: item.boxes for item in annotated})


class LabeledDetection(NamedTuple):
    image_id: str
    score: float
    is_tp: bool


@dataclass(frozen=True)
class EvalResult:
    pr_points: list[tuple[float, float]]
    average_precision: float
    roc_points: list[tuple[int, float]]
    tpr_at_fp: dict[float, float]


def match_detections(
    detections, gt, iou_threshold: float = EVAL_IOU_THRESHOLD
) -> tuple[list[LabeledDetection], dict[str, set[int]]]:
    """Label detections TP/FP, per image in descending score order.

    A detection is a TP when its best-IoU still-unmatched ground truth reaches
    the threshold (inclusive); that ground truth is then spent, so duplicates
    become FP.  `detections` maps image id -> sequence of objects with .box
    and .score.  Unknown image ids fail loudly.
    """
    gt_map = gt.boxes_by_image if isinstance(gt, GroundTruthSet) else dict(gt)
    unknown = sorted(i for i in detections if i not in gt_map)
    if unknown:
        raise ValueError(f"detections reference unknown image ids: {unknown}")

    labeled: list[LabeledDetection] = []
    matched: dict[str, set[int]] = {}
    for image_id, dets in detections.items():
        scores = np.array([d.score for d in dets], dtype=np.float64)
        ious = pairwise_jaccard([d.box for d in dets], gt_map[image_id])
        spent = np.zeros(ious.shape[1], dtype=bool)
        flags = np.zeros(len(dets), dtype=bool)
        for i in np.argsort(-scores, kind="stable"):
            if spent.all():
                break
            # spent ground truths drop below every IoU, so argmax picks the
            # lowest-index free one among ties
            free_ious = np.where(spent, -1.0, ious[i])
            best = int(np.argmax(free_ious))
            if free_ious[best] >= iou_threshold:
                spent[best] = True
                flags[i] = True
        matched[image_id] = set(np.flatnonzero(spent).tolist())
        labeled.extend(
            LabeledDetection(image_id, score, tp)
            for score, tp in zip(scores.tolist(), flags.tolist())
        )
    return labeled, matched


def _cumulative(labeled) -> tuple[np.ndarray, np.ndarray]:
    scores = np.array([d.score for d in labeled], dtype=np.float64)
    tps = np.array([d.is_tp for d in labeled], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    tps = tps[order]
    return np.cumsum(tps), np.cumsum(~tps)


def precision_recall(labeled, total_faces: int) -> tuple[list[tuple[float, float]], float]:
    """PR points swept over descending score, and all-points-interpolated AP
    (area under the precision envelope)."""
    if total_faces <= 0:
        raise ValueError(f"total_faces must be positive, got {total_faces}")
    if not labeled:
        return [], 0.0
    tp, fp = _cumulative(labeled)
    recall = tp / total_faces
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    delta = np.diff(np.concatenate([[0.0], recall]))
    ap = float((delta * envelope).sum())
    return list(zip(recall.tolist(), precision.tolist())), ap


def roc_curve(labeled, total_faces: int) -> list[tuple[int, float]]:
    """(cumulative false positives, true positive rate) per rank."""
    if not labeled:
        return []
    tp, fp = _cumulative(labeled)
    return list(zip(fp.astype(int).tolist(), (tp / total_faces).tolist()))


def tpr_at_fp(labeled, total_faces: int, fp_budgets) -> dict[float, float]:
    """TPR just before cumulative false positives first exceed each budget;
    the final TPR when they never do."""
    if total_faces <= 0:
        raise ValueError(f"total_faces must be positive, got {total_faces}")
    result: dict[float, float] = {}
    tp, fp = _cumulative(labeled) if labeled else (np.zeros(0), np.zeros(0))
    for budget in fp_budgets:
        if budget <= 0:
            raise ValueError(f"fp budget must be positive, got {budget}")
        over = np.flatnonzero(fp > budget)
        cut = int(over[0]) if over.size else len(fp)
        result[budget] = float(tp[cut - 1] / total_faces) if cut > 0 else 0.0
    return result


def evaluate_detections(
    detections,
    gt,
    iou_threshold: float = EVAL_IOU_THRESHOLD,
    fp_budgets=(1000,),
) -> EvalResult:
    """Full scoring pass: match, PR/AP, ROC, TPR at the requested budgets."""
    total = gt.total_faces if isinstance(gt, GroundTruthSet) else sum(
        len(v) for v in gt.values()
    )
    labeled, _ = match_detections(detections, gt, iou_threshold)
    pr, ap = precision_recall(labeled, total) if total else ([], 0.0)
    return EvalResult(
        pr_points=pr,
        average_precision=ap,
        roc_points=roc_curve(labeled, total if total else 1),
        tpr_at_fp=tpr_at_fp(labeled, total if total else 1, fp_budgets),
    )
