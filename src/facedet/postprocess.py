"""From head rows to detections: decode every anchor, filter by
confidence, keep the top 400, greedy-NMS at 0.3 overlap, keep the top 200,
then clip to the image.  Suppression runs on unclipped boxes so its geometry
matches training; clipping is the very last step."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet
from .network import ANCHOR_SOURCES, HeadOutputs
from .targets import SIZE_VARIANCE, decode_boxes, pairwise_jaccard

# largest log size ratio decode accepts (torchvision's bbox_xform_clip): a box
# grows at most 62.5x its anchor, so exp cannot overflow into inf boxes
SIZE_OFFSET_CLIP = math.log(1000 / 16)


@dataclass(frozen=True)
class PostprocessConfig:
    conf_threshold: float = 0.05
    pre_nms_top_k: int = 400
    nms_overlap: float = 0.3
    post_nms_top_k: int = 200

    def __post_init__(self):
        if not 0 < self.conf_threshold < 1:
            raise ValueError(f"conf_threshold must be in (0, 1), got {self.conf_threshold}")
        if not 0 < self.nms_overlap < 1:
            raise ValueError(f"nms_overlap must be in (0, 1), got {self.nms_overlap}")
        if self.pre_nms_top_k < 1 or self.post_nms_top_k < 1:
            raise ValueError("top-k limits must be positive")


def decode_all(heads: HeadOutputs, anchor_set: AnchorSet) -> tuple[np.ndarray, np.ndarray]:
    """One (corner box, face score) per anchor, unclipped, in anchor order, with
    size offsets clamped at SIZE_OFFSET_CLIP after variance scaling, on a copy.
    A batch, rows off the anchor count and NaN or infinite rows raise ValueError."""
    n, count = heads.loc.shape[0], len(anchor_set)
    if n != 1:
        raise ValueError(f"heads hold {n} images; postprocess takes one")
    if heads.loc.shape[1:] != (count, 4) or heads.conf.shape != (1, count, 2):
        raise ValueError(f"heads {heads.loc.shape}, {heads.conf.shape} do not fit {count} anchors")
    loc, conf = heads.loc[0].copy(), heads.conf[0]
    for kind, rows in (("loc", loc), ("conf", conf)):
        if not np.isfinite(rows).all():
            source = ANCHOR_SOURCES[anchor_set.layer_index[np.isfinite(rows).all(1).argmin()]]
            raise ValueError(f"head {source}.{kind} holds NaN or infinite values")
    loc[:, 2:] = np.minimum(loc[:, 2:], SIZE_OFFSET_CLIP / SIZE_VARIANCE)  # in float32
    boxes = decode_boxes(anchor_set.center_sizes(), loc).astype(np.float32)
    # the two-class softmax on columns: numpy reduces a length-2 axis slowly
    c0, c1 = conf[:, 0], conf[:, 1]
    m = np.maximum(c0, c1)
    e0, e1 = np.exp(c0 - m), np.exp(c1 - m)
    scores = (e1 / (e0 + e1)).astype(np.float32)
    return boxes, scores


def nms(boxes, scores, overlap_threshold: float) -> np.ndarray:
    """Greedy suppression: repeatedly keep the best remaining score (ties go
    to the earlier index) and drop every box overlapping it above the
    threshold.  Returns the kept indices in descending score order."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    ranked = np.asarray(boxes)[order]
    overlaps = pairwise_jaccard(ranked, ranked) > overlap_threshold
    suppressed = np.zeros(len(order), dtype=bool)
    keep = []
    for i in range(len(order)):
        if not suppressed[i]:
            keep.append(i)
            suppressed |= overlaps[i]
    return order[keep]


def run_postprocess(
    heads: HeadOutputs, anchor_set: AnchorSet, cfg: PostprocessConfig = PostprocessConfig()
) -> tuple[np.ndarray, dict[str, int]]:
    """decode -> drop degenerate boxes -> keep score > threshold -> top 400 ->
    NMS -> top 200 -> clip to the anchor set's image.  Returns (rows, stats):
    rows is a (k, 5) float64 array of `x_min y_min x_max y_max score` sorted by
    descending score, and stats counts the funnel."""
    boxes, scores = decode_all(heads, anchor_set)
    decoded = boxes.shape[0]

    valid = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    degenerate = decoded - int(valid.sum())
    boxes, scores = boxes[valid], scores[valid]

    confident = scores > cfg.conf_threshold
    boxes, scores = boxes[confident], scores[confident]

    order = np.argsort(-scores, kind="stable")[: cfg.pre_nms_top_k]
    boxes, scores = boxes[order], scores[order]
    kept = nms(boxes, scores, cfg.nms_overlap)[: cfg.post_nms_top_k]

    rows = np.empty((len(kept), 5))
    w, h = anchor_set.image_w, anchor_set.image_h
    rows[:, :4] = np.clip(boxes[kept], 0.0, [w, h, w, h])
    rows[:, 4] = scores[kept]
    stats = {
        "decoded": decoded,
        "degenerate_dropped": degenerate,
        "above_threshold": int(confident.sum()),
        "kept": len(rows),
    }
    return rows, stats
