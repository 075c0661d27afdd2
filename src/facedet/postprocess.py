"""From raw head maps to detections: decode every anchor, filter by
confidence, keep the top 400, greedy-NMS at 0.3 overlap, keep the top 200,
then clip to the image.  Suppression runs on unclipped boxes so its geometry
matches training; clipping is the very last step."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet
from .network import HeadOutputs
from .targets import EncodeVariances, decode_boxes, pairwise_jaccard

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


def flatten_heads(heads: HeadOutputs) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor rows (loc (N, 4), conf (N, 2)) of a one-image batch, in
    anchor-set order: sources in order, cells row-major, per-cell anchors by
    channel group.  Raises ValueError for a batch of more than one image and
    for a head map holding NaN or infinite values, naming its layer."""
    locs, confs = [], []
    for src in heads.sources:
        loc, conf = heads.loc[src], heads.conf[src]
        if loc.shape[0] != 1 or conf.shape[0] != 1:
            raise ValueError(f"head {src!r} holds {loc.shape[0]} images; postprocess takes one")
        for kind, maps in (("loc", loc), ("conf", conf)):
            if not np.isfinite(maps).all():
                raise ValueError(f"head {src}.{kind} holds NaN or infinite values")
        loc, conf = loc[0], conf[0]
        c4, h, w = loc.shape
        a = c4 // 4
        if c4 != 4 * a or conf.shape != (2 * a, h, w):
            raise ValueError(f"head {src!r}: loc {loc.shape} and conf {conf.shape} disagree")
        locs.append(loc.transpose(1, 2, 0).reshape(h * w * a, 4))
        confs.append(conf.transpose(1, 2, 0).reshape(h * w * a, 2))
    return np.concatenate(locs), np.concatenate(confs)


def decode_all(heads: HeadOutputs, anchor_set: AnchorSet) -> tuple[np.ndarray, np.ndarray]:
    """One (corner box, face score) per anchor, unclipped, in anchor order.
    Size offsets are clamped at SIZE_OFFSET_CLIP after variance scaling."""
    loc, conf = flatten_heads(heads)
    if loc.shape[0] != len(anchor_set):
        raise ValueError(f"heads predict {loc.shape[0]} slots but {len(anchor_set)} anchors exist")
    loc[:, 2:] = np.minimum(loc[:, 2:], SIZE_OFFSET_CLIP / EncodeVariances().size)
    boxes = decode_boxes(anchor_set.center_sizes(), loc).astype(np.float32)
    shifted = conf - conf.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    scores = (e[:, 1] / e.sum(axis=1)).astype(np.float32)
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
