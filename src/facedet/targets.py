"""Training-target assignment for one sample.

Face boxes are matched to square anchors in two stages: first every face
claims its best-jaccard anchor (so no face is left without a positive even
when all overlaps are weak), then every remaining anchor with overlap above
the threshold goes positive for its best face.  Positives get center/size
offsets; negatives are thinned by hard mining to at most 3 per positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .anchors import AnchorSet

MATCH_THRESHOLD = 0.35
NEGATIVES_PER_POSITIVE = 3
# divisors of the encoded center and log-size offsets
CENTER_VARIANCE = 0.1
SIZE_VARIANCE = 0.2


@dataclass
class TrainingTargets:
    """Per-anchor assignment: labels (True = positive), matched ground-truth
    index (-1 for negatives), encoded offsets (zero for negatives), and the
    mined-negative mask (all False until hard_negative_mine runs)."""

    labels: np.ndarray
    gt_index: np.ndarray
    offsets: np.ndarray
    selected_negatives: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())


def center_size_to_corner(cs) -> np.ndarray:
    cs = np.asarray(cs, dtype=np.float64).reshape(-1, 3)
    half = cs[:, 2] / 2
    return np.stack(
        [cs[:, 0] - half, cs[:, 1] - half, cs[:, 0] + half, cs[:, 1] + half], axis=1
    )


def pairwise_jaccard(boxes_a, boxes_b) -> np.ndarray:
    """IoU matrix (len(a), len(b)) of corner boxes; 0 wherever the union is
    empty.  Filled one band of rows of `a` at a time (ops.bands), so the
    temporaries of a 21,824 x 60 matrix stay in cache; every element takes
    the same steps whatever the band."""
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    iou = np.empty((a.shape[0], b.shape[0]))
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    for s in ops.bands(a.shape[0], iou.itemsize * b.shape[0]):
        _jaccard_band(a[s], b, area_b, iou[s])
    return iou


def _jaccard_band(a, b, area_b, iou) -> None:
    """Write the IoUs of the boxes a against b into iou."""
    # two more (len(a), len(b)) float buffers; every step writes into one of the three
    inter = np.minimum(a[:, None, 2], b[None, :, 2], out=iou)
    low = np.maximum(a[:, None, 0], b[None, :, 0])
    np.clip(np.subtract(inter, low, out=inter), 0, None, out=inter)
    iy = np.minimum(a[:, None, 3], b[None, :, 3])
    np.maximum(a[:, None, 1], b[None, :, 1], out=low)
    np.clip(np.subtract(iy, low, out=iy), 0, None, out=iy)
    inter *= iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=iy)
    union -= inter
    empty = ~(union > 0)
    # a plain divide then a masked store: numpy's divide(where=) is ~5x slower
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(inter, union, out=inter)
    inter[empty] = 0.0


def encode_boxes(anchors_cs, gt_corner) -> np.ndarray:
    """Offsets (tx, ty, tw, th) of ground-truth corner boxes against (cx, cy,
    side) anchors: center deltas over the anchor side divided by
    CENTER_VARIANCE, log size ratios divided by SIZE_VARIANCE."""
    a = np.asarray(anchors_cs, dtype=np.float64).reshape(-1, 3)
    g = np.asarray(gt_corner, dtype=np.float64).reshape(-1, 4)
    if np.any(a[:, 2] <= 0):
        raise ValueError("anchor side must be positive")
    gw = g[:, 2] - g[:, 0]
    gh = g[:, 3] - g[:, 1]
    if np.any(gw <= 0) or np.any(gh <= 0):
        raise ValueError("ground-truth box must have positive width and height")
    gx = (g[:, 0] + g[:, 2]) / 2
    gy = (g[:, 1] + g[:, 3]) / 2
    side = a[:, 2]
    return np.stack(
        [
            (gx - a[:, 0]) / side / CENTER_VARIANCE,
            (gy - a[:, 1]) / side / CENTER_VARIANCE,
            np.log(gw / side) / SIZE_VARIANCE,
            np.log(gh / side) / SIZE_VARIANCE,
        ],
        axis=1,
    )


def decode_boxes(anchors_cs, offsets) -> np.ndarray:
    """Exact inverse of encode_boxes; returns corner boxes."""
    a = np.asarray(anchors_cs, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(offsets, dtype=np.float64).reshape(-1, 4)
    side = a[:, 2]
    gx = a[:, 0] + t[:, 0] * CENTER_VARIANCE * side
    gy = a[:, 1] + t[:, 1] * CENTER_VARIANCE * side
    gw = side * np.exp(t[:, 2] * SIZE_VARIANCE)
    gh = side * np.exp(t[:, 3] * SIZE_VARIANCE)
    return np.stack([gx - gw / 2, gy - gh / 2, gx + gw / 2, gy + gh / 2], axis=1)


def _anchor_center_sizes(anchors) -> np.ndarray:
    if isinstance(anchors, AnchorSet):
        return anchors.center_sizes().astype(np.float64)
    return np.asarray(anchors, dtype=np.float64).reshape(-1, 3)


def match_anchors(anchors, gt_boxes, threshold: float = MATCH_THRESHOLD) -> TrainingTargets:
    """Two-stage matching.

    Stage 1: faces in input order each claim their argmax-overlap anchor among
    those still unclaimed (ties break to the lowest anchor index; zero-overlap
    claims are skipped).  Stage 2: every unclaimed anchor whose best overlap
    exceeds `threshold` goes positive for its argmax face.  Everything else is
    negative.  `anchors` is an AnchorSet or an (N, 3) array of (cx, cy, side).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    cs = _anchor_center_sizes(anchors)
    corners = center_size_to_corner(cs)
    gt = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    n, m = corners.shape[0], gt.shape[0]

    labels = np.zeros(n, dtype=bool)
    gt_index = np.full(n, -1, dtype=np.int32)
    offsets = np.zeros((n, 4), dtype=np.float32)
    if m:
        overlaps = pairwise_jaccard(corners, gt)
        for face in range(m):
            best = int(np.argmax(overlaps[:, face]))
            if overlaps[best, face] > 0:
                # a claimed row drops to -1: later faces and stage 2 pass it by
                overlaps[best] = -1.0
                labels[best] = True
                gt_index[best] = face
        best_face = overlaps.argmax(axis=1)
        best_overlap = overlaps[np.arange(n), best_face]
        stage2 = best_overlap > threshold
        labels[stage2] = True
        gt_index[stage2] = best_face[stage2]

        pos = np.flatnonzero(labels)
        if pos.size:
            offsets[pos] = encode_boxes(cs[pos], gt[gt_index[pos]]).astype(np.float32)
    return TrainingTargets(labels, gt_index, offsets, np.zeros(n, dtype=bool))


def hard_negative_mine(per_anchor_cls_loss, targets: TrainingTargets) -> np.ndarray:
    """Mask of mined negatives: the highest-loss ones, capped at 3 per positive
    (exactly one when there are no positives so the loss stays defined).
    Ties break to the lower anchor index; positives are never selected."""
    loss = np.asarray(per_anchor_cls_loss, dtype=np.float64).reshape(-1)
    if loss.shape[0] != len(targets):
        raise ValueError(f"loss vector has {loss.shape[0]} entries for {len(targets)} anchors")
    negatives = np.flatnonzero(~targets.labels)
    p = targets.positive_count
    quota = min(NEGATIVES_PER_POSITIVE * p, negatives.size) if p else min(1, negatives.size)
    mask = np.zeros(len(targets), dtype=bool)
    if quota:
        # the quota-th smallest -loss bounds the candidates; ~(> kth) keeps
        # NaN too, so the stable sort over them orders the first `quota` as a
        # stable sort over every negative would
        key = -loss[negatives]
        kth = np.partition(key, quota - 1)[quota - 1]
        head = np.flatnonzero(~(key > kth))
        mask[negatives[head[np.argsort(key[head], kind="stable")[:quota]]]] = True
    return mask


def softmax_cross_entropy(logits, labels) -> np.ndarray:
    """Per-row 2-class cross entropy, max-subtracted for stability, computed
    on the two columns.  A label outside {0, 1} raises IndexError."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1, 2)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    z0, z1 = z[:, 0], z[:, 1]
    m = np.maximum(z0, z1)
    lse = m + np.log(np.exp(z0 - m) + np.exp(z1 - m))
    return lse - z[np.arange(z.shape[0]), y]


def smooth_l1(x) -> np.ndarray:
    """0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    return np.where(x < 1, 0.5 * x * x, x - 0.5)


@dataclass(frozen=True)
class LossBreakdown:
    cls_loss: float
    reg_loss: float
    combined: float


def detection_loss(conf_logits, loc_preds, targets: TrainingTargets) -> LossBreakdown:
    """Mean cross entropy over positives plus mined negatives, mean smooth-L1
    (summed over the four offsets) over positives, and their sum."""
    conf = np.asarray(conf_logits, dtype=np.float64).reshape(-1, 2)
    loc = np.asarray(loc_preds, dtype=np.float64).reshape(-1, 4)
    if conf.shape[0] != len(targets) or loc.shape[0] != len(targets):
        raise ValueError("prediction row count does not match anchor count")
    selected = targets.labels | targets.selected_negatives
    if not selected.any():
        raise ValueError("no anchors selected for the classification loss; run mining first")
    ce = softmax_cross_entropy(conf, targets.labels.astype(np.int64))
    cls_loss = float(ce[selected].mean())
    if targets.labels.any():
        diff = loc[targets.labels] - targets.offsets[targets.labels]
        reg_loss = float(smooth_l1(diff).sum(axis=1).mean())
    else:
        reg_loss = 0.0
    return LossBreakdown(cls_loss, reg_loss, cls_loss + reg_loss)
