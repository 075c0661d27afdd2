"""Independent reference implementations the benchmark checks outputs with.

Nothing here calls into facedet.  IoU follows the same arithmetic order as the
toolkit's definition (clipped overlap product over area sum minus overlap,
0 for an empty union), so float64 results agree bit for bit and greedy
decisions at a threshold cannot flip on rounding.
"""

from __future__ import annotations

import numpy as np


def iou(a, b) -> float:
    ix = max(min(a[2], b[2]) - max(a[0], b[0]), 0.0)
    iy = max(min(a[3], b[3]) - max(a[1], b[1]), 0.0)
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def iou_columns(boxes: np.ndarray, face) -> np.ndarray:
    """IoU of every row of `boxes` (n, 4) with one face, elementwise in the
    same operation order as `iou`."""
    ix = np.maximum(np.minimum(boxes[:, 2], face[2]) - np.maximum(boxes[:, 0], face[0]), 0.0)
    iy = np.maximum(np.minimum(boxes[:, 3], face[3]) - np.maximum(boxes[:, 1], face[1]), 0.0)
    inter = ix * iy
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area + (face[2] - face[0]) * (face[3] - face[1]) - inter
    safe = np.where(union > 0, union, 1.0)
    return np.where(union > 0, inter / safe, 0.0)


def parse_detection_file(text: str):
    """One-block detection file -> (path, w, h, [(x0, y0, x1, y1, score)]).
    Raises ValueError on any deviation from the documented format."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 8 or head[0] != "image" or head[2:7:2] != ["w", "h", "count"]:
        raise ValueError(f"bad detection header {lines[:1]!r}")
    rows = [tuple(float(v) for v in line.split()) for line in lines[1:] if line.strip()]
    if len(rows) != int(head[7]) or any(len(r) != 5 for r in rows):
        raise ValueError(f"detection block for {head[1]} does not hold {head[7]} rows of 5")
    return head[1], int(head[3]), int(head[5]), rows


def greedy_postprocess(boxes, scores, width, height, threshold, pre_top_k, overlap, post_top_k):
    """Brute-force detection funnel over decoded anchors: drop degenerate
    boxes, keep score > threshold, stable-sort by score, top-k, greedy NMS
    with strict `>` suppression, top-k, clip to the image."""
    candidates = [
        (tuple(float(v) for v in boxes[i]), float(scores[i]))
        for i in range(len(scores))
        if boxes[i][2] > boxes[i][0] and boxes[i][3] > boxes[i][1] and scores[i] > threshold
    ]
    candidates = sorted(candidates, key=lambda c: -c[1])[:pre_top_k]
    alive = [True] * len(candidates)
    kept = []
    for i, (box, score) in enumerate(candidates):
        if not alive[i]:
            continue
        kept.append((box, score))
        for j in range(i + 1, len(candidates)):
            if alive[j] and iou(box, candidates[j][0]) > overlap:
                alive[j] = False
    out = []
    for box, score in kept[:post_top_k]:
        x0, y0, x1, y1 = box
        out.append((min(max(x0, 0.0), width), min(max(y0, 0.0), height),
                    min(max(x1, 0.0), width), min(max(y1, 0.0), height), score))
    return out


def rows_match(expected, actual, tol=1e-4) -> bool:
    return len(expected) == len(actual) and all(
        abs(e - a) <= tol for er, ar in zip(expected, actual) for e, a in zip(er, ar)
    )


def two_stage_match(anchor_corners: np.ndarray, faces: np.ndarray, threshold: float):
    """Reference anchor matcher -> (labels, gt_index).

    Stage 1: faces in order each claim the unclaimed anchor of highest overlap
    (lowest index on ties), skipped when that overlap is 0.  Stage 2: every
    unclaimed anchor whose best overlap (first face on ties) exceeds the
    threshold goes positive for that face."""
    n = anchor_corners.shape[0]
    labels = np.zeros(n, dtype=bool)
    gt_index = np.full(n, -1, dtype=np.int64)
    if len(faces) == 0:
        return labels, gt_index
    overlaps = np.stack([iou_columns(anchor_corners, f) for f in faces], axis=1)
    claimed = np.zeros(n, dtype=bool)
    for k in range(len(faces)):
        best, best_iou = -1, 0.0
        for i in np.flatnonzero(~claimed & (overlaps[:, k] > 0)):
            if overlaps[i, k] > best_iou:
                best, best_iou = int(i), overlaps[i, k]
        if best >= 0:
            claimed[best] = labels[best] = True
            gt_index[best] = k
    for i in np.flatnonzero(~claimed & (overlaps.max(axis=1) > threshold)):
        row = overlaps[i]
        best = max(range(len(faces)), key=lambda k: (row[k], -k))
        labels[i] = True
        gt_index[i] = best
    return labels, gt_index
