"""Shared text formats.

Annotations: blank-line separated blocks of
    image <path> <w> <h>
    face <x_min> <y_min> <x_max> <y_max>
Detections: per image a header `image <path> w <w> h <h> count <n>` followed
by `x_min y_min x_max y_max score` lines with six decimals.
Paths are single whitespace-free tokens.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .postprocess import Detection


class AnnotatedImage(NamedTuple):
    path: str
    width: int
    height: int
    boxes: np.ndarray


class DetectionBlock(NamedTuple):
    path: str
    width: int
    height: int
    detections: list[Detection]


def _blocks(text: str) -> list[list[str]]:
    blocks, current = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)
    return blocks


def parse_annotations(text: str) -> list[AnnotatedImage]:
    items = []
    for block in _blocks(text):
        head = block[0].split()
        if len(head) != 4 or head[0] != "image":
            raise ValueError(f"bad annotation header: {block[0]!r}")
        boxes = []
        for line in block[1:]:
            parts = line.split()
            if len(parts) != 5 or parts[0] != "face":
                raise ValueError(f"bad face line: {line!r}")
            boxes.append([float(v) for v in parts[1:]])
        items.append(
            AnnotatedImage(
                head[1],
                int(head[2]),
                int(head[3]),
                np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
            )
        )
    return items


def format_annotations(items) -> str:
    chunks = []
    for item in items:
        lines = [f"image {item.path} {item.width} {item.height}"]
        for box in np.asarray(item.boxes).reshape(-1, 4):
            lines.append(f"face {box[0]:.2f} {box[1]:.2f} {box[2]:.2f} {box[3]:.2f}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def parse_detections(text: str) -> list[DetectionBlock]:
    out = []
    for block in _blocks(text):
        head = block[0].split()
        if len(head) != 8 or head[0] != "image" or head[2] != "w" or head[4] != "h" or head[6] != "count":
            raise ValueError(f"bad detection header: {block[0]!r}")
        count = int(head[7])
        if count != len(block) - 1:
            raise ValueError(
                f"detection block for {head[1]!r} declares {count} rows, has {len(block) - 1}"
            )
        dets = []
        for line in block[1:]:
            vals = [float(v) for v in line.split()]
            if len(vals) != 5:
                raise ValueError(f"bad detection line: {line!r}")
            dets.append(Detection((vals[0], vals[1], vals[2], vals[3]), vals[4]))
        out.append(DetectionBlock(head[1], int(head[3]), int(head[5]), dets))
    return out


def format_detections(path: str, width: int, height: int, rows) -> str:
    """One detection block from (k, 5) `x_min y_min x_max y_max score` rows."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    lines = [f"image {path} w {width} h {height} count {len(rows)}"]
    for x0, y0, x1, y1, score in rows.tolist():
        lines.append(f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f} {score:.6f}")
    return "\n".join(lines) + "\n"
