"""Shared text formats.

Annotations: blank-line separated blocks of
    image <path> <w> <h>
    face <x_min> <y_min> <x_max> <y_max>
Detections: per image a header `image <path> w <w> h <h> count <n>` followed
by `x_min y_min x_max y_max score` lines with six decimals.  On both sides a
block's detections are one (k, 5) float64 array of such rows.
Paths are single whitespace-free tokens; the formatters raise ValueError
naming any other path.  The parsers raise ValueError on
malformed text.  The error quotes the offending line for a non-finite value,
an annotation image size outside 1..MAX_INPUT_PIXELS, and a face that no
detection could ever match (empty, inverted or wholly outside its image); a
face partly outside its image is kept.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .network import MAX_INPUT_PIXELS


class AnnotatedImage(NamedTuple):
    path: str
    width: int
    height: int
    boxes: np.ndarray


class DetectionBlock(NamedTuple):
    path: str
    width: int
    height: int
    rows: np.ndarray


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


def _path_token(path: str) -> str:
    if path.split() != [path]:
        raise ValueError(f"path {path!r} is not a single whitespace-free token")
    return path


def _reject(bad: np.ndarray, lines: list[str], what: str) -> None:
    """Raise for the first line whose row is flagged in `bad`."""
    if bad.any():
        raise ValueError(f"{what}: {lines[int(np.argmax(bad))]!r}")


def parse_annotations(text: str) -> list[AnnotatedImage]:
    heads, faces, values, sizes = [], [], [], []
    for block in _blocks(text):
        head = block[0].split()
        if len(head) != 4 or head[0] != "image":
            raise ValueError(f"bad annotation header: {block[0]!r}")
        width, height = int(head[2]), int(head[3])
        if width < 1 or height < 1 or width * height > MAX_INPUT_PIXELS:
            raise ValueError(
                f"annotation image size outside 1..{MAX_INPUT_PIXELS} pixels: {block[0]!r}"
            )
        for line in block[1:]:
            parts = line.split()
            if len(parts) != 5 or parts[0] != "face":
                raise ValueError(f"bad face line: {line!r}")
            values.append([float(v) for v in parts[1:]])
        heads.append((head[1], width, height, len(faces), len(faces) + len(block) - 1))
        faces += block[1:]
        sizes += [(width, height)] * (len(block) - 1)
    # all faces of the file are checked at once, in one array
    boxes = np.asarray(values, dtype=np.float64).reshape(-1, 4)
    _reject(~np.isfinite(boxes).all(axis=1), faces, "non-finite face")
    x0, y0, x1, y1 = boxes.T
    _reject((x1 <= x0) | (y1 <= y0), faces, "empty or inverted face")
    width, height = np.asarray(sizes, dtype=np.float64).reshape(-1, 2).T
    outside = np.flatnonzero((x1 <= 0) | (y1 <= 0) | (x0 >= width) | (y0 >= height))
    if outside.size:
        w, h = sizes[outside[0]]
        raise ValueError(f"face outside its {w}x{h} image: {faces[outside[0]]!r}")
    return [AnnotatedImage(path, w, h, boxes[a:b]) for path, w, h, a, b in heads]


def format_annotations(items) -> str:
    chunks = []
    for item in items:
        lines = [f"image {_path_token(item.path)} {item.width} {item.height}"]
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
        rows = []
        for line in block[1:]:
            vals = [float(v) for v in line.split()]
            if len(vals) != 5:
                raise ValueError(f"bad detection line: {line!r}")
            rows.append(vals)
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
        _reject(~np.isfinite(rows).all(axis=1), block[1:], "non-finite detection line")
        out.append(DetectionBlock(head[1], int(head[3]), int(head[5]), rows))
    return out


def format_detections(path: str, width: int, height: int, rows) -> str:
    """One detection block from (k, 5) `x_min y_min x_max y_max score` rows."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    lines = [f"image {_path_token(path)} w {width} h {height} count {len(rows)}"]
    for x0, y0, x1, y1, score in rows.tolist():
        lines.append(f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f} {score:.6f}")
    return "\n".join(lines) + "\n"
