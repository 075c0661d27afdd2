"""Seeded inputs for the benchmark workloads.

Every file the program under test reads is written here: binary PPM images,
annotation files in the toolkit's text format, and FBXW weights.  The same
seed gives byte-identical files.  Images and annotations are written by this
module's own code; only the weight container is written through
`facedet.save_weights`, because its layout is tied to the network descriptor.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

VGA = 640
HD = 1024
TRAIN_W, TRAIN_H = 1024, 768

# detect_hd_sparse: faces are tent blobs centred on Conv3_2 cells, matched by
# the 256 px anchor of that cell (stride 64 at 1024x1024 gives a 16x16 grid)
CONV3_2_STRIDE = 64
BLOB_RADIUS = 160
BLOB_BOX_HALF = 128
BLOB_CELLS = range(2, 14)  # keeps every blob inside the image
BLOB_MIN_CELL_GAP = 5  # 320 px between centres: tents never overlap


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as a binary P6 PPM."""
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def write_annotations(path, items) -> None:
    """items: (image path, width, height, (n, 4) corner boxes) per image."""
    blocks = []
    for image_path, w, h, boxes in items:
        lines = [f"image {image_path} {w} {h}"]
        lines += [f"face {x0:.2f} {y0:.2f} {x1:.2f} {y1:.2f}" for x0, y0, x1, y1 in boxes]
        blocks.append("\n".join(lines))
    Path(path).write_text("\n\n".join(blocks) + "\n")


def write_detections(path, image_path, width, height, rows) -> None:
    """One block in the detection text format; rows are (x0, y0, x1, y1, score)."""
    lines = [f"image {image_path} w {width} h {height} count {len(rows)}"]
    lines += [f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f} {s:.6f}" for x0, y0, x1, y1, s in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def scored_guesses(rng, faces: np.ndarray, width, height, count):
    """`count` scored boxes for one image: a copy of every face but the last,
    shifted by up to a tenth of its size, then random boxes of 16-300 px.
    One face always stays unmatched, so `eval` scores every box of every
    image and its work does not depend on where the faces fell."""
    rows = []
    for x0, y0, x1, y1 in faces[: min(len(faces) - 1, count)]:
        dx, dy = rng.uniform(-0.1, 0.1, 2) * (x1 - x0, y1 - y0)
        rows.append((x0 + dx, y0 + dy, x1 + dx, y1 + dy, rng.uniform(0.5, 1.0)))
    while len(rows) < count:
        w, h = rng.integers(16, 301, 2)
        x0, y0 = rng.uniform(0, width - w), rng.uniform(0, height - h)
        rows.append((x0, y0, x0 + w, y0 + h, rng.uniform(0.0, 0.9)))
    return rows


def flat_rect_scene(rng, width, height, faces, side_range, background_max):
    """Dim uniform-noise background with `faces` flat-colour rectangles; the
    rectangles are the ground truth, in image coordinates."""
    rgb = rng.integers(0, background_max, (height, width, 3), dtype=np.uint8)
    boxes = np.zeros((faces, 4))
    lo, hi = side_range
    for k in range(faces):
        fw = int(rng.integers(lo, hi + 1))
        fh = int(rng.integers(lo, hi + 1))
        x0 = int(rng.integers(0, width - fw + 1))
        y0 = int(rng.integers(0, height - fh + 1))
        rgb[y0 : y0 + fh, x0 : x0 + fw] = rng.integers(0, 256, 3, dtype=np.uint8)
        boxes[k] = (x0, y0, x0 + fw, y0 + fh)
    return rgb, boxes


def tent_blob_scene(rng, faces):
    """Black HD image with 1-3 pyramid-shaped grey blobs, each centred on a
    Conv3_2 cell; the ground truth is that cell's 256 px anchor box."""
    centres: list[tuple[int, int]] = []
    while len(centres) < faces:
        col, row = (int(v) for v in rng.choice(BLOB_CELLS, 2))
        if all(max(abs(col - c), abs(row - r)) >= BLOB_MIN_CELL_GAP for c, r in centres):
            centres.append((col, row))
    yy, xx = np.mgrid[0:HD, 0:HD].astype(np.float32)
    tent = np.zeros((HD, HD), np.float32)
    boxes = np.zeros((faces, 4))
    for k, (col, row) in enumerate(centres):
        cx = col * CONV3_2_STRIDE + CONV3_2_STRIDE // 2
        cy = row * CONV3_2_STRIDE + CONV3_2_STRIDE // 2
        dist = np.maximum(np.abs(xx - cx), np.abs(yy - cy))
        np.maximum(tent, np.clip(1 - dist / BLOB_RADIUS, 0, 1), out=tent)
        boxes[k] = (cx - BLOB_BOX_HALF, cy - BLOB_BOX_HALF, cx + BLOB_BOX_HALF, cy + BLOB_BOX_HALF)
    grey = np.rint(tent * 255.0).astype(np.uint8)
    return np.repeat(grey[:, :, None], 3, axis=2), boxes


def blob_weights(facedet):
    """Hand-built weights that find bright blobs with the 256 px anchors:
    channel 0 carries the image brightness through the trunk, the Conv3_2 face
    head sums it over a 3x3 window, and every other head is biased far below
    the confidence threshold."""
    descriptor = facedet.default_descriptor()
    entries = {
        name: (np.zeros(shape, np.float32), np.zeros(shape[0], np.float32))
        for name, shape in descriptor.conv_entries()
    }
    w, b = entries["Conv1"]
    w[0, :, :, :] = 1.0 / (3 * 49)
    b[0] = 1.0
    entries["Conv2"][0][0, 0, 2, 2] = 1.0
    for block in ("Inception1", "Inception2", "Inception3"):
        entries[f"{block}.b1x1"][0][0, 0, 0, 0] = 1.0
    entries["Conv3_1"][0][0, 0, 0, 0] = 1.0
    entries["Conv3_2"][0][0, 0, 1, 1] = 1.0
    entries["Conv3_2.conf"][0][1, 0, :, :] = 1.0
    entries["Conv3_2.conf"][1][1] = -9.0
    entries["Inception3.conf"][1][1::2] = -20.0
    entries["Conv4_2.conf"][1][1] = -20.0
    return facedet.ModelWeights(entries, descriptor.fingerprint())


def write_scene_set(directory: Path, stem: str, scenes) -> tuple[list[str], list]:
    """Write each (rgb, boxes) scene as `<stem>NNN.ppm`; returns the paths and
    the annotation items."""
    paths, items = [], []
    for i, (rgb, boxes) in enumerate(scenes):
        path = directory / f"{stem}{i:03d}.ppm"
        write_ppm(path, rgb)
        paths.append(str(path))
        items.append((str(path), rgb.shape[1], rgb.shape[0], boxes))
    return paths, items
