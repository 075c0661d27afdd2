"""Square anchor tiling with densification.

Anchors are 1:1 squares tiled at the stride of their host layer.  The tiling
density of an anchor type is scale / interval; with scales (32, 64, 128, 256,
512) on strides (32, 32, 32, 64, 128) the raw densities are (1, 2, 4, 4, 4).
Replicating the 32 px anchor on a 4x4 sub-grid per cell and the 64 px anchor
on a 2x2 sub-grid divides their effective intervals by n, bringing every type
to density 4 so small faces see as many anchors as large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ANCHOR_SCALES, ANCHOR_SOURCES, default_descriptor


@dataclass(frozen=True)
class AnchorSet:
    """All anchors for one image size, in a fixed total order.

    Order: source layers as in ANCHOR_SCALES; cells row-major within a layer;
    scales in table order within a cell; the n^2 sub-anchors row-major within
    a scale.  Anchors are deliberately not clipped at image borders.
    """

    image_w: int
    image_h: int
    cx: np.ndarray
    cy: np.ndarray
    side: np.ndarray
    layer_index: np.ndarray
    row: np.ndarray
    col: np.ndarray
    sub_index: np.ndarray

    def __len__(self) -> int:
        return int(self.cx.shape[0])

    def center_sizes(self) -> np.ndarray:
        """(N, 3) array of (cx, cy, side)."""
        return np.stack([self.cx, self.cy, self.side], axis=1)

    def to_lines(self):
        """Text form: header then `layer row col scale sub_idx cx cy side`."""
        yield f"anchors w {self.image_w} h {self.image_h} count {len(self)}"
        for i in range(len(self)):
            yield (
                f"{ANCHOR_SOURCES[self.layer_index[i]]} {self.row[i]} {self.col[i]} "
                f"{int(self.side[i])} {self.sub_index[i]} "
                f"{self.cx[i]:.2f} {self.cy[i]:.2f} {self.side[i]:.2f}"
            )


def generate_anchors(image_w: int, image_h: int) -> AnchorSet:
    """Tile every ANCHOR_SCALES (scale, densify) pair over its layer's grid,
    at that layer's stride in the default descriptor."""
    descriptor = default_descriptor()
    sizes = descriptor.spatial_sizes(image_h, image_w)
    strides = descriptor.cumulative_strides()
    parts_f: list[np.ndarray] = []  # cx, cy, side columns
    parts_i: list[np.ndarray] = []  # layer, row, col, sub columns
    for li, (layer, scales) in enumerate(ANCHOR_SCALES.items()):
        rows, cols = sizes[layer]
        stride = strides[layer]
        template = []  # (off_x, off_y, side, sub) per anchor of one cell
        for scale, n in scales:
            step = stride / n
            for j in range(n):
                for i in range(n):
                    template.append(((i + 0.5) * step, (j + 0.5) * step, scale, j * n + i))
        tmpl = np.array(template, dtype=np.float64)
        a = len(template)

        col_idx = np.arange(cols, dtype=np.float64)
        row_idx = np.arange(rows, dtype=np.float64)
        cx = np.broadcast_to(
            col_idx[None, :, None] * stride + tmpl[None, None, :, 0], (rows, cols, a)
        )
        cy = np.broadcast_to(
            row_idx[:, None, None] * stride + tmpl[None, None, :, 1], (rows, cols, a)
        )
        side = np.broadcast_to(tmpl[None, None, :, 2], (rows, cols, a))
        sub = np.broadcast_to(tmpl[None, None, :, 3], (rows, cols, a))
        rr = np.broadcast_to(np.arange(rows)[:, None, None], (rows, cols, a))
        cc = np.broadcast_to(np.arange(cols)[None, :, None], (rows, cols, a))

        parts_f.append(
            np.stack([cx.ravel(), cy.ravel(), side.ravel()], axis=1).astype(np.float32)
        )
        parts_i.append(
            np.stack(
                [np.full(rows * cols * a, li), rr.ravel(), cc.ravel(), sub.ravel()],
                axis=1,
            ).astype(np.int32)
        )

    f = np.concatenate(parts_f)
    i = np.concatenate(parts_i)
    return AnchorSet(
        image_w=int(image_w),
        image_h=int(image_h),
        cx=f[:, 0],
        cy=f[:, 1],
        side=f[:, 2],
        layer_index=i[:, 0],
        row=i[:, 1],
        col=i[:, 2],
        sub_index=i[:, 3],
    )
