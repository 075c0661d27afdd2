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

from .network import ANCHOR_SCALES, ANCHOR_SOURCES, check_input_pixels, default_descriptor


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
    """Tile every ANCHOR_SCALES (scale, densify) pair over its layer's grid at
    that layer's stride in the default descriptor; images over MAX_INPUT_PIXELS raise."""
    check_input_pixels(image_h, image_w)
    descriptor = default_descriptor()
    sizes = descriptor.spatial_sizes(image_h, image_w)
    strides = descriptor.cumulative_strides()
    parts = []  # per layer, a (7, count) table of the columns in AnchorSet field order
    for li, (layer, scales) in enumerate(ANCHOR_SCALES.items()):
        stride = strides[layer]
        # (off_x, off_y, side, sub) of each anchor of one cell, in cell order
        off_x, off_y, side, sub = np.array(
            [
                ((i + 0.5) * (stride / n), (j + 0.5) * (stride / n), scale, j * n + i)
                for scale, n in scales
                for j in range(n)
                for i in range(n)
            ]
        ).T
        r, c, _ = np.indices((*sizes[layer], 1), sparse=True)
        values = (c * stride + off_x, r * stride + off_y, side, li, r, c, sub)
        parts.append(np.stack(np.broadcast_arrays(*values)).reshape(7, -1))
    # one float64 table; layer, row, col and sub are whole numbers, exact in it
    table = np.concatenate(parts, axis=1)
    floats, ints = table[:3].astype(np.float32), table[3:].astype(np.int32)
    return AnchorSet(int(image_w), int(image_h), *floats, *ints)
