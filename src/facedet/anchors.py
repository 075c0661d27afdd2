"""Square anchor tiling with densification.

Anchors are 1:1 squares tiled at the stride of their host layer.  The tiling
density of an anchor type is scale / interval; with scales (32, 64, 128, 256,
512) on strides (32, 32, 32, 64, 128) the raw densities are (1, 2, 4, 4, 4).
Replicating the 32 px anchor on a 4x4 sub-grid per cell and the 64 px anchor
on a 2x2 sub-grid divides their effective intervals by n, bringing every type
to density 4 so small faces see as many anchors as large ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import NetworkDescriptor, default_descriptor


@dataclass(frozen=True)
class AnchorLayerConfig:
    """Anchors hosted by one layer: tiling stride plus (scale px, densify n)."""

    layer: str
    stride: int
    scales: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        for scale, n in self.scales:
            if scale < 1 or n < 1:
                raise ValueError(f"bad (scale, densify) pair ({scale}, {n})")

    @property
    def anchors_per_cell(self) -> int:
        return sum(n * n for _, n in self.scales)


def default_anchor_configs() -> tuple[AnchorLayerConfig, ...]:
    return (
        AnchorLayerConfig("Inception3", 32, ((32, 4), (64, 2), (128, 1))),
        AnchorLayerConfig("Conv3_2", 64, ((256, 1),)),
        AnchorLayerConfig("Conv4_2", 128, ((512, 1),)),
    )


def tiling_density(scale, interval) -> Fraction:
    """scale / interval, kept exact."""
    if interval <= 0:
        raise ValueError(f"tiling interval must be positive, got {interval}")
    return Fraction(scale) / Fraction(interval)


def feature_map_size(
    image_w: int, image_h: int, layer: str, descriptor: NetworkDescriptor | None = None
) -> tuple[int, int]:
    """(cols, rows) of the grid `layer` produces, via the conv/pool size chain."""
    d = descriptor or default_descriptor()
    sizes = d.spatial_sizes(image_h, image_w)
    if layer not in sizes:
        raise ValueError(f"unknown layer {layer!r}")
    h, w = sizes[layer]
    return w, h


def densified_centers(cell_row: int, cell_col: int, stride: int, n: int) -> np.ndarray:
    """The n^2 (cx, cy) anchor centers for one cell, row-major.

    Offsets are (i + 0.5) * stride / n, so the sub-grid is symmetric about the
    cell center with spacing stride / n; n = 1 degenerates to the cell center.
    """
    if n < 1:
        raise ValueError(f"densification factor must be >= 1, got {n}")
    offsets = (np.arange(n, dtype=np.float64) + 0.5) * (stride / n)
    grid = np.empty((n, n, 2), dtype=np.float64)
    grid[..., 0] = cell_col * stride + offsets[None, :]
    grid[..., 1] = cell_row * stride + offsets[:, None]
    return grid.reshape(n * n, 2)


@dataclass(frozen=True)
class AnchorSet:
    """All anchors for one image size, in a fixed total order.

    Order: configs as given; cells row-major within a layer; scales in config
    order within a cell; the n^2 sub-anchors row-major within a scale.
    Anchors are deliberately not clipped at image borders.
    """

    image_w: int
    image_h: int
    configs: tuple[AnchorLayerConfig, ...]
    cx: np.ndarray
    cy: np.ndarray
    side: np.ndarray
    layer_index: np.ndarray
    row: np.ndarray
    col: np.ndarray
    scale: np.ndarray
    sub_index: np.ndarray

    def __len__(self) -> int:
        return int(self.cx.shape[0])

    def center_sizes(self) -> np.ndarray:
        """(N, 3) array of (cx, cy, side)."""
        return np.stack([self.cx, self.cy, self.side], axis=1)

    def corner_boxes(self) -> np.ndarray:
        """(N, 4) array of (x_min, y_min, x_max, y_max)."""
        half = self.side / 2
        return np.stack(
            [self.cx - half, self.cy - half, self.cx + half, self.cy + half], axis=1
        )

    def to_lines(self):
        """Text form: header then `layer row col scale sub_idx cx cy side`."""
        yield f"anchors w {self.image_w} h {self.image_h} count {len(self)}"
        names = [cfg.layer for cfg in self.configs]
        for i in range(len(self)):
            yield (
                f"{names[self.layer_index[i]]} {self.row[i]} {self.col[i]} "
                f"{self.scale[i]} {self.sub_index[i]} "
                f"{self.cx[i]:.2f} {self.cy[i]:.2f} {self.side[i]:.2f}"
            )


def generate_anchors(
    image_w: int,
    image_h: int,
    configs=None,
    descriptor: NetworkDescriptor | None = None,
) -> AnchorSet:
    """Tile every configured (scale, densify) over its layer grid."""
    sizes = (descriptor or default_descriptor()).spatial_sizes(image_h, image_w)
    configs = tuple(configs) if configs is not None else default_anchor_configs()
    parts_f: list[np.ndarray] = []  # cx, cy, side columns
    parts_i: list[np.ndarray] = []  # layer, row, col, scale, sub columns
    for li, cfg in enumerate(configs):
        if cfg.layer in sizes:
            rows, cols = sizes[cfg.layer]
        else:  # synthetic configs that name no descriptor layer tile by plain stride
            cols, rows = math.ceil(image_w / cfg.stride), math.ceil(image_h / cfg.stride)
        template = []  # (off_x, off_y, side, sub) per anchor of one cell
        for scale, n in cfg.scales:
            step = cfg.stride / n
            for j in range(n):
                for i in range(n):
                    template.append(((i + 0.5) * step, (j + 0.5) * step, scale, j * n + i))
        tmpl = np.array(template, dtype=np.float64)
        a = len(template)

        col_idx = np.arange(cols, dtype=np.float64)
        row_idx = np.arange(rows, dtype=np.float64)
        cx = np.broadcast_to(
            col_idx[None, :, None] * cfg.stride + tmpl[None, None, :, 0], (rows, cols, a)
        )
        cy = np.broadcast_to(
            row_idx[:, None, None] * cfg.stride + tmpl[None, None, :, 1], (rows, cols, a)
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
                [
                    np.full(rows * cols * a, li),
                    rr.ravel(),
                    cc.ravel(),
                    side.ravel().astype(np.int64),
                    sub.ravel().astype(np.int64),
                ],
                axis=1,
            ).astype(np.int32)
        )

    f = np.concatenate(parts_f) if parts_f else np.zeros((0, 3), np.float32)
    i = np.concatenate(parts_i) if parts_i else np.zeros((0, 5), np.int32)
    return AnchorSet(
        image_w=int(image_w),
        image_h=int(image_h),
        configs=configs,
        cx=f[:, 0],
        cy=f[:, 1],
        side=f[:, 2],
        layer_index=i[:, 0],
        row=i[:, 1],
        col=i[:, 2],
        scale=i[:, 3],
        sub_index=i[:, 4],
    )
