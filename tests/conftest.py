import math
import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from facedet import network, ops
from facedet.anchors import AnchorSet
from facedet.network import ModelWeights, default_descriptor, xavier_init
from facedet.targets import decode_boxes, encode_boxes, pairwise_jaccard

DEFAULT_MEAN = np.array([0.4078, 0.4588, 0.4824], dtype=np.float32).reshape(1, 3, 1, 1)


class Det(NamedTuple):
    """One scored box, the per-item form the list-walking oracles work on."""

    box: tuple[float, float, float, float]
    score: float


def parameter_count(descriptor) -> int:
    """Weights plus biases over every conv entry of the descriptor."""
    return sum(co * ci * kh * kw + co for _, (co, ci, kh, kw) in descriptor.conv_entries())


def layer(descriptor, name: str):
    """The descriptor's LayerSpec called `name`."""
    return next(l for l in descriptor.layers if l.name == name)


def forward_head_maps(weights, descriptor, image, monkeypatch):
    """`forward`'s result and the head maps it computed on the way, {head
    layer name: (n, kA, h, w)}, recorded from its own `ops.conv2d` calls
    (those outside `inception_forward`), which follow descriptor order."""
    maps, inside = [], []
    conv2d, inception = ops.conv2d, network.inception_forward

    def record_conv2d(*args, **kwargs):
        y = conv2d(*args, **kwargs)
        if not inside:
            maps.append(y)
        return y

    def record_inception(*args):
        inside.append(True)
        y = inception(*args)
        inside.pop()
        return y

    with monkeypatch.context() as m:
        m.setattr(ops, "conv2d", record_conv2d)
        m.setattr(network, "inception_forward", record_inception)
        heads = network.forward(weights, descriptor, image)
    names = [l.name for l in descriptor.layers if l.kind in ("conv", "head")]
    assert len(names) == len(maps)
    kinds = {l.name: l.kind for l in descriptor.layers}
    return heads, {name: y for name, y in zip(names, maps) if kinds[name] == "head"}


def tiling_density(scale, interval) -> Fraction:
    """scale / interval, kept exact."""
    if interval <= 0:
        raise ValueError(f"tiling interval must be positive, got {interval}")
    return Fraction(scale) / Fraction(interval)


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


def jaccard(a, b) -> float:
    """Intersection over union of two corner boxes."""
    return float(pairwise_jaccard([a], [b])[0, 0])


def encode_box(anchor, gt) -> np.ndarray:
    """Single (cx, cy, side) anchor against a single corner box."""
    return encode_boxes([anchor], [gt])[0]


def decode_box(anchor, offsets) -> np.ndarray:
    return decode_boxes([anchor], [offsets])[0]


def grid_anchors(image_w: int, image_h: int, stride: int, side: int) -> AnchorSet:
    """One `side` px anchor at the center of every stride x stride cell
    covering the image, cells row-major: a one-layer set for heads built by
    hand."""
    rows, cols = math.ceil(image_h / stride), math.ceil(image_w / stride)
    rr, cc = np.divmod(np.arange(rows * cols, dtype=np.int32), np.int32(cols))
    zeros = np.zeros(rows * cols, np.int32)
    return AnchorSet(
        image_w=image_w,
        image_h=image_h,
        cx=((cc + 0.5) * stride).astype(np.float32),
        cy=((rr + 0.5) * stride).astype(np.float32),
        side=np.full(rows * cols, side, np.float32),
        layer_index=zeros,
        row=rr,
        col=cc,
        sub_index=zeros,
    )


@pytest.fixture
def full_disk(monkeypatch):
    """Every file opened through os.fdopen (the atomic writer's temp file)
    takes half of its first write, then fails with ENOSPC."""
    fdopen = os.fdopen

    def failing(fd, *args, **kwargs):
        f = fdopen(fd, *args, **kwargs)
        write = f.write

        def dies_halfway(data):
            write(data[: len(data) // 2])
            f.flush()
            raise OSError(28, "No space left on device")

        f.write = dies_halfway
        return f

    monkeypatch.setattr(os, "fdopen", failing)


@pytest.fixture(scope="session")
def descriptor():
    return default_descriptor()


@pytest.fixture(scope="session")
def random_weights(descriptor):
    return xavier_init(descriptor, 0)


def build_smoke_weights(descriptor) -> ModelWeights:
    """Hand-constructed weights that detect a bright blob with the 256 px
    anchors: channel 0 carries the image brightness through the whole trunk,
    the Conv3_2 face head sums it over a 3x3 window, and every other head is
    biased far below the confidence threshold."""
    entries = {}
    for name, shape in descriptor.conv_entries():
        entries[name] = (np.zeros(shape, np.float32), np.zeros(shape[0], np.float32))
    w, b = entries["Conv1"]
    w[0, :, :, :] = 1.0 / (3 * 49)  # channel 0 = mean brightness
    b[0] = 1.0  # keeps it positive after mean subtraction
    entries["Conv2"][0][0, 0, 2, 2] = 1.0
    for inc in ("Inception1", "Inception2", "Inception3"):
        entries[f"{inc}.b1x1"][0][0, 0, 0, 0] = 1.0  # concat keeps it at channel 0
    entries["Conv3_1"][0][0, 0, 0, 0] = 1.0
    entries["Conv3_2"][0][0, 0, 1, 1] = 1.0
    entries["Conv3_2.conf"][0][1, 0, :, :] = 1.0
    entries["Conv3_2.conf"][1][1] = -9.0  # background cells score ~0.02
    entries["Inception3.conf"][1][1::2] = -20.0
    entries["Conv4_2.conf"][1][1] = -20.0
    return ModelWeights(entries, descriptor.fingerprint())


def tent_blob_image(size: int, center: tuple[float, float], radius: float) -> np.ndarray:
    """Black image with a pyramid-shaped bright blob: 1 at the center,
    linearly fading to 0 at L-inf distance `radius`."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    tent = np.clip(
        1 - np.maximum(np.abs(xx - center[0]), np.abs(yy - center[1])) / radius, 0, 1
    )
    return np.broadcast_to(tent, (1, 3, size, size)).astype(np.float32).copy()


@pytest.fixture(scope="session")
def smoke_weights(descriptor):
    return build_smoke_weights(descriptor)
