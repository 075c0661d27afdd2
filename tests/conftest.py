from typing import NamedTuple

import numpy as np
import pytest

from facedet.network import ModelWeights, default_descriptor, xavier_init

DEFAULT_MEAN = np.array([0.4078, 0.4588, 0.4824], dtype=np.float32).reshape(1, 3, 1, 1)


class Det(NamedTuple):
    """One scored box, the per-item form the list-walking oracles work on."""

    box: tuple[float, float, float, float]
    score: float


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
