"""The detector's layer graph and everything that runs it.

The graph is a fast stride-32 stem (Conv1 7x7/s4 + concat-negation relu,
Pool1, Conv2 5x5/s2 + concat-negation relu, Pool2) followed by a multi-scale
trunk: three Inception blocks at stride 32, then two 1x1/3x3-s2 stages
reaching strides 64 and 128.  Anchors live on Inception3, Conv3_2 and
Conv4_2; each of those feeds a pair of 3x3 heads (loc: 4 channels per
anchor, conf: 2).  This module owns descriptor construction, xavier
initialization, the forward pass, and the FBXW binary weight format.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ops
from .ops import ConvParams

INPUT_NAME = "image"
ANCHOR_SOURCES = ("Inception3", "Conv3_2", "Conv4_2")
ANCHORS_PER_CELL = {"Inception3": 21, "Conv3_2": 1, "Conv4_2": 1}
MIN_INPUT_SIZE = 128  # below this the stride-128 grid carries no useful signal
# at 4096x4096, forward holds ~0.4 GB: the 201 MB input, Conv1's 101 MB output,
# and Pool1's output and temporaries
MAX_INPUT_PIXELS = 4096 * 4096

WEIGHTS_MAGIC = b"FBXW"
WEIGHTS_VERSION = 1

# Inception branches, concatenated in this order: 1x1; 3x3/s1 maxpool + 1x1;
# 1x1 reduce + 3x3; 1x1 reduce + two stacked 3x3.  Widths 32+32+32+32 = 128.
_INCEPTION_CONVS = (
    ("b1x1", (1, 1), 128, 32),
    ("pool_proj", (1, 1), 128, 32),
    ("b3x3_reduce", (1, 1), 128, 24),
    ("b3x3", (3, 3), 24, 32),
    ("b3x3x2_reduce", (1, 1), 128, 24),
    ("b3x3x2_a", (3, 3), 24, 32),
    ("b3x3x2_b", (3, 3), 32, 32),
)
INCEPTION_CHANNELS = 128


class WeightEntry(NamedTuple):
    name: str
    shape: tuple[int, int, int, int]  # (out_ch, in_ch, kh, kw)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # conv | pool | crelu | inception | head
    inputs: tuple[str, ...]
    params: ConvParams | None
    in_channels: int
    out_channels: int
    relu: bool = False


@dataclass(frozen=True)
class NetworkDescriptor:
    """Ordered, acyclic layer list plus the names of the anchor-source layers."""

    layers: tuple[LayerSpec, ...]
    anchor_sources: tuple[str, ...]

    def __post_init__(self):
        seen = {INPUT_NAME}
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            for src in layer.inputs:
                if src not in seen:
                    raise ValueError(f"layer {layer.name!r} uses undefined input {src!r}")
            seen.add(layer.name)
        for src in self.anchor_sources:
            if src not in seen:
                raise ValueError(f"anchor source {src!r} is not a layer")

    def layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)

    def conv_entries(self) -> tuple[WeightEntry, ...]:
        """All parameterized convolutions, in serialization order; Inception
        blocks expand to their seven branch convs."""
        entries = []
        for layer in self.layers:
            if layer.kind in ("conv", "head"):
                kh, kw = layer.params.kernel
                entries.append(
                    WeightEntry(layer.name, (layer.out_channels, layer.in_channels, kh, kw))
                )
            elif layer.kind == "inception":
                for suffix, kernel, in_c, out_c in _INCEPTION_CONVS:
                    entries.append(
                        WeightEntry(f"{layer.name}.{suffix}", (out_c, in_c, *kernel))
                    )
        return tuple(entries)

    def spatial_sizes(self, height: int, width: int) -> dict[str, tuple[int, int]]:
        """(h, w) of every layer output for the given input size.

        Raises ValueError for an input below MIN_INPUT_SIZE on either side, or
        naming the first layer whose output would collapse.
        """
        if min(height, width) < MIN_INPUT_SIZE:
            raise ValueError(
                f"input {width}x{height} is below the minimum supported size "
                f"{MIN_INPUT_SIZE}x{MIN_INPUT_SIZE}"
            )
        sizes = {INPUT_NAME: (int(height), int(width))}
        for layer in self.layers:
            h, w = sizes[layer.inputs[0]]
            if layer.kind in ("conv", "pool", "head"):
                p = layer.params
                try:
                    h = ops.conv_output_size(h, p.kernel[0], p.stride, p.padding[0])
                    w = ops.conv_output_size(w, p.kernel[1], p.stride, p.padding[1])
                except ValueError as e:
                    raise ValueError(
                        f"input {width}x{height} is too small: layer {layer.name!r} "
                        f"would be degenerate ({e})"
                    ) from e
            sizes[layer.name] = (h, w)
        return sizes

    def cumulative_strides(self) -> dict[str, int]:
        strides = {INPUT_NAME: 1}
        for layer in self.layers:
            s = strides[layer.inputs[0]]
            if layer.kind in ("conv", "pool", "head"):
                s *= layer.params.stride
            strides[layer.name] = s
        return strides

    def fingerprint(self) -> int:
        """Stable 64-bit digest of the full layer graph, stored in weight files."""
        h = hashlib.blake2b(digest_size=8)
        for layer in self.layers:
            p = layer.params
            geom = f"{p.kernel}:{p.stride}:{p.padding}:{p.out_channels}" if p else "-"
            h.update(
                f"{layer.name};{layer.kind};{','.join(layer.inputs)};{geom};"
                f"{layer.in_channels};{layer.out_channels};{int(layer.relu)}\n".encode()
            )
        h.update(",".join(self.anchor_sources).encode())
        return int.from_bytes(h.digest(), "little")


def build_network() -> NetworkDescriptor:
    """Assemble the standard detector graph (strides 32/64/128 at the anchor
    sources, 21/1/1 anchors per cell)."""
    layers: list[LayerSpec] = []

    def conv(name, src, in_c, out_c, k, s, relu):
        layers.append(
            LayerSpec(name, "conv", (src,), ConvParams((k, k), s, out_c), in_c, out_c, relu)
        )

    def pool(name, src, channels):
        layers.append(
            LayerSpec(name, "pool", (src,), ConvParams((3, 3), 2, channels), channels, channels)
        )

    conv("Conv1", INPUT_NAME, 3, 24, 7, 4, relu=False)
    layers.append(LayerSpec("Conv1_crelu", "crelu", ("Conv1",), None, 24, 48))
    pool("Pool1", "Conv1_crelu", 48)
    conv("Conv2", "Pool1", 48, 64, 5, 2, relu=False)
    layers.append(LayerSpec("Conv2_crelu", "crelu", ("Conv2",), None, 64, 128))
    pool("Pool2", "Conv2_crelu", 128)

    trunk = "Pool2"
    for name in ("Inception1", "Inception2", "Inception3"):
        layers.append(
            LayerSpec(name, "inception", (trunk,), None, INCEPTION_CHANNELS, INCEPTION_CHANNELS)
        )
        trunk = name
    conv("Conv3_1", "Inception3", 128, 128, 1, 1, relu=True)
    conv("Conv3_2", "Conv3_1", 128, 256, 3, 2, relu=True)
    conv("Conv4_1", "Conv3_2", 256, 128, 1, 1, relu=True)
    conv("Conv4_2", "Conv4_1", 128, 256, 3, 2, relu=True)

    for src in ANCHOR_SOURCES:
        a = ANCHORS_PER_CELL[src]
        in_c = 128 if src == "Inception3" else 256
        for suffix, out_c in (("loc", 4 * a), ("conf", 2 * a)):
            layers.append(
                LayerSpec(
                    f"{src}.{suffix}", "head", (src,), ConvParams((3, 3), 1, out_c), in_c, out_c
                )
            )

    descriptor = NetworkDescriptor(tuple(layers), ANCHOR_SOURCES)
    strides = descriptor.cumulative_strides()
    expected = dict(zip(ANCHOR_SOURCES, (32, 64, 128)))
    for src, want in expected.items():
        if strides[src] != want:
            raise AssertionError(f"stride at {src} is {strides[src]}, expected {want}")
    return descriptor


@lru_cache(maxsize=1)
def default_descriptor() -> NetworkDescriptor:
    return build_network()


@dataclass
class ModelWeights:
    """Named conv parameters: entry name -> (weight (co,ci,kh,kw), bias (co,)).

    Immutable by convention once loaded; a single instance may serve
    concurrent forward calls.
    """

    entries: dict[str, tuple[np.ndarray, np.ndarray]]
    descriptor_fingerprint: int
    version: int = WEIGHTS_VERSION


class WeightFormatError(Exception):
    """Weight file rejected; `code` names the failed gate (bad_magic,
    bad_version, descriptor_mismatch, truncated, shape_mismatch,
    entry_mismatch, non_finite, trailing_data)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def validate_weights(weights: ModelWeights, descriptor: NetworkDescriptor) -> None:
    if weights.descriptor_fingerprint != descriptor.fingerprint():
        raise ValueError("weights were built for a different descriptor")
    for name, shape in descriptor.conv_entries():
        if name not in weights.entries:
            raise ValueError(f"missing weights for layer {name!r}")
        w, b = weights.entries[name]
        if tuple(w.shape) != shape:
            raise ValueError(f"layer {name!r}: weight shape {w.shape}, expected {shape}")
        if b.shape != (shape[0],):
            raise ValueError(f"layer {name!r}: bias shape {b.shape}, expected ({shape[0]},)")


def xavier_init(descriptor: NetworkDescriptor, seed: int) -> ModelWeights:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) conv weights (fans include the
    kernel area), zero biases.  Bit-deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    entries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, (co, ci, kh, kw) in descriptor.conv_entries():
        fan_in = ci * kh * kw
        fan_out = co * kh * kw
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, (co, ci, kh, kw)).astype(ops.DTYPE)
        entries[name] = (w, np.zeros(co, dtype=ops.DTYPE))
    return ModelWeights(entries, descriptor.fingerprint())


def inception_forward(x, branch_weights) -> np.ndarray:
    """One Inception block: four stride-1 branches over a 128-channel input,
    concatenated back to 128 channels at the same spatial size.

    `branch_weights` maps the suffixes in `_INCEPTION_CONVS` to (weight, bias).
    """
    x = ops.as_tensor(x)
    if x.shape[1] != INCEPTION_CHANNELS:
        raise ValueError(f"inception input must have {INCEPTION_CHANNELS} channels, got {x.shape[1]}")

    def cv(t, suffix):
        w, b = branch_weights[suffix]
        return ops.relu(ops.conv2d(t, w, b, stride=1, padding=ops.same_padding(w.shape[2:])))

    pooled = ops.maxpool2d(x, 3, stride=1, padding=1)
    branches = [
        cv(x, "b1x1"),
        cv(pooled, "pool_proj"),
        cv(cv(x, "b3x3_reduce"), "b3x3"),
        cv(cv(cv(x, "b3x3x2_reduce"), "b3x3x2_a"), "b3x3x2_b"),
    ]
    return ops.concat_channels(branches)


@dataclass(frozen=True)
class HeadOutputs:
    """Raw per-source head maps: loc (n, 4A, h, w) and conf (n, 2A, h, w)."""

    sources: tuple[str, ...]
    loc: dict[str, np.ndarray]
    conf: dict[str, np.ndarray]


def check_input_pixels(height: int, width: int) -> None:
    """Reject an input of more than MAX_INPUT_PIXELS pixels, naming the cap."""
    if height * width > MAX_INPUT_PIXELS:
        raise ValueError(
            f"input {width}x{height} has {height * width} pixels, above the cap "
            f"of {MAX_INPUT_PIXELS} pixels"
        )


def forward(weights: ModelWeights, descriptor: NetworkDescriptor, image) -> HeadOutputs:
    """Run the graph on an NCHW image batch and collect the raw head maps.

    Pure and deterministic; the compute cost depends only on the image size,
    never on its content.
    """
    shape = np.shape(image)  # read before as_tensor can copy an oversized image
    if len(shape) == 4:
        check_input_pixels(shape[2], shape[3])
    image = ops.as_tensor(image)
    validate_weights(weights, descriptor)
    first = descriptor.layers[0]
    if image.shape[1] != first.in_channels:
        raise ValueError(f"expected {first.in_channels}-channel input, got {image.shape[1]}")
    # rejects an input below the size floor or one that collapses a layer
    descriptor.spatial_sizes(image.shape[2], image.shape[3])

    acts: dict[str, np.ndarray] = {INPUT_NAME: image}
    # a crelu layer is not run on its own: the pool reading it applies it after
    # pooling, to fewer cells
    crelu_inputs = {l.name: l.inputs[0] for l in descriptor.layers if l.kind == "crelu"}
    for layer in descriptor.layers:
        if layer.kind == "crelu":
            continue
        fused = layer.inputs[0] in crelu_inputs
        if fused and layer.kind != "pool":
            raise ValueError(
                f"layer {layer.name!r} reads crelu layer {layer.inputs[0]!r}; "
                "only a pool may read a crelu layer"
            )
        x = acts[crelu_inputs[layer.inputs[0]] if fused else layer.inputs[0]]
        if layer.kind in ("conv", "head"):
            w, b = weights.entries[layer.name]
            y = ops.conv2d(x, w, b, stride=layer.params.stride, padding=layer.params.padding)
            if layer.relu:
                y = ops.relu(y)
        elif fused:
            p = layer.params
            y = ops.crelu_maxpool2d(x, p.kernel, p.stride, p.padding)
        elif layer.kind == "pool":
            y = ops.maxpool2d(x, layer.params.kernel, layer.params.stride, layer.params.padding)
        elif layer.kind == "inception":
            branch = {
                suffix: weights.entries[f"{layer.name}.{suffix}"]
                for suffix, _, _, _ in _INCEPTION_CONVS
            }
            y = inception_forward(x, branch)
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        acts[layer.name] = y

    loc = {src: acts[f"{src}.loc"] for src in descriptor.anchor_sources}
    conf = {src: acts[f"{src}.conf"] for src in descriptor.anchor_sources}
    return HeadOutputs(descriptor.anchor_sources, loc, conf)


def save_weights(weights: ModelWeights, path) -> None:
    """Write the FBXW container: magic, u32 version, u64 descriptor
    fingerprint, then per entry: u32 name length + name bytes + 4 u32 dims +
    little-endian float32 weights then bias."""
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<I", weights.version))
        f.write(struct.pack("<Q", weights.descriptor_fingerprint))
        for name, (w, b) in weights.entries.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<4I", *w.shape))
            f.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_weights(path, descriptor: NetworkDescriptor | None = None) -> ModelWeights:
    """Read and verify an FBXW file against the descriptor (default graph when
    omitted).  Raises WeightFormatError with a distinct code per failed gate."""
    descriptor = descriptor or default_descriptor()
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise WeightFormatError("truncated", f"file ends inside {what}")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    if take(4, "magic") != WEIGHTS_MAGIC:
        raise WeightFormatError("bad_magic", "not a FBXW weight file")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != WEIGHTS_VERSION:
        raise WeightFormatError("bad_version", f"unsupported version {version}")
    (fingerprint,) = struct.unpack("<Q", take(8, "descriptor fingerprint"))
    if fingerprint != descriptor.fingerprint():
        raise WeightFormatError(
            "descriptor_mismatch", "weight file was built for a different descriptor"
        )

    entries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, expected_shape in descriptor.conv_entries():
        (name_len,) = struct.unpack("<I", take(4, "entry name length"))
        # compared as bytes: a name that is not UTF-8 is a mismatch, not a decode error
        found = take(name_len, "entry name")
        if found != name.encode():
            raise WeightFormatError(
                "entry_mismatch", f"entry {found!r} where {name!r} was expected"
            )
        dims = struct.unpack("<4I", take(16, f"{name} dims"))
        if dims != expected_shape:
            raise WeightFormatError(
                "shape_mismatch", f"entry {name!r}: dims {dims}, expected {expected_shape}"
            )
        count = dims[0] * dims[1] * dims[2] * dims[3]
        w = np.frombuffer(take(4 * count, f"{name} weights"), dtype="<f4")
        b = np.frombuffer(take(4 * dims[0], f"{name} bias"), dtype="<f4")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise WeightFormatError("non_finite", f"entry {name!r} holds NaN or infinite values")
        entries[name] = (
            w.astype(ops.DTYPE).reshape(dims),
            b.astype(ops.DTYPE),
        )
    if pos != len(data):
        raise WeightFormatError("trailing_data", f"{len(data) - pos} unexpected trailing bytes")
    return ModelWeights(entries, fingerprint, version)
