import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet import network, ops
from facedet.network import (
    ANCHOR_SOURCES,
    WeightFormatError,
    forward,
    inception_forward,
    load_weights,
    save_weights,
    xavier_init,
)

from facedet.anchors import generate_anchors

from conftest import forward_head_maps, layer, parameter_count
from naive_ops import flatten_head_maps

# summed by hand from the per-layer widths: stem 3552 + 76864, three inception
# blocks at 37584, trunk convs 16512 + 295168 + 32896 + 295168, six heads
PARAMETER_COUNT = 1_005_850


class TestDescriptor:
    def test_stem_stride_is_32(self, descriptor):
        assert descriptor.cumulative_strides()["Pool2"] == 32

    def test_anchor_source_strides(self, descriptor):
        strides = descriptor.cumulative_strides()
        assert [strides[s] for s in ANCHOR_SOURCES] == [32, 64, 128]

    def test_head_channels(self, descriptor):
        assert layer(descriptor, "Inception3.loc").out_channels == 84
        assert layer(descriptor, "Inception3.conf").out_channels == 42
        assert layer(descriptor, "Conv3_2.loc").out_channels == 4
        assert layer(descriptor, "Conv4_2.conf").out_channels == 2

    def test_trunk_channel_widths(self, descriptor):
        assert layer(descriptor, "Conv1").out_channels == 24
        assert layer(descriptor, "Conv1_crelu").out_channels == 48
        assert layer(descriptor, "Conv2").out_channels == 64
        assert layer(descriptor, "Conv2_crelu").out_channels == 128
        assert layer(descriptor, "Conv3_2").out_channels == 256
        assert layer(descriptor, "Conv4_2").out_channels == 256

    def test_padding_is_half_kernel_everywhere(self, descriptor):
        # with kernel // 2 padding, a stride-1 layer keeps its input's grid
        for h, w in ((128, 128), (480, 640), (517, 999), (1024, 1024)):
            sizes = descriptor.spatial_sizes(h, w)
            for l in descriptor.layers:
                if l.stride == 1:
                    assert sizes[l.name] == sizes[l.source], (l.name, h, w)

    def test_parameter_count(self, descriptor):
        assert parameter_count(descriptor) == PARAMETER_COUNT

    def test_fingerprint_stable_and_sensitive(self, descriptor):
        # every FBXW file carries this digest
        assert descriptor.fingerprint() == 0x32FD35CCC90CB5DF
        trimmed = network.NetworkDescriptor(descriptor.layers[:-1])
        assert trimmed.fingerprint() != descriptor.fingerprint()

    def test_feature_sizes_exact_for_multiples_of_128(self, descriptor):
        for side in (128, 256, 640, 1024):
            sizes = descriptor.spatial_sizes(side, side)
            assert sizes["Inception3"] == (side // 32, side // 32)
            assert sizes["Conv3_2"] == (side // 64, side // 64)
            assert sizes["Conv4_2"] == (side // 128, side // 128)


class TestInception:
    def test_shape_preserved(self, descriptor, random_weights):
        entries = {
            suffix: random_weights.entries[f"Inception1.{suffix}"]
            for suffix, _, _, _ in network._INCEPTION_CONVS
        }
        x = np.random.default_rng(0).standard_normal((1, 128, 32, 32)).astype(np.float32)
        assert inception_forward(x, entries).shape == (1, 128, 32, 32)

    def test_zero_weights_zero_output(self, descriptor):
        entries = {
            suffix: (np.zeros((out_c, in_c, *k), np.float32), np.zeros(out_c, np.float32))
            for suffix, k, in_c, out_c in network._INCEPTION_CONVS
        }
        x = np.random.default_rng(1).standard_normal((1, 128, 6, 6)).astype(np.float32)
        assert not inception_forward(x, entries).any()

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 5), (7, 3)])
    def test_any_spatial_size(self, random_weights, h, w):
        entries = {
            suffix: random_weights.entries[f"Inception2.{suffix}"]
            for suffix, _, _, _ in network._INCEPTION_CONVS
        }
        x = np.random.default_rng(2).standard_normal((2, 128, h, w)).astype(np.float32)
        assert inception_forward(x, entries).shape == (2, 128, h, w)

    def test_wrong_channel_count_rejected(self, random_weights):
        entries = {
            suffix: random_weights.entries[f"Inception1.{suffix}"]
            for suffix, _, _, _ in network._INCEPTION_CONVS
        }
        with pytest.raises(ValueError, match="128 channels"):
            inception_forward(np.zeros((1, 64, 4, 4), np.float32), entries)


class TestXavierInit:
    def test_deterministic(self, descriptor):
        a = xavier_init(descriptor, 7)
        b = xavier_init(descriptor, 7)
        for name in a.entries:
            np.testing.assert_array_equal(a.entries[name][0], b.entries[name][0])

    def test_seed_changes_weights(self, descriptor):
        a = xavier_init(descriptor, 7)
        b = xavier_init(descriptor, 8)
        assert not np.array_equal(a.entries["Conv1"][0], b.entries["Conv1"][0])

    def test_bounds_and_mean(self, descriptor, random_weights):
        w, b = random_weights.entries["Conv1"]
        fan_in, fan_out = 3 * 49, 24 * 49
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound
        assert abs(float(w.mean())) < 0.01
        assert not b.any()

    def test_all_biases_zero(self, descriptor, random_weights):
        assert all(not b.any() for _, b in random_weights.entries.values())


class TestForward:
    def test_1024_head_grids(self, descriptor, random_weights, monkeypatch):
        x = np.random.default_rng(0).random((1, 3, 1024, 1024), dtype=np.float32)
        heads, maps = forward_head_maps(random_weights, descriptor, x, monkeypatch)
        assert maps["Inception3.loc"].shape == (1, 84, 32, 32)
        assert maps["Conv3_2.loc"].shape == (1, 4, 16, 16)
        assert maps["Conv4_2.loc"].shape == (1, 4, 8, 8)
        assert maps["Inception3.conf"].shape == (1, 42, 32, 32)
        # 32*32*21 + 16*16 + 8*8 anchor rows
        assert heads.loc.shape == (1, 21824, 4)
        assert heads.conf.shape == (1, 21824, 2)

    def test_640_head_grids(self, descriptor, random_weights, monkeypatch):
        x = np.random.default_rng(1).random((1, 3, 640, 640), dtype=np.float32)
        _, maps = forward_head_maps(random_weights, descriptor, x, monkeypatch)
        grids = [maps[f"{s}.loc"].shape[2:] for s in ANCHOR_SOURCES]
        assert grids == [(20, 20), (10, 10), (5, 5)]

    @pytest.mark.parametrize(
        "n,h,w", [(1, 640, 640), (1, 480, 640), (1, 517, 999), (1, 1024, 1024), (2, 256, 320)]
    )
    def test_rows_match_flattened_head_maps(
        self, descriptor, random_weights, monkeypatch, n, h, w
    ):
        # forward's rows are its own head maps flattened per image, bit for bit
        x = np.random.default_rng(h + w).random((n, 3, h, w), dtype=np.float32)
        heads, maps = forward_head_maps(random_weights, descriptor, x, monkeypatch)
        loc, conf = flatten_head_maps(
            [maps[f"{s}.loc"] for s in ANCHOR_SOURCES], [maps[f"{s}.conf"] for s in ANCHOR_SOURCES]
        )
        assert heads.loc.shape == (n, len(generate_anchors(w, h)), 4)
        np.testing.assert_array_equal(heads.loc.view(np.uint32), loc.view(np.uint32))
        np.testing.assert_array_equal(heads.conf.view(np.uint32), conf.view(np.uint32))

    def test_batch_matches_single(self, descriptor, random_weights):
        rng = np.random.default_rng(2)
        batch = rng.random((2, 3, 160, 160), dtype=np.float32)
        both = forward(random_weights, descriptor, batch)
        for i in range(2):
            single = forward(random_weights, descriptor, batch[i : i + 1])
            np.testing.assert_allclose(both.loc[i], single.loc[0], rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(both.conf[i], single.conf[0], rtol=1e-5, atol=1e-5)

    def test_deterministic_bit_exact(self, descriptor, random_weights):
        x = np.random.default_rng(3).random((1, 3, 256, 256), dtype=np.float32)
        a = forward(random_weights, descriptor, x)
        b = forward(random_weights, descriptor, x)
        np.testing.assert_array_equal(a.loc, b.loc)
        np.testing.assert_array_equal(a.conf, b.conf)

    def test_undersized_input_rejected(self, descriptor, random_weights):
        with pytest.raises(ValueError, match="minimum"):
            forward(random_weights, descriptor, np.zeros((1, 3, 64, 64), np.float32))

    def test_wrong_channel_count_rejected(self, descriptor, random_weights):
        with pytest.raises(ValueError, match="channel"):
            forward(random_weights, descriptor, np.zeros((1, 1, 256, 256), np.float32))

    def test_oversized_input_rejected_before_allocation(self, descriptor, random_weights):
        cap = network.MAX_INPUT_PIXELS
        side = math.isqrt(cap) + 1
        for h, w in ((side, side), (128, cap // 128 + 1)):
            assert h * w > cap
            # zero-stride views: no image memory exists behind them
            huge = np.broadcast_to(np.float32(0), (1, 3, h, w))
            with pytest.raises(ValueError, match=f"cap of {cap} pixels"):
                forward(random_weights, descriptor, huge)

    @staticmethod
    def _bent(descriptor, name, **changes):
        layers = tuple(
            dataclasses.replace(l, **changes) if l.name == name else l for l in descriptor.layers
        )
        return network.NetworkDescriptor(layers)

    def test_non_pool_reading_crelu_rejected(self, descriptor):
        # forward runs C.ReLU only inside the pool after it
        with pytest.raises(ValueError, match="only a pool may read one"):
            self._bent(descriptor, "Pool1", kind="conv")

    def test_pool_reading_non_crelu_rejected(self, descriptor):
        with pytest.raises(ValueError, match="every pool reads a crelu layer"):
            self._bent(descriptor, "Pool1", source="Conv1")

    def test_unknown_layer_kind_rejected(self, descriptor):
        with pytest.raises(ValueError, match="unknown kind 'deconv'"):
            self._bent(descriptor, "Conv3_1", kind="deconv")

    def test_calls_follow_descriptor_order(self, descriptor, random_weights, monkeypatch):
        # a tracer assigns forward's direct conv2d and inception_forward calls
        # to graph nodes by their position: heads loc before conf per source
        calls, inside = [], []
        conv2d, inception = ops.conv2d, network.inception_forward

        def record_conv2d(*args, **kwargs):
            y = conv2d(*args, **kwargs)
            if not inside:
                calls.append(("conv2d", y.shape))
            return y

        def record_inception(*args):
            inside.append(True)
            y = inception(*args)
            inside.pop()
            calls.append(("inception", y.shape))
            return y

        monkeypatch.setattr(ops, "conv2d", record_conv2d)
        monkeypatch.setattr(network, "inception_forward", record_inception)
        forward(random_weights, descriptor, np.zeros((1, 3, 160, 224), np.float32))
        sizes = descriptor.spatial_sizes(160, 224)
        op = {"conv": "conv2d", "head": "conv2d", "inception": "inception"}
        want = [
            (op[l.kind], (1, l.out_channels, *sizes[l.name]))
            for l in descriptor.layers
            if l.kind in op
        ]
        assert calls == want
        heads = [l.name for l in descriptor.layers if l.kind == "head"]
        assert heads == [f"{s}.{part}" for s in ANCHOR_SOURCES for part in ("loc", "conf")]

    def test_shared_weights_across_threads(self, descriptor, random_weights):
        x = np.random.default_rng(4).random((1, 3, 160, 160), dtype=np.float32)
        want = forward(random_weights, descriptor, x)
        results = [None, None]

        def run(i):
            results[i] = forward(random_weights, descriptor, x)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results:
            np.testing.assert_array_equal(got.loc, want.loc)


class TestWeightSerialization:
    def test_round_trip_bit_exact(self, tmp_path, descriptor, random_weights):
        path = tmp_path / "m.fbxw"
        save_weights(random_weights, path)
        loaded = load_weights(path, descriptor)
        assert loaded.descriptor_fingerprint == random_weights.descriptor_fingerprint
        for name, (w, b) in random_weights.entries.items():
            np.testing.assert_array_equal(loaded.entries[name][0], w)
            np.testing.assert_array_equal(loaded.entries[name][1], b)

    def test_serialized_size_under_8mb(self, tmp_path, random_weights):
        path = tmp_path / "m.fbxw"
        save_weights(random_weights, path)
        assert path.stat().st_size < 8 * 1024 * 1024

    def test_reversed_entries_round_trip_bit_exact(self, tmp_path, descriptor, random_weights):
        # validate_weights accepts any dict order; the file must still be in
        # the order load_weights reads
        entries = dict(reversed(random_weights.entries.items()))
        path = tmp_path / "m.fbxw"
        save_weights(network.ModelWeights(entries, random_weights.descriptor_fingerprint), path)
        loaded = load_weights(path, descriptor)
        for name, (w, b) in random_weights.entries.items():
            np.testing.assert_array_equal(loaded.entries[name][0], w)
            np.testing.assert_array_equal(loaded.entries[name][1], b)

    def test_foreign_weights_not_written(self, tmp_path, random_weights):
        path = tmp_path / "m.fbxw"
        with pytest.raises(ValueError, match="different descriptor"):
            save_weights(network.ModelWeights(random_weights.entries, 12345), path)
        assert not path.exists()

    def test_failed_write_keeps_old_file(self, tmp_path, random_weights, full_disk):
        path = tmp_path / "m.fbxw"
        path.write_bytes(b"old weights")
        with pytest.raises(OSError, match="No space left"):
            save_weights(random_weights, path)
        assert path.read_bytes() == b"old weights"
        assert [p.name for p in tmp_path.iterdir()] == ["m.fbxw"]

    def test_save_deterministic(self, tmp_path, descriptor):
        p1, p2 = tmp_path / "a.fbxw", tmp_path / "b.fbxw"
        save_weights(xavier_init(descriptor, 7), p1)
        save_weights(xavier_init(descriptor, 7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def _saved(self, tmp_path, random_weights) -> bytearray:
        path = tmp_path / "m.fbxw"
        save_weights(random_weights, path)
        return bytearray(path.read_bytes())

    def _expect_code(self, tmp_path, blob, code, descriptor):
        path = tmp_path / "bad.fbxw"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError) as err:
            load_weights(path, descriptor)
        assert err.value.code == code

    def test_bad_magic(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        blob[0:4] = b"NOPE"
        self._expect_code(tmp_path, blob, "bad_magic", descriptor)

    def test_bad_version(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        blob[4] = 99
        self._expect_code(tmp_path, blob, "bad_version", descriptor)

    def test_descriptor_mismatch(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        blob[8] ^= 0xFF
        self._expect_code(tmp_path, blob, "descriptor_mismatch", descriptor)

    def test_truncated(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        self._expect_code(tmp_path, blob[: len(blob) // 2], "truncated", descriptor)

    def test_shape_mismatch(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        # first entry dims start after magic+version+fingerprint+len+name
        name_len = len("Conv1")
        off = 4 + 4 + 8 + 4 + name_len
        blob[off : off + 4] = (999).to_bytes(4, "little")
        self._expect_code(tmp_path, blob, "shape_mismatch", descriptor)

    def test_non_utf8_entry_name(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        blob[4 + 4 + 8 + 4] = 0xFF  # first byte of the first entry's name
        self._expect_code(tmp_path, blob, "entry_mismatch", descriptor)

    def test_trailing_data(self, tmp_path, descriptor, random_weights):
        blob = self._saved(tmp_path, random_weights)
        self._expect_code(tmp_path, blob + b"junk", "trailing_data", descriptor)

    def test_non_finite_rejected(self, tmp_path, descriptor, random_weights):
        entries = dict(random_weights.entries)
        w, b = entries["Conv1"]
        b = b.copy()
        b[5] = np.nan
        entries["Conv1"] = (w, b)
        path = tmp_path / "nan.fbxw"
        save_weights(network.ModelWeights(entries, random_weights.descriptor_fingerprint), path)
        with pytest.raises(WeightFormatError, match="Conv1") as err:
            load_weights(path, descriptor)
        assert err.value.code == "non_finite"

    def test_forward_rejects_foreign_weights(self, descriptor, random_weights):
        foreign = network.ModelWeights(random_weights.entries, 12345)
        with pytest.raises(ValueError, match="different descriptor"):
            forward(foreign, descriptor, np.zeros((1, 3, 128, 128), np.float32))


@pytest.fixture(scope="module")
def fbxw_path(tmp_path_factory, random_weights):
    """A valid file; a path, so a failing example does not print 4 MB of bytes."""
    path = tmp_path_factory.mktemp("fbxw") / "m.fbxw"
    save_weights(random_weights, path)
    return path


def _load_or_reject(valid, edit, descriptor):
    path = valid.with_name("damaged.fbxw")
    path.write_bytes(edit(valid.read_bytes()))
    try:
        weights = load_weights(path, descriptor)
    except WeightFormatError:
        return
    network.validate_weights(weights, descriptor)


# offsets anywhere in the ~4 MB file, and often in the 41 bytes of the file
# header and the first entry's header
_OFFSET = st.one_of(st.integers(0, 40), st.integers(0, 2**23))


class TestWeightFuzz:
    """A valid file cut short or with one byte overwritten either loads as
    weights that fit the descriptor or raises WeightFormatError."""

    @settings(max_examples=20, deadline=None)
    @given(_OFFSET)
    def test_truncated_anywhere(self, fbxw_path, descriptor, offset):
        _load_or_reject(fbxw_path, lambda blob: blob[: offset % len(blob)], descriptor)

    @settings(max_examples=100, deadline=None)
    @given(_OFFSET, st.integers(0, 255))
    def test_byte_overwritten_anywhere(self, fbxw_path, descriptor, offset, value):
        def overwrite(blob):
            damaged = bytearray(blob)
            damaged[offset % len(blob)] = value
            return bytes(damaged)

        _load_or_reject(fbxw_path, overwrite, descriptor)
