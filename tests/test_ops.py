import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet import ops

from naive_ops import conv2d_naive, maxpool2d_naive, softmax_pairs


def t4(data):
    return ops.as_tensor(np.asarray(data, dtype=np.float32).reshape(1, 1, *np.shape(data)))


class TestConv2d:
    def test_hand_summed_window(self):
        x = t4([[1, 2], [3, 4]])
        w = np.ones((1, 1, 2, 2), np.float32)
        out = ops.conv2d(x, w, [0.0], stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(10.0)

    def test_identity_kernel(self):
        x = ops.as_tensor(np.ones((1, 1, 3, 3), np.float32))
        out = ops.conv2d(x, np.ones((1, 1, 1, 1), np.float32), [0.0])
        np.testing.assert_array_equal(out, x)

    def test_stride4_output_size(self):
        # 7x7 stride-4 same-padding front conv: 1024 -> 256
        x = np.zeros((1, 1, 1024, 1024), np.float32)
        out = ops.conv2d(x, np.zeros((1, 1, 7, 7), np.float32), [0.0], stride=4, padding=3)
        assert out.shape == (1, 1, 256, 256)

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 2, 4, 4), np.float32)
        with pytest.raises(ValueError, match="channels"):
            ops.conv2d(x, np.zeros((1, 3, 3, 3), np.float32), [0.0], padding=1)

    def test_bias_added(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        out = ops.conv2d(x, np.zeros((2, 1, 1, 1), np.float32), [1.5, -2.0])
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_matches_naive_on_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, ci, co = rng.integers(1, 3), rng.integers(1, 9), rng.integers(1, 5)
            h, w = rng.integers(3, 17), rng.integers(3, 17)
            k = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, k // 2 + 1))
            if h + 2 * p < k or w + 2 * p < k:
                continue
            x = rng.standard_normal((n, ci, h, w)).astype(np.float32)
            wt = rng.standard_normal((co, ci, k, k)).astype(np.float32)
            b = rng.standard_normal(co).astype(np.float32)
            fast = ops.conv2d(x, wt, b, stride=s, padding=p)
            slow = conv2d_naive(x, wt, b, stride=s, padding=p)
            assert fast.shape == slow.shape
            np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize(
        "n, ci, co, h, w, k, s, p",
        [
            (2, 3, 5, 19, 13, 7, 4, 3),  # Conv1-like: 7x7/s4, pad 3
            (2, 4, 3, 11, 9, 3, 1, 0),
            (2, 4, 3, 13, 8, 3, 2, 3),
            (2, 6, 4, 21, 7, 5, 2, 0),
            (2, 5, 4, 7, 6, 1, 1, 0),  # 1x1 stride 1, unpadded: no im2col
            (2, 5, 4, 9, 6, 1, 2, 0),  # 1x1 strided: banded
            (1, 3, 2, 5, 5, 1, 1, 3),  # 1x1 padded: banded
        ],
    )
    def test_bands_match_naive(self, monkeypatch, n, ci, co, h, w, k, s, p):
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        # two output rows per band: >= 3 bands, the last one partial
        assert oh >= 5 and oh % 2 == 1
        monkeypatch.setattr(ops, "IM2COL_BAND_BYTES", 2 * ci * k * k * ow * 4)
        rng = np.random.default_rng(n * 1000 + h * 10 + k)
        x = rng.standard_normal((n, ci, h, w)).astype(np.float32)
        wt = rng.standard_normal((co, ci, k, k)).astype(np.float32)
        b = rng.standard_normal(co).astype(np.float32)
        fast = ops.conv2d(x, wt, b, stride=s, padding=p)
        slow = conv2d_naive(x, wt, b, stride=s, padding=p)
        assert fast.shape == slow.shape == (n, co, oh, ow)
        np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-4)


class TestMaxPool:
    def test_hand_window(self):
        out = ops.maxpool2d(t4([[1, 2], [3, 4]]), 2, stride=1, padding=0)
        assert out[0, 0, 0, 0] == 4.0

    def test_constant_stays_constant(self):
        x = np.full((1, 2, 7, 7), 5.0, np.float32)
        out = ops.maxpool2d(x, 3, stride=2, padding=1)
        np.testing.assert_array_equal(out, np.full((1, 2, 4, 4), 5.0, np.float32))

    def test_halving_size(self):
        x = np.zeros((1, 1, 256, 256), np.float32)
        assert ops.maxpool2d(x, 3, stride=2, padding=1).shape == (1, 1, 128, 128)

    def test_padding_never_wins(self):
        # all-negative input: -inf padding must not leak into the output
        x = np.full((1, 1, 4, 4), -3.0, np.float32)
        out = ops.maxpool2d(x, 3, stride=2, padding=1)
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), -3.0, np.float32))

    def test_all_pad_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ops.maxpool2d(np.zeros((1, 1, 4, 4), np.float32), 2, stride=1, padding=2)

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, w = rng.integers(2, 12), rng.integers(2, 12)
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, k))
            if h + 2 * p < k or w + 2 * p < k:
                continue
            x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
            np.testing.assert_array_equal(
                ops.maxpool2d(x, k, s, p), maxpool2d_naive(x, k, s, p)
            )


class TestCreluMaxPool:
    """The fused pool must equal maxpool2d(crelu(x)) exactly."""

    @staticmethod
    def unfused(x, k, s, p):
        return ops.maxpool2d(ops.crelu(x), k, s, p)

    @pytest.mark.parametrize("k, s, p", [(3, 2, 1), (3, 1, 1), (2, 2, 0), (3, 3, 2), (1, 1, 0)])
    def test_matches_unfused_on_odd_sizes(self, k, s, p):
        # odd sizes make the last window overhang the padding
        rng = np.random.default_rng(k * 100 + s * 10 + p)
        for h, w in ((1, 1), (3, 5), (7, 7), (9, 4), (13, 11)):
            if h + 2 * p < k or w + 2 * p < k:
                continue
            x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
            np.testing.assert_array_equal(ops.crelu_maxpool2d(x, k, s, p), self.unfused(x, k, s, p))

    def test_zeros(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 9, 7)).astype(np.float32)
        x[rng.random(x.shape) < 0.6] = 0.0
        x[:, 1] = 0.0
        x[:, 2, ::2] = -0.0
        out = ops.crelu_maxpool2d(x, 3, 2, 1)
        np.testing.assert_array_equal(out, self.unfused(x, 3, 2, 1))
        assert not out[:, [1, 5]].any()

    def test_all_pad_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ops.crelu_maxpool2d(np.zeros((1, 1, 4, 4), np.float32), 2, stride=1, padding=2)


class TestActivations:
    def test_relu_definition(self):
        out = ops.relu(t4([[-1, 0], [2, 5]]))
        np.testing.assert_array_equal(out[0, 0], [[0, 0], [2, 5]])

    def test_relu_all_negative(self):
        assert not ops.relu(np.full((1, 2, 2, 2), -4.0, np.float32)).any()

    def test_relu_positive_identity(self):
        x = np.abs(np.random.default_rng(0).standard_normal((1, 2, 3, 3))).astype(np.float32)
        np.testing.assert_array_equal(ops.relu(x), x)

    def test_crelu_positive_value(self):
        out = ops.crelu(np.full((1, 1, 1, 1), 3.0, np.float32))
        np.testing.assert_array_equal(out.reshape(2), [3.0, 0.0])

    def test_crelu_negative_value(self):
        out = ops.crelu(np.full((1, 1, 1, 1), -2.0, np.float32))
        np.testing.assert_array_equal(out.reshape(2), [0.0, 2.0])

    def test_crelu_two_channels(self):
        x = np.array([1.0, -2.0], np.float32).reshape(1, 2, 1, 1)
        np.testing.assert_array_equal(ops.crelu(x).reshape(4), [1.0, 0.0, 0.0, 2.0])

    def test_crelu_pair_structure(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        out = ops.crelu(x)
        assert out.shape == (2, 6, 4, 5)
        assert (out >= 0).all()
        pos, neg = out[:, :3], out[:, 3:]
        nonzero_both = (pos > 0) & (neg > 0)
        assert not nonzero_both.any()
        zero_both = (pos == 0) & (neg == 0)
        np.testing.assert_array_equal(zero_both, x == 0)


class TestConcat:
    def test_widths_sum(self):
        parts = [np.zeros((1, 32, 4, 4), np.float32) for _ in range(4)]
        assert ops.concat_channels(parts).shape == (1, 128, 4, 4)

    def test_single_input_identity(self):
        x = np.random.default_rng(1).random((1, 2, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(ops.concat_channels([x]), x)

    def test_order_preserved(self):
        a = np.full((1, 1, 2, 2), 1.0, np.float32)
        b = np.full((1, 1, 2, 2), 2.0, np.float32)
        out = ops.concat_channels([a, b])
        assert (out[:, 0] == 1).all() and (out[:, 1] == 2).all()

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ValueError, match="spatial"):
            ops.concat_channels(
                [np.zeros((1, 1, 2, 2), np.float32), np.zeros((1, 1, 3, 2), np.float32)]
            )


class TestSoftmaxPairs:
    def test_symmetric_pair(self):
        out = softmax_pairs(np.zeros((1, 2, 1, 1), np.float32))
        np.testing.assert_allclose(out.reshape(2), [0.5, 0.5], atol=1e-6)

    def test_huge_logit_no_overflow(self):
        x = np.array([1000.0, 0.0], np.float32).reshape(1, 2, 1, 1)
        out = softmax_pairs(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.reshape(2), [1.0, 0.0], atol=1e-6)

    def test_closed_form(self):
        x = np.array([0.0, math.log(3.0)], np.float32).reshape(1, 2, 1, 1)
        np.testing.assert_allclose(softmax_pairs(x).reshape(2), [0.25, 0.75], atol=1e-6)

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError, match="even"):
            softmax_pairs(np.zeros((1, 3, 1, 1), np.float32))

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((2, 8, 3, 3)) * 10).astype(np.float32)
        out = softmax_pairs(x)
        sums = out.reshape(2, 4, 2, 3, 3).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        shifted = softmax_pairs(x + np.float32(7.5))
        np.testing.assert_allclose(out, shifted, atol=1e-5)


conv_cases = st.tuples(
    st.integers(1, 2),  # n
    st.integers(1, 4),  # ci
    st.integers(1, 4),  # co
    st.integers(1, 10),  # h
    st.integers(1, 10),  # w
    st.integers(1, 4),  # k
    st.integers(1, 3),  # s
    st.integers(0, 2),  # p
).filter(lambda c: c[3] + 2 * c[7] >= c[5] and c[4] + 2 * c[7] >= c[5])


@settings(max_examples=60, deadline=None)
@given(conv_cases, st.integers(0, 2**31 - 1))
def test_output_size_formula_property(case, seed):
    n, ci, co, h, w, k, s, p = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w)).astype(np.float32)
    wt = rng.standard_normal((co, ci, k, k)).astype(np.float32)
    expect_h = (h + 2 * p - k) // s + 1
    expect_w = (w + 2 * p - k) // s + 1
    out = ops.conv2d(x, wt, np.zeros(co, np.float32), stride=s, padding=p)
    assert out.shape == (n, co, expect_h, expect_w)
    if p < k:  # pooling additionally rejects windows that can sit fully in padding
        pooled = ops.maxpool2d(x, k, stride=s, padding=p)
        assert pooled.shape == (n, ci, expect_h, expect_w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_conv_naive_oracle_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
    wt = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    fast = ops.conv2d(x, wt, b, stride=2, padding=1)
    slow = conv2d_naive(x, wt, b, stride=2, padding=1)
    np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-4)


def test_operators_are_pure():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
    wt = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)
    snapshot = x.copy()
    first = ops.conv2d(x, wt, b, stride=1, padding=1)
    second = ops.conv2d(x, wt, b, stride=1, padding=1)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(x, snapshot)
    np.testing.assert_array_equal(ops.relu(x), ops.relu(x))
    np.testing.assert_array_equal(x, snapshot)
    np.testing.assert_array_equal(ops.maxpool2d(x, 3, 2, 1), ops.maxpool2d(x, 3, 2, 1))
    np.testing.assert_array_equal(softmax_pairs(x), softmax_pairs(x))
    np.testing.assert_array_equal(x, snapshot)
