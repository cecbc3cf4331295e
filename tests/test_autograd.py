import gc
import math
import weakref

import numpy as np
import pytest

from oracles import conv2d_same, conv_transpose2d_2x2
from sinoquad import autograd as ag
from sinoquad.autograd import (
    MissingGradientError,
    Parameter,
    ShapeMismatchError,
    Tensor,
    adam_step,
    avgpool2x2,
    concat_channels,
    conv2d,
    conv_transpose2d,
    conv_transpose2d_adjoint,
    gradient_check,
    mse_loss,
    relu,
)


def rand64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def ones(*shape):
    return Tensor(np.ones(shape), requires_grad=True)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConv2d:
    def test_identity_1x1(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 5, 7)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv2d(x, w, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_3x3_border(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w).data[0, 0]
        assert out[1, 1] == 9.0
        for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[r, c] == 4.0
        for r, c in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert out[r, c] == 6.0

    def test_channel_mismatch_raises(self, rng):
        x = rand64(rng, 1, 3, 4, 4)
        w = rand64(rng, 2, 4, 3, 3)
        with pytest.raises(ShapeMismatchError) as err:
            conv2d(x, w)
        assert "3" in str(err.value) and "4" in str(err.value)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            conv2d(rand64(rng, 1, 1, 4, 4), rand64(rng, 1, 1, 2, 2))

    def test_gradients_3x3(self, rng):
        x = rand64(rng, 2, 3, 5, 6)
        w = rand64(rng, 4, 3, 3, 3)
        b = rand64(rng, 4)
        err = gradient_check(lambda: mse_loss(conv2d(x, w, b), Tensor(np.zeros((2, 4, 5, 6)))), [x, w, b])
        assert err <= 1e-4

    def test_gradients_1x1(self, rng):
        x = rand64(rng, 2, 3, 4, 4)
        w = rand64(rng, 2, 3, 1, 1)
        b = rand64(rng, 2)
        err = gradient_check(lambda: mse_loss(conv2d(x, w, b), Tensor(np.zeros((2, 2, 4, 4)))), [x, w, b])
        assert err <= 1e-4

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_loop_oracle(self, rng, k, with_bias):
        x = rng.standard_normal((2, 3, 6, 7))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4) if with_bias else None
        got = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b)).data
        ref = conv2d_same(x, w, b)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # (B, C_in, C_out, H, W, k): single channels, one image, one-pixel rows and columns
    EDGE_SHAPES = [
        (2, 1, 3, 4, 5, 1), (2, 1, 3, 4, 5, 3), (2, 3, 1, 4, 5, 1), (2, 3, 1, 4, 5, 3),
        (1, 2, 3, 4, 5, 3), (2, 2, 3, 1, 6, 3), (2, 2, 3, 6, 1, 3), (1, 1, 1, 1, 1, 3),
        (2, 2, 2, 3, 2, 5),
    ]

    @pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda s: "b{}c{}o{}h{}w{}k{}".format(*s))
    @pytest.mark.parametrize("tile_bytes", [None, 512], ids=["one-tile", "many-tiles"])
    def test_edge_shapes_match_oracle_and_gradients(self, rng, monkeypatch, shape, tile_bytes):
        if tile_bytes is not None:
            monkeypatch.setattr(ag, "_TILE_BYTES", tile_bytes)
        b, c_in, c_out, h, wd, k = shape
        x, w, bias = rand64(rng, b, c_in, h, wd), rand64(rng, c_out, c_in, k, k), rand64(rng, c_out)
        ref = conv2d_same(x.data, w.data, bias.data)
        got = conv2d(x, w, bias).data
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        target = Tensor(np.zeros(ref.shape))
        assert gradient_check(lambda: mse_loss(conv2d(x, w, bias), target), [x, w, bias]) <= 1e-4

    @pytest.mark.parametrize("view", ["channel-slice", "transposed"])
    def test_non_contiguous_input(self, rng, view):
        full = rng.standard_normal((2, 4, 5, 6))
        data = full[:, 1:3] if view == "channel-slice" else full[:, :2].transpose(0, 1, 3, 2)
        assert not data.flags.c_contiguous
        w = rng.standard_normal((3, 2, 3, 3))
        results = []
        for arr in (data, np.ascontiguousarray(data)):
            x, wt = Tensor(arr, requires_grad=True), Tensor(w.copy(), requires_grad=True)
            out = conv2d(x, wt)
            mse_loss(out, Tensor(np.zeros(out.shape))).backward()
            results.append((out.data, x.grad, wt.grad))
        ref = conv2d_same(np.ascontiguousarray(data), w)
        assert np.abs(results[0][0] - ref).max() <= 1e-12 * np.abs(ref).max()
        for got, want in zip(results[0], results[1]):
            np.testing.assert_array_equal(got, want)

    def test_float32_within_1e5_of_float64(self, rng):
        x = rng.standard_normal((2, 8, 9, 17)).astype(np.float32)
        w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        g = rng.standard_normal((2, 8, 9, 17)).astype(np.float32)
        results = {}
        for dtype in (np.float32, np.float64):
            xt = Tensor(x.astype(dtype), requires_grad=True)
            wt = Tensor(w.astype(dtype), requires_grad=True)
            out = conv2d(xt, wt)
            out.backward(g.astype(dtype))
            assert out.dtype == xt.grad.dtype == wt.grad.dtype == dtype
            results[dtype] = (out.data, xt.grad, wt.grad)
        for lo, hi in zip(results[np.float32], results[np.float64]):
            assert np.abs(lo - hi).max() <= 1e-5 * np.abs(hi).max()

    def test_inputs_not_mutated(self, rng):
        x = rand64(rng, 1, 2, 4, 4)
        w = rand64(rng, 3, 2, 3, 3)
        xc, wc = x.data.copy(), w.data.copy()
        conv2d(x, w)
        np.testing.assert_array_equal(x.data, xc)
        np.testing.assert_array_equal(w.data, wc)


class TestConv2dFusedRelu:
    SPECIAL = [np.nan, -0.0, 0.0, np.inf, -np.inf]

    @staticmethod
    def both_ways(x, w, b, seed):
        """Output and gradients of x, w and b for the fused op, then for relu(conv2d)."""
        results = []
        for fused in (True, False):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b) if a is not None]
            xt, wt, bt = leaves + [None] * (3 - len(leaves))
            out = conv2d(xt, wt, bt, relu=True) if fused else relu(conv2d(xt, wt, bt))
            out.backward(seed)
            results.append([out.data] + [t.grad for t in leaves])
        return results

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("c_in,k", [(3, 3), (1, 1)], ids=["3x3", "1x1-identity"])
    def test_bits_match_relu_of_conv(self, rng, dtype, with_bias, c_in, k):
        x = rng.standard_normal((2, c_in, 5, 7)).astype(dtype)
        x[0, :, 1, 1:6] = self.SPECIAL
        w = rng.standard_normal((4, c_in, k, k)).astype(dtype)
        if k == 1:
            w[0] = 1  # channel 0's pre-activations are x itself: NaN, -0.0, 0.0, +-inf
        b = rng.standard_normal(4).astype(dtype) if with_bias else None
        seed = rng.standard_normal((2, 4, 5, 7)).astype(dtype)
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf make the NaNs under test
            fused, unfused = self.both_ways(x, w, b, seed)
            if k == 1 and not with_bias:
                pre = conv2d(Tensor(x), Tensor(w)).data[0, 0, 1, 1:6]
                assert pre.tobytes() == np.array(self.SPECIAL, dtype).tobytes()
        assert len(fused) == len(unfused) == 3 + with_bias
        for got, want in zip(fused, unfused):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_gradients(self, rng):
        x = rand64(rng, 2, 2, 5, 6)
        w = rand64(rng, 3, 2, 3, 3)
        b = rand64(rng, 3)
        target = Tensor(np.zeros((2, 3, 5, 6)))
        err = gradient_check(lambda: mse_loss(conv2d(x, w, b, relu=True), target), [x, w, b])
        assert err <= 1e-4

    def test_second_backward_through_a_fused_node_raises(self, rng):
        x = rand64(rng, 1, 2, 4, 4)
        w = rand64(rng, 3, 2, 3, 3)
        shared = conv2d(x, w, relu=True)
        loss = mse_loss(shared, Tensor(np.zeros(shared.shape)))
        again = mse_loss(shared, Tensor(np.ones(shared.shape)))
        loss.backward()
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            again.backward()


class TestConvTranspose2d:
    def test_single_pixel_stride2(self):
        x = Tensor(np.ones((1, 1, 1, 1)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        b = Tensor(np.zeros(1))
        out = conv_transpose2d(x, w, b, stride=(2, 2))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))

    @pytest.mark.parametrize("stride,expected", [((2, 2), (1, 3, 4, 6)), ((2, 1), (1, 3, 4, 3)), ((1, 2), (1, 3, 2, 6)), ((1, 1), (1, 3, 2, 3))])
    def test_output_shape(self, rng, stride, expected):
        x = rand64(rng, 1, 2, 2, 3)
        w = rand64(rng, 2, 3, 2, 2)
        out = conv_transpose2d(x, w, stride=stride)
        assert out.shape == expected

    @pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 2), (1, 1)])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_loop_oracle(self, rng, stride, with_bias):
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, 2, 2))
        b = rng.standard_normal(2) if with_bias else None
        got = conv_transpose2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), stride=stride).data
        ref = conv_transpose2d_2x2(x, w, b, stride)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_bad_stride_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            conv_transpose2d(rand64(rng, 1, 1, 2, 2), rand64(rng, 1, 1, 2, 2), stride=(3, 1))

    @pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 2), (1, 1)])
    def test_gradients(self, rng, stride):
        x = rand64(rng, 2, 2, 3, 4)
        w = rand64(rng, 2, 3, 2, 2)
        b = rand64(rng, 3)
        sh, sw = stride
        tgt = Tensor(np.zeros((2, 3, 3 * sh, 4 * sw)))
        err = gradient_check(lambda: mse_loss(conv_transpose2d(x, w, b, stride=stride), tgt), [x, w, b])
        assert err <= 1e-4

    @pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 2), (1, 1)])
    def test_adjointness(self, rng, stride):
        # <convT(x), y> must equal <x, adjoint(y)> to float64 round-off
        sh, sw = stride
        for _ in range(25):
            x = rng.standard_normal((1, 3, 4, 5))
            w = rng.standard_normal((3, 2, 2, 2))
            y = rng.standard_normal((1, 2, 4 * sh, 5 * sw))
            fx = conv_transpose2d(Tensor(x), Tensor(w), stride=stride).data
            aty = conv_transpose2d_adjoint(y, w, stride)
            lhs = float(np.sum(fx * y))
            rhs = float(np.sum(x * aty))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    STRIDES = [(2, 2), (2, 1), (1, 2), (1, 1)]
    # (B, C_in, C_out, H, W): one image, single channels, one-pixel rows and columns
    EDGE_SHAPES = [
        (1, 2, 3, 3, 4), (2, 1, 3, 3, 4), (2, 3, 1, 3, 4), (2, 2, 3, 1, 5), (2, 2, 3, 4, 1),
        (1, 1, 1, 1, 1),
    ]
    # the network's six transposed convs at B=8, base 8, 32x128 in
    NETWORK_SHAPES = [
        ((8, 128, 64, 2, 8), (2, 2)), ((8, 64, 32, 4, 16), (2, 2)), ((8, 32, 16, 8, 32), (2, 2)),
        ((8, 16, 8, 16, 64), (2, 2)), ((8, 8, 8, 32, 128), (2, 1)), ((8, 8, 8, 64, 128), (2, 1)),
    ]

    @pytest.mark.parametrize("stride", STRIDES, ids=lambda s: "s{}{}".format(*s))
    @pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda s: "b{}c{}o{}h{}w{}".format(*s))
    def test_edge_shapes_match_oracle_and_gradients(self, rng, shape, stride):
        b, c_in, c_out, h, wd = shape
        x, w, bias = rand64(rng, b, c_in, h, wd), rand64(rng, c_in, c_out, 2, 2), rand64(rng, c_out)
        ref = conv_transpose2d_2x2(x.data, w.data, bias.data, stride)
        got = conv_transpose2d(x, w, bias, stride=stride).data
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        target = Tensor(np.zeros(ref.shape))
        err = gradient_check(lambda: mse_loss(conv_transpose2d(x, w, bias, stride=stride), target), [x, w, bias])
        assert err <= 1e-4

    @pytest.mark.parametrize("shape,stride", NETWORK_SHAPES, ids=lambda v: "x".join(map(str, v)))
    def test_network_shapes_match_oracle(self, rng, shape, stride):
        b, c_in, c_out, h, wd = shape
        x, w, bias = rng.standard_normal((b, c_in, h, wd)), rng.standard_normal((c_in, c_out, 2, 2)), rng.standard_normal(c_out)
        ref = conv_transpose2d_2x2(x, w, bias, stride)
        got = conv_transpose2d(Tensor(x), Tensor(w), Tensor(bias), stride=stride).data
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("stride", STRIDES, ids=lambda s: "s{}{}".format(*s))
    @pytest.mark.parametrize("view", ["channel-slice", "transposed"])
    def test_non_contiguous_input(self, rng, view, stride):
        full = rng.standard_normal((2, 4, 5, 6))
        data = full[:, 1:3] if view == "channel-slice" else full[:, :2].transpose(0, 1, 3, 2)
        assert not data.flags.c_contiguous
        w, bias = rng.standard_normal((2, 3, 2, 2)), rng.standard_normal(3)
        results = []
        for arr in (data, np.ascontiguousarray(data)):
            x = Tensor(arr, requires_grad=True)
            wt, bt = Tensor(w.copy(), requires_grad=True), Tensor(bias.copy(), requires_grad=True)
            out = conv_transpose2d(x, wt, bt, stride=stride)
            mse_loss(out, Tensor(np.zeros(out.shape))).backward()
            results.append((out.data, x.grad, wt.grad, bt.grad))
        ref = conv_transpose2d_2x2(np.ascontiguousarray(data), w, bias, stride)
        assert np.abs(results[0][0] - ref).max() <= 1e-12 * np.abs(ref).max()
        for got, want in zip(results[0], results[1]):
            np.testing.assert_array_equal(got, want)


class TestPoolActConcat:
    def test_avgpool_values(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = avgpool2x2(x).data[0, 0]
        np.testing.assert_array_equal(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_then_nn_upsample_preserves_mean_exactly(self, rng):
        # dyadic integer values make every 2x2 mean exact in float64
        x = rng.integers(-8, 9, size=(2, 3, 8, 10)).astype(np.float64)
        pooled = avgpool2x2(Tensor(x)).data
        up = np.repeat(np.repeat(pooled, 2, axis=2), 2, axis=3)
        assert math.fsum(up.ravel()) == math.fsum(x.ravel())

    def test_avgpool_odd_dims_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            avgpool2x2(rand64(rng, 1, 1, 3, 4))

    def test_avgpool_gradient(self, rng):
        x = rand64(rng, 1, 2, 4, 6)
        err = gradient_check(lambda: mse_loss(avgpool2x2(x), Tensor(np.zeros((1, 2, 2, 3)))), [x])
        assert err <= 1e-4

    def test_relu_values_and_subgradient_at_zero(self):
        x = Tensor(np.array([[-1.0, 0.0, 2.0]]), requires_grad=True)
        out = relu(x)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 8, 32, 128), (2, 3, 6, 10), (2, 3, 4, 2), (1, 1, 2, 2)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_avgpool_bits_match_numpy_mean(self, rng, shape, dtype):
        x = rng.standard_normal(shape).astype(dtype)
        b, c, h, w = shape
        want = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        got = avgpool2x2(Tensor(x)).data
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bits_match_where(self, rng, dtype):
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf], dtype=dtype)
        x = np.concatenate([special, rng.standard_normal(1001).astype(dtype), special])
        got = relu(Tensor(x)).data
        assert got.tobytes() == np.where(x > 0, x, dtype(0)).tobytes()

    def test_relu_gradient_is_zero_at_nan_and_signed_zeros(self):
        x = Tensor(np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 3.0]), requires_grad=True)
        relu(x).backward(np.ones(6))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 0.0, 1.0])

    def test_relu_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 7)) + 0.3, requires_grad=True)
        err = gradient_check(lambda: mse_loss(relu(x), Tensor(np.zeros((3, 7)))), [x])
        assert err <= 1e-4

    def test_concat_and_gradient(self, rng):
        a = rand64(rng, 2, 2, 3, 3)
        b = rand64(rng, 2, 3, 3, 3)
        out = concat_channels(a, b)
        assert out.shape == (2, 5, 3, 3)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)
        err = gradient_check(lambda: mse_loss(concat_channels(a, b), Tensor(np.zeros((2, 5, 3, 3)))), [a, b])
        assert err <= 1e-4

    def test_concat_spatial_mismatch_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            concat_channels(rand64(rng, 1, 1, 3, 3), rand64(rng, 1, 1, 4, 3))


class TestLossAndGraph:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        target = Tensor(np.array([1.0, 2.0, 6.0]))
        out = mse_loss(pred, target)
        assert out.data == pytest.approx(3.0)

    def test_mse_gradient(self, rng):
        pred = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        target = Tensor(rng.standard_normal((4, 5)))
        err = gradient_check(lambda: mse_loss(pred, target), [pred])
        assert err <= 1e-4

    def test_mse_gradient_reaches_a_target_that_requires_grad(self, rng):
        pred = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        target = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        err = gradient_check(lambda: mse_loss(pred, target), [pred, target])
        assert err <= 1e-4

    def test_grad_accumulates_over_reuse(self, rng):
        # same tensor feeding two branches must receive the summed gradient
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        out = concat_channels(conv2d(x, w), relu(x))
        loss = mse_loss(out, Tensor(np.zeros(out.shape)))
        loss.backward()
        err = gradient_check(
            lambda: mse_loss(concat_channels(conv2d(x, w), relu(x)), Tensor(np.zeros(out.shape))),
            [x, w],
        )
        assert err <= 1e-4

    def test_backward_frees_the_graph_it_consumed(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)

        def build():
            # only the loss leaves this frame
            conv = conv2d(x, w)
            act = relu(conv)
            loss = mse_loss(act, Tensor(np.zeros(act.shape)))
            return loss, [weakref.ref(conv.data), weakref.ref(act.data)]

        loss, refs = build()
        loss.backward()
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert loss.grad is None and loss._parents == ()
        assert x.grad is not None and w.grad is not None  # leaves keep theirs

    @pytest.mark.parametrize("second", ["other loss on a shared relu", "same loss"])
    def test_backward_through_a_consumed_graph_raises(self, rng, second):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        shared = relu(x)
        loss = mse_loss(shared, Tensor(np.zeros((2, 3))))
        again = loss if second == "same loss" else mse_loss(shared, Tensor(np.ones((2, 3))))
        loss.backward()
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            again.backward()

    def test_no_grad_blocks_graph(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        with ag.no_grad():
            out = conv2d(x, w)
        assert not out.requires_grad
        assert out._backward is None

    def test_backward_on_nonscalar_requires_seed(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            relu(x).backward()

    @pytest.mark.parametrize("call,error,hint", [
        (lambda: relu(np.ones(3)), TypeError, "must be a Tensor"),
        (lambda: conv2d(ones(1, 4, 4), ones(1, 1, 3, 3)), ShapeMismatchError, "must be 4-D"),
        (lambda: conv2d(ones(1, 1, 4, 4), ones(2, 1, 3, 3), ones(3)), ShapeMismatchError,
         "bias shape"),
        (lambda: conv_transpose2d(ones(1, 1, 2, 2), ones(1, 1, 2, 2), stride=2),
         ShapeMismatchError, "must be a pair"),
        (lambda: conv_transpose2d(ones(1, 1, 2, 2), ones(1, 1, 3, 3)), ShapeMismatchError,
         r"\[C_in,C_out,2,2\]"),
        (lambda: conv_transpose2d(ones(1, 2, 2, 2), ones(3, 1, 2, 2)), ShapeMismatchError,
         "channel mismatch"),
        (lambda: mse_loss(ones(2, 3), ones(3, 2)), ShapeMismatchError, "shape mismatch"),
        (lambda: relu(ones(2, 3)).backward(np.ones((3, 2))), ShapeMismatchError,
         "seed gradient shape"),
        (lambda: Tensor(np.ones(1)).backward(), RuntimeError, "does not require grad"),
    ], ids=["non-tensor", "not-4d", "bias-shape", "stride-not-a-pair", "convt-weight-shape",
            "convt-channels", "mse-shapes", "seed-gradient-shape", "no-grad"])
    def test_malformed_operands_are_refused(self, call, error, hint):
        with pytest.raises(error, match=hint):
            call()


class TestMixedDtypes:
    OPS = {
        "conv2d": (conv2d, (2, 3, 3, 3)),
        "conv_transpose2d": (conv_transpose2d, (3, 2, 2, 2)),
    }
    F32, F64 = np.float32, np.float64

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("dtypes", [(F32, F64, F32), (F64, F32, F32), (F32, F32, F64), (F64, F64, F32)],
                             ids=lambda d: "-".join(np.dtype(t).name for t in d))
    def test_output_and_gradient_dtypes(self, rng, op, dtypes):
        fn, w_shape = self.OPS[op]
        x_dtype, w_dtype, b_dtype = dtypes
        x = Tensor(rng.standard_normal((2, 3, 4, 6)).astype(x_dtype), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape).astype(w_dtype), requires_grad=True)
        b = Tensor(rng.standard_normal(2).astype(b_dtype), requires_grad=True)
        out = fn(x, w, b)
        assert out.dtype == np.result_type(x_dtype, w_dtype)
        mse_loss(out, Tensor(np.zeros(out.shape, out.dtype))).backward()
        for t in (x, w, b):
            assert t.grad.dtype == t.dtype

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_])
    def test_non_float_input_becomes_float32(self, dtype):
        t = Tensor(np.array([0, 1, 1], dtype=dtype))
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t.data, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_float32_parameters_stay_float32_under_float64_input(self, rng, op):
        fn, w_shape = self.OPS[op]
        w = Parameter("w", rng.standard_normal(w_shape).astype(np.float32))
        b = Parameter("b", np.zeros(2, dtype=np.float32))
        x = Tensor(rng.standard_normal((2, 3, 4, 6)))
        for _ in range(2):
            out = fn(x, w, b)
            mse_loss(out, Tensor(np.ones(out.shape))).backward()
            adam_step([w, b])
        for p in (w, b):
            assert p.data.dtype == p.m.dtype == p.v.dtype == np.float32


class TestAdam:
    def test_first_step_magnitude(self):
        # theta0 = 0, g = 0.5 -> first update is -lr within 1e-4 relative
        p = Parameter("w", np.zeros(1, dtype=np.float64))
        p.grad = np.array([0.5])
        adam_step([p], lr=1e-3)
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-4)
        assert p.grad is None
        assert p.step == 1

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Parameter("w", np.array([1.5, -2.0]))
        p.grad = np.zeros(2, dtype=np.float32)
        adam_step([p])
        np.testing.assert_array_equal(p.data, np.array([1.5, -2.0], dtype=np.float32))

    def test_parameter_is_a_leaf_tensor(self):
        p = Parameter("w", np.ones((2, 3), dtype=np.float32))
        assert isinstance(p, Tensor) and p.requires_grad
        mse_loss(p, Tensor(np.zeros((2, 3), dtype=np.float32))).backward()
        np.testing.assert_allclose(p.grad, np.full((2, 3), 1 / 3), rtol=1e-6)

    def test_missing_gradient_names_parameter(self):
        p = Parameter("down1.conv1.w", np.zeros(3))
        with pytest.raises(MissingGradientError) as err:
            adam_step([p])
        assert "down1.conv1.w" in str(err.value)

    def test_ten_steps_bit_identical(self):
        def run():
            rng = np.random.default_rng(7)
            p = Parameter("w", rng.standard_normal(8).astype(np.float32))
            for t in range(10):
                g = np.sin(np.arange(8, dtype=np.float32) + t) * p.data
                p.grad = g
                adam_step([p], lr=1e-3)
            return p.data.tobytes()

        assert run() == run()

    def test_descends_on_quadratic(self):
        p = Parameter("w", np.array([4.0, -3.0]))
        for _ in range(200):
            p.grad = 2.0 * p.data
            adam_step([p], lr=0.05)
        assert np.abs(p.data).max() < 0.5
