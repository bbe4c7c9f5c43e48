import functools
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import f64_setup, nearest_mean_accuracy
from test_detector import fresh_python
from oodnet import (Backbone, Centers, TrainConfig, embed, extract_features,
                    grad_check, softmax_xent, synth_blobs, train, train_epoch)
from oodnet.data import LabeledDataset, MiniBatch, normalize
from oodnet.errors import (EmptyDataset, LabelOutOfRange, NonFiniteLoss,
                           ShapeMismatch)
from oodnet import nn
from oodnet.head import HeadTrainConfig, OodHead, train_head_on_features
from oodnet.nn import (BLOCK, SGD, Conv2D, Dense, MaxPool2x2, ReLU,
                       _im2col, _map_rows, _patch_index)


# --- independent explicit-loop reference for the forward pass ---

def ref_conv(x, W, b, pad):
    m, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho, Wo = H + 2 * pad - k + 1, Wd + 2 * pad - k + 1
    out = np.zeros((m, O, Ho, Wo))
    for s in range(m):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    acc = b[o]
                    for c in range(C):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[s, c, i + u, j + v] * W[o, c, u, v]
                    out[s, o, i, j] = acc
    return out


def ref_conv_backward(x, W, grad, pad):
    """(dW, db, dx) of a stride-1 convolution, one output pixel at a time."""
    k = W.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dW, dxp = np.zeros(W.shape), np.zeros(xp.shape)
    m, O, Ho, Wo = grad.shape
    for s in range(m):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    dW[o] += grad[s, o, i, j] * xp[s, :, i:i + k, j:j + k]
                    dxp[s, :, i:i + k, j:j + k] += grad[s, o, i, j] * W[o]
    db = grad.sum(axis=(0, 2, 3))
    return dW, db, dxp[:, :, pad:xp.shape[2] - pad, pad:xp.shape[3] - pad]


def col2im_backward(layer, grad, x):
    """(dx, dW, db) of Conv2D.backward as it was computed with the whole
    (C*k*k, Ho*Wo*m) patch-gradient matrix, for a bit-level reference."""
    k, p = layer.kernel, layer.pad
    m, O, Ho, Wo = grad.shape
    w = layer.W.reshape(O, -1)
    dW = np.zeros_like(w)
    for s in range(0, m, BLOCK):
        g = grad[s:s + BLOCK].transpose(0, 2, 3, 1).reshape(-1, O)
        dW += g.T @ _im2col(x[s:s + BLOCK], k)
    _, C, H, W = x.shape
    dcols = (w.T @ grad.transpose(1, 2, 3, 0).reshape(O, -1)
             ).reshape(C, k, k, Ho, Wo, m)
    dx = np.zeros((C, H, W, m), dtype=grad.dtype)
    for u in range(k):
        for v in range(k):
            dx[:, u:u + Ho, v:v + Wo] += dcols[:, u, v]
    dx = dx[:, p:H - p, p:W - p].transpose(3, 0, 1, 2)
    return dx, dW.reshape(layer.W.shape), grad.sum(axis=(0, 2, 3))


def ref_pool(x):
    m, C, H, W = x.shape
    out = np.zeros((m, C, H // 2, W // 2))
    for s in range(m):
        for c in range(C):
            for i in range(H // 2):
                for j in range(W // 2):
                    out[s, c, i, j] = x[s, c, 2 * i:2 * i + 2,
                                        2 * j:2 * j + 2].max()
    return out


def ref_forward(model, images):
    h = images.astype(np.float64)[:, None]
    conv1, _, _, conv2 = model.trunk[0], None, None, model.trunk[3]
    h = ref_conv(h, conv1.W.astype(np.float64), conv1.b.astype(np.float64), 2)
    h = np.maximum(h, 0)
    h = ref_pool(h)
    h = ref_conv(h, conv2.W.astype(np.float64), conv2.b.astype(np.float64), 0)
    h = np.maximum(h, 0)
    h = ref_pool(h)
    h = h.reshape(len(h), -1)
    fc1, fc2 = model.trunk[7], model.trunk[9]
    h = np.maximum(h @ fc1.W + fc1.b, 0)
    features = np.maximum(h @ fc2.W + fc2.b, 0)
    logits = features @ model.classifier.W + model.classifier.b
    return features, logits


class TestForward:
    def test_zero_weights_zero_logits(self):
        model = Backbone(3, input_side=12, seed=0)
        for p in model.parameters():
            p[...] = 0
        _, logits = model.forward(np.random.default_rng(0)
                                  .random((2, 12, 12)).astype(np.float32))
        np.testing.assert_array_equal(logits, 0)

    def test_identity_dense_feature_equals_input(self):
        # degenerate check on the dense layer alone
        rng = np.random.default_rng(0)
        layer = Dense(5, 5, rng, np.float64)
        layer.W[...] = np.eye(5)
        layer.b[...] = 0
        x = rng.random((3, 5))
        np.testing.assert_allclose(layer.forward(x)[0], x)

    def test_matches_explicit_loop_reference(self):
        model = Backbone(3, input_side=12, seed=0).astype(np.float64)
        images = np.random.default_rng(1).random((2, 12, 12))
        feats, logits = model.forward(images)
        ref_feats, ref_logits = ref_forward(model, images)
        np.testing.assert_allclose(feats, ref_feats, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-10, atol=1e-12)

    def test_shape_mismatch(self):
        model = Backbone(3, input_side=12, seed=0)
        with pytest.raises(ShapeMismatch):
            model.forward(np.zeros((2, 10, 10), dtype=np.float32))

    @pytest.mark.parametrize("side", range(12, 31, 2))
    def test_input_side_forwards_or_is_rejected(self, side):
        try:
            model = Backbone(3, input_side=side, seed=0)
        except ShapeMismatch:
            assert side % 4
            return
        feats, logits = model.forward(np.zeros((2, side, side), dtype=np.float32))
        assert feats.shape == (2, 84) and logits.shape == (2, 3)

    def test_one_class_is_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Backbone(1, input_side=12, seed=0)

    @pytest.mark.parametrize("side,d,n", [(12, 84, 3), (16, 5, 2), (28, 84, 10)])
    def test_spec_of_inverts_the_layer_sizes(self, side, d, n):
        model = Backbone(n, input_side=side, feature_dim=d, seed=0)
        assert Backbone.spec_of(model.state()) == model.spec()

    def test_spec_of_without_fc1_raises_shape_mismatch(self):
        arrays = Backbone(3, input_side=12, seed=0).state()
        del arrays["fc1.W"]
        with pytest.raises(ShapeMismatch):
            Backbone.spec_of(arrays)

    def test_pure_function_of_inputs(self):
        model = Backbone(3, input_side=12, seed=0)
        images = np.random.default_rng(2).random((3, 12, 12)).astype(np.float32)
        a = model.forward(images)
        b = model.forward(images)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros((1, 10)), np.array([3]))
        assert loss == pytest.approx(math.log(10), rel=1e-9)

    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, _ = softmax_xent(logits, np.array([0]))
        assert loss < 1e-12

    def test_two_class_reference_value(self):
        loss, _ = softmax_xent(np.array([[1.0, 2.0]]), np.array([0]))
        # -ln(e / (e + e^2)) = ln(1 + e)
        assert loss == pytest.approx(1.3132616875182228, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 7)) * 30
        _, grad = softmax_xent(logits, np.zeros(5, dtype=int))
        probs = grad.copy()
        probs[:, 0] += 1
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_large_logits_stable(self):
        loss, grad = softmax_xent(np.array([[1e4, -1e4]]), np.array([0]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            softmax_xent(np.zeros((1, 3)), np.array([3]))


class TestTraining:
    def test_blobs_two_classes_high_accuracy(self):
        ds = synth_blobs(2, 60, side=12, separation=4.0, seed=0)
        assert nearest_mean_accuracy(ds) == 1.0  # separable by construction
        model = Backbone(2, input_side=12, seed=0)
        centers = Centers(2, model.feature_dim, seed=0)
        hist = train(model, centers, ds,
                     TrainConfig(epochs=5, batch_size=32, lam=0.0, seed=0))
        assert hist[-1].accuracy >= 0.98

    def test_zero_learning_rate_no_change(self, blob_ds, small_model):
        centers = Centers(3, small_model.feature_dim, seed=0)
        before = [p.copy() for p in small_model.parameters()]
        train_epoch(small_model, centers, blob_ds,
                    TrainConfig(learning_rate=0.0, epochs=1, seed=0))
        for p, q in zip(small_model.parameters(), before):
            np.testing.assert_array_equal(p, q)

    def test_an_empty_dataset_raises(self, blob_ds, small_model):
        empty = type(blob_ds)(blob_ds.images[:0], blob_ds.labels[:0])
        with pytest.raises(EmptyDataset):
            train_epoch(small_model, Centers(3, small_model.feature_dim),
                        empty, TrainConfig(epochs=1, seed=0))

    def test_same_seed_identical_trace(self, blob_ds):
        traces = []
        for _ in range(2):
            model = Backbone(3, input_side=12, seed=4)
            centers = Centers(3, model.feature_dim, seed=4)
            hist = train(model, centers, blob_ds,
                         TrainConfig(epochs=3, batch_size=16, lam=0.5, seed=4))
            traces.append([h.loss for h in hist])
        assert traces[0] == traces[1]

    def test_a_batch_64_step_holds_under_6_mb(self):
        # between the step's peak with (7.8 MB) and without (4.65 MB)
        # conv2's whole 150 x 6400 patch-gradient matrix
        ds = synth_blobs(10, 7, side=28, separation=6.0, seed=0)
        ds = LabeledDataset(ds.images[:64], ds.labels[:64], dict(ds.class_map))
        model = Backbone(10, input_side=28, seed=0)
        centers = Centers(10, model.feature_dim, seed=0)
        cfg = TrainConfig(lam=1.0)
        train_epoch(model, centers, ds, cfg)   # build the cached patch indexes
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_epoch(model, centers, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_full_batch_descent_non_increasing(self):
        ds = synth_blobs(2, 8, side=12, separation=3.0, seed=3)
        model = Backbone(2, input_side=12, seed=3).astype(np.float64)
        opt = SGD(model.parameters(), learning_rate=1e-3, momentum=0.0)
        losses = []
        for _ in range(10):
            tape = []
            _, logits = model.forward(ds.images.astype(np.float64), tape)
            loss, dlogits = softmax_xent(logits, ds.labels)
            losses.append(loss)
            opt.step(model.backward(dlogits / len(ds), None, tape))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_an_sgd_step_with_a_gradient_missing_raises():
    params = [np.zeros(3), np.zeros(2)]
    with pytest.raises(ValueError):
        SGD(params, learning_rate=0.1).step([np.ones(3)])


@pytest.mark.parametrize("n_grads", [1, 3])
def test_an_sgd_step_with_the_wrong_gradient_count_moves_nothing(n_grads):
    params = [np.full(3, 0.5), np.full(2, -0.25)]
    opt = SGD(params, learning_rate=0.1)
    opt.step([np.ones(3), np.ones(2)])
    before = [a.copy() for a in params + opt.velocity]
    with pytest.raises(ValueError):
        opt.step([np.ones(3), np.ones(2), np.ones(2)][:n_grads])
    for got, want in zip(params + opt.velocity, before, strict=True):
        assert got.tobytes() == want.tobytes()


class TestGradCheck:
    def test_healthy_build(self):
        model, centers, batch = f64_setup()
        err = grad_check(model, batch, eps=1e-5, n_samples=150)
        assert err <= 1e-6

    def test_injected_fault_detected(self):
        model, centers, batch = f64_setup()
        # scale the analytic gradient by 1.1 via a wrapped backward
        original = model.backward

        def tainted(dlogits, dfeatures, tape):
            grads = original(dlogits, dfeatures, tape)
            for g in grads:
                g *= 1.1
            return grads

        model.backward = tainted
        err = grad_check(model, batch, eps=1e-5, n_samples=100)
        assert err > 1e-2

    def test_duplicated_batch_passes(self):
        model, centers, batch = f64_setup(batch=1)
        dup = MiniBatch(np.repeat(batch.images, 3, axis=0),
                        np.repeat(batch.labels, 3))
        err = grad_check(model, dup, eps=1e-5, n_samples=100)
        assert err <= 1e-6


class TestConv2D:
    @pytest.mark.parametrize("pad", [0, 2])
    def test_matches_explicit_loop_reference(self, pad):
        rng = np.random.default_rng(7)
        layer = Conv2D(2, 3, 5, pad, rng, np.float64)
        layer.b[...] = rng.normal(size=3)
        x = rng.normal(size=(BLOCK + 3, 2, 8, 8))
        out, saved = layer.forward(x)
        np.testing.assert_allclose(out, ref_conv(x, layer.W, layer.b, pad),
                                   rtol=1e-10, atol=1e-12)
        grad = rng.normal(size=out.shape)
        dx, (dW, db) = layer.backward(grad, saved)
        ref_dW, ref_db, ref_dx = ref_conv_backward(x, layer.W, grad, pad)
        for got, want in ((dW, ref_dW), (db, ref_db), (dx, ref_dx)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

        first = Conv2D(2, 3, 5, pad, np.random.default_rng(7), np.float64,
                       input_grad=False)
        first.W[...], first.b[...] = layer.W, layer.b
        _, saved = first.forward(x)
        first_dx, (first_dW, first_db) = first.backward(grad, saved)
        assert first_dx is None
        np.testing.assert_array_equal(first_dW, dW)
        np.testing.assert_array_equal(first_db, db)

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 32, 64])
    @pytest.mark.parametrize("side", [6, 14])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_the_full_col2im_matrix(self, dtype, side, m):
        # conv2's shape; float32, the training dtype, to the bit
        rng = np.random.default_rng(side * 100 + m)
        layer = Conv2D(6, 16, 5, 0, rng, dtype)
        x = rng.standard_normal((m, 6, side, side)).astype(dtype)
        out, saved = layer.forward(x)
        grad = rng.standard_normal(out.shape).astype(dtype)
        dx, (dW, db) = layer.backward(grad, saved)
        assert dx.shape == x.shape and dx.flags.c_contiguous
        for got, want in zip((dx, dW, db), col2im_backward(layer, grad, saved)):
            assert got.dtype == dtype
            if dtype == np.float32:
                np.testing.assert_array_equal(got, want)
            else:   # OpenBLAS picks a float64 kernel by the row count
                np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("b", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("C,H", [(1, 32), (6, 14), (2, 8), (6, 6)])
    def test_im2col_matches_window_reference(self, C, H, b):
        # the six-axis window copy the gather replaced
        x = np.random.default_rng(C * H + b).random((b, C, H, H),
                                                    dtype=np.float32)
        win = sliding_window_view(x, (5, 5), axis=(2, 3))
        Ho = H - 4
        want = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * Ho * Ho, C * 25)
        got = _im2col(x, 5)
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("m", [1, 17])
    def test_saved_is_the_zero_padded_input(self, m):
        layer = Conv2D(1, 6, 5, 2, np.random.default_rng(3), np.float32)
        x = np.random.default_rng(m).random((m, 1, 28, 28), dtype=np.float32)
        _, saved = layer.forward(x)
        want = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)))
        assert saved.dtype == want.dtype
        np.testing.assert_array_equal(saved, want)

    def test_patch_index_is_read_only(self):
        index = _patch_index(6, 14, 14, 5)
        with pytest.raises(ValueError):
            index[0, 0] = 0
        assert _patch_index(6, 14, 14, 5) is index


class TestMaxPool:
    def test_ties_match_reference_loop(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 3, size=(3, 2, 8, 8)).astype(np.float32)
        x[0, 0] = 1.0  # every window of this channel is a four-way tie
        grad = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
        pool = MaxPool2x2()
        out, saved = pool.forward(x)
        dx, _ = pool.backward(grad, saved)
        ref_dx = np.zeros_like(x)
        for s, c, i, j in np.ndindex(grad.shape):
            window = x[s, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            u, v = divmod(int(np.argmax(window)), 2)   # first max wins
            ref_dx[s, c, 2 * i + u, 2 * j + v] = grad[s, c, i, j]
        np.testing.assert_array_equal(out, ref_pool(x))
        np.testing.assert_array_equal(dx, ref_dx)

    def test_backward_routes_to_argmax_only(self):
        rng = np.random.default_rng(0)
        pool = MaxPool2x2()
        x = rng.normal(size=(2, 3, 6, 6))
        _, saved = pool.forward(x)
        g = rng.normal(size=(2, 3, 3, 3))
        dx, _ = pool.backward(g, saved)
        assert dx.sum() == pytest.approx(g.sum(), rel=1e-12)
        # each 2x2 window receives gradient in exactly one slot
        win = dx.reshape(2, 3, 3, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5)
        nonzero = (win.reshape(2, 3, 3, 3, 4) != 0).sum(axis=-1)
        assert nonzero.max() <= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # -inf * 0
class TestReLU:
    @staticmethod
    def awkward(dtype, seed):
        """±0, negatives, NaN, ±inf, subnormals and positives, shuffled."""
        tiny = np.finfo(dtype).smallest_subnormal
        values = np.array([0.0, -0.0, -1.5, -tiny, tiny, 2.5, np.nan, -np.nan,
                           np.inf, -np.inf, 1e-3, -7.0], dtype=dtype)
        return np.random.default_rng(seed).permutation(np.tile(values, 6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_give_the_bits_of_the_mask_formula(self,
                                                                   dtype):
        x = self.awkward(dtype, 0).reshape(2, 3, 4, 3)
        grad = self.awkward(dtype, 1).reshape(x.shape)
        want_out, want_dx = x * (x > 0), grad * (x > 0)
        relu = ReLU()
        out, saved = relu.forward(x.copy())
        assert saved is out
        dx, own = relu.backward(grad.copy(), saved)
        assert own == ()
        for got, want in ((out, want_out), (dx, want_dx)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_forward_and_backward_overwrite_their_arguments(self):
        x = self.awkward(np.float32, 2)
        grad = self.awkward(np.float32, 3)
        relu = ReLU()
        out, saved = relu.forward(x)
        dx, _ = relu.backward(grad, saved)
        assert out is x and dx is grad


def test_inference_forwards_read_no_layer_state():
    """An inference forward keeps nothing on a layer: embed and the
    head's forward_many, batched and on one row, leave every layer's
    vars() with the same keys bound to the same objects, and give the
    same bits when run again, so threads can share one model."""
    model = Backbone(3, input_side=12, seed=0)
    head = OodHead(model.feature_dim, seed=0)
    images = synth_blobs(3, 5, side=12, seed=1).images
    layers = model.layers + head.layers
    before = [dict(vars(layer)) for layer in layers]
    feats, logits = embed(model, images)
    p = head.forward_many(feats)
    p1 = head.forward_many(feats[:1])
    for layer, kept in zip(layers, before):
        now = vars(layer)
        assert now.keys() == kept.keys(), type(layer).__name__
        assert all(now[k] is v for k, v in kept.items()), type(layer).__name__
    got_feats, got_logits = embed(model, images)
    np.testing.assert_array_equal(got_feats, feats)
    np.testing.assert_array_equal(got_logits, logits)
    np.testing.assert_array_equal(head.forward_many(got_feats), p)
    np.testing.assert_array_equal(p1, p[:1])


def test_a_training_step_keeps_no_layer_state():
    """A training forward with a tape and its backward leave every layer's
    vars() with the same keys bound to the same objects, for the backbone
    and for the head. The backward returns one gradient per parameter, in
    parameters() order, of its shape and dtype."""
    model = Backbone(3, input_side=12, seed=0)
    head = OodHead(model.feature_dim, seed=0)
    ds = synth_blobs(3, 6, side=12, seed=2)
    layers = model.layers + head.layers
    before = [dict(vars(layer)) for layer in layers]
    tape = []
    feats, logits = model.forward(ds.images, tape)
    _, dlogits = softmax_xent(logits, ds.labels)
    grads = model.backward(dlogits, feats, tape)
    head_tape = []
    p = head.forward_many(feats, head_tape)
    head_grads = head.backward(p - (ds.labels > 0), head_tape)
    for layer, kept in zip(layers, before):
        now = vars(layer)
        assert now.keys() == kept.keys(), type(layer).__name__
        assert all(now[k] is v for k, v in kept.items()), type(layer).__name__
    for params, got in ((model.parameters(), grads),
                        (head.parameters(), head_grads)):
        assert len(got) == len(params)
        for param, g in zip(params, got):
            assert (g.shape, g.dtype) == (param.shape, param.dtype)


def test_an_inference_forward_inside_a_training_step_moves_no_gradient():
    """Inference between a training forward and its backward, as another
    thread could run it, leaves every backbone and head gradient the
    same bits: the backward reads only the tape of its own forward."""
    model = Backbone(3, input_side=12, seed=0)
    head = OodHead(model.feature_dim, seed=0)
    ds = synth_blobs(3, 6, side=12, seed=2)
    other = synth_blobs(3, 5, side=12, seed=3).images

    def gradients(interleave):
        tape = []
        feats, logits = model.forward(ds.images, tape)
        _, dlogits = softmax_xent(logits, ds.labels)
        if interleave:
            other_feats = embed(model, other)[0]
            model.forward(other[:1])
        grads = model.backward(dlogits, feats, tape)
        assert tape == []
        head_tape = []
        p = head.forward_many(feats, head_tape)
        if interleave:
            head.forward_many(other_feats)
            head.forward_many(other_feats[:1])
        head_grads = head.backward(p - (ds.labels > 0), head_tape)
        assert head_tape == []
        return [g.copy() for g in grads + head_grads]

    for want, got in zip(gradients(False), gradients(True), strict=True):
        np.testing.assert_array_equal(got, want)


class TestExtractFeatures:
    @pytest.mark.parametrize("shape", [(40, 16, 16), (40,)])
    def test_a_shape_error_names_the_whole_input(self, small_model, shape):
        # 40 rows: more than one slice of _map_rows on any CPU count
        with pytest.raises(ShapeMismatch, match=re.escape(f"got {shape}")):
            embed(small_model, np.zeros(shape, dtype=np.float32))

    def test_single_matches_batch_row(self, small_model):
        images = np.random.default_rng(5).random((6, 12, 12)).astype(np.float32)
        batch_feats = extract_features(small_model, images)
        single = extract_features(small_model, images[4])
        np.testing.assert_array_equal(single[0], batch_feats[4])

    def test_output_shape(self, small_model):
        images = np.zeros((7, 12, 12), dtype=np.float32)
        assert extract_features(small_model, images).shape == (7, 84)

    @pytest.mark.parametrize("b", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_repeat_calls_bit_identical(self, small_model, b, monkeypatch):
        images = (np.random.default_rng(6).random((2 * BLOCK + 5, 12, 12))
                  .astype(np.float32))
        whole_feats, whole_logits = small_model.forward(images)
        monkeypatch.setattr(nn, "SLICE_ROWS", b)
        feats, logits = embed(small_model, images)
        np.testing.assert_array_equal(feats, whole_feats)
        np.testing.assert_array_equal(logits, whole_logits)
        np.testing.assert_array_equal(extract_features(small_model, images), feats)

    @pytest.mark.parametrize("side", [12, 16, 20, 24, 28])
    def test_batch_invariant_at_every_side(self, side, monkeypatch):
        # the small blocks of sides 16, 20 and 24 are where the GEMM's
        # operand layout picks the kernel, and with it the rounding
        model = Backbone(10, input_side=side, seed=0)
        images = np.random.default_rng(side).random((70, side, side),
                                                    dtype=np.float32)
        whole_feats, whole_logits = model.forward(images)
        for b in [*range(1, 21), 33, 65]:
            monkeypatch.setattr(nn, "SLICE_ROWS", b)
            feats, logits = embed(model, images)
            np.testing.assert_array_equal(feats, whole_feats)
            np.testing.assert_array_equal(logits, whole_logits)


# --- batched inference on the thread pool (nn._map_rows) ---


@pytest.fixture(scope="module")
def model28():
    return Backbone(10, input_side=28, seed=0)


def images28(n, seed=0):
    return np.random.default_rng(seed).random((n, 28, 28), dtype=np.float32)


def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; skips without one."""
    calls = nn._blas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    return calls


class TestMapRows:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 4097])
    def test_embed_equals_a_sequential_forward_loop(self, model28, n):
        images = images28(n)
        chunks = [model28.forward(images[s:s + 256]) for s in range(0, n, 256)]
        feats, logits = embed(model28, images)
        np.testing.assert_array_equal(feats, np.concatenate([f for f, _ in chunks]))
        np.testing.assert_array_equal(logits, np.concatenate([g for _, g in chunks]))

    @pytest.mark.parametrize("n,cap", [(0, 256), (1, 256), (2, 1), (7, 3),
                                       (257, 256), (4097, 256)])
    def test_slices_come_back_in_row_order(self, n, cap, monkeypatch):
        monkeypatch.setattr(nn, "SLICE_ROWS", cap)
        parts = _map_rows(lambda rows: rows, np.arange(n))
        np.testing.assert_array_equal(np.concatenate(parts), np.arange(n))
        assert max(map(len, parts)) <= cap

    def test_blas_runs_at_one_thread_inside_and_is_restored_after(self):
        get, put = blas_threads()
        before = get()
        put(3)   # a count no region sets
        try:
            inside = _map_rows(lambda rows: get(), np.arange(8))
            assert inside == [1 if nn._cpus() > 1 else 3] * len(inside)
            assert get() == 3
        finally:
            put(before)

    def test_the_blas_thread_count_changes_only_under_the_pool_lock(
            self, model28, monkeypatch):
        """Every write to OpenBLAS's thread count holds nn._busy: a write
        without it could restore the count while another call runs on the
        pool, or leave it at 1 thread after the last."""
        get, put = blas_threads()
        if nn._cpus() < 2:   # take the pooled path on one CPU too
            monkeypatch.setattr(nn, "_cpus", lambda: 2)
        writes = []

        def guarded(n):
            assert nn._busy.locked(), f"BLAS thread count set to {n} unlocked"
            writes.append(n)
            put(n)

        monkeypatch.setattr(nn, "_blas_threads", lambda: (get, guarded))
        _map_rows(lambda rows: rows, np.arange(8))
        embed(model28, images28(40))
        assert len(writes) == 4 and not nn._busy.locked()

    def test_a_call_inside_fn_runs_inline_on_its_thread(self, model28,
                                                       monkeypatch):
        """A _map_rows call made inside a pooled call's fn, on the caller
        and on a helper, runs every slice on the thread that made it, with
        the same bits, and never waits on the pool."""
        blas_threads()
        if nn._cpus() < 2:   # take the pooled path on one CPU too
            monkeypatch.setattr(nn, "_cpus", lambda: 2)
        images = images28(64, seed=4)
        want = model28.forward(images)
        caller, helped = [], threading.Event()
        nested = []   # (thread of an outer slice, threads of its inner ones)

        def forward(part):
            time.sleep(0.02)   # long enough that an idle pool thread joins in
            return threading.get_ident(), model28.forward(part)

        def outer(part):
            me = threading.get_ident()
            if me == caller[0]:   # nest once a helper is done nesting
                helped.wait(timeout=30)
            inner = _map_rows(forward, part)
            nested.append((me, {t for t, _ in inner}))
            helped.set()
            return [out for _, out in inner]

        got = []

        def call():
            caller.append(threading.get_ident())
            got.append(_map_rows(outer, images))

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "a call inside fn waited on the pool"
        outer_threads = {me for me, _ in nested}
        assert caller[0] in outer_threads and len(outer_threads) > 1
        for me, inner in nested:
            assert inner == {me}
        feats, logits = zip(*(out for part in got[0] for out in part))
        np.testing.assert_array_equal(np.concatenate(feats), want[0])
        np.testing.assert_array_equal(np.concatenate(logits), want[1])

    def test_no_slice_starts_once_the_caller_raises(self, monkeypatch):
        """An exception from fn on the calling thread, KeyboardInterrupt
        included, leaves the pool's threads only the slices they hold."""
        blas_threads()
        monkeypatch.setattr(nn, "_cpus", lambda: 2)   # one helper thread
        monkeypatch.setattr(nn, "SLICE_ROWS", 1)
        caller = threading.get_ident()
        started = []

        def fn(rows):
            started.append(rows[0])
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(0.005)
            return rows

        with pytest.raises(KeyboardInterrupt):
            _map_rows(fn, np.arange(200))
        assert len(started) < 20

    def test_an_error_on_a_helper_is_raised_once_every_helper_is_done(
            self, monkeypatch):
        """The call that runs on the pool ends, and lets the next one in,
        only when no slice of it still runs."""
        blas_threads()
        monkeypatch.setattr(nn, "_cpus", lambda: 3)   # two helper threads,
        monkeypatch.setattr(nn, "_pool", None)        # on a pool of their own
        caller = threading.get_ident()
        taken, running = [], []
        both = threading.Event()
        lock = threading.Lock()

        def fn(rows):
            if threading.get_ident() == caller:   # until both helpers begin
                both.wait(timeout=30)
                return rows
            with lock:
                taken.append(rows[0])
                first = len(taken) == 1
                if not first:
                    both.set()
            if first:
                raise ValueError("a helper's slice failed")
            running.append(rows[0])
            time.sleep(0.2)
            running.remove(rows[0])
            return rows

        try:
            with pytest.raises(ValueError):
                _map_rows(fn, np.arange(3))
            assert len(taken) == 2 and not running
            assert not nn._busy.locked()
        finally:
            nn._pool.shutdown()

    def test_overlapping_regions_keep_one_blas_thread_and_restore_it(
            self, model28):
        """More callers than CPUs, with a short switch interval, serialise
        on nn._busy: every slice of every call sees OpenBLAS at 1 thread,
        and the count set before the calls is restored after the last."""
        get, put = blas_threads()
        before = get()
        images = images28(600, seed=1)
        want = embed(model28, images)

        def forward(part):
            return get(), model28.forward(part)

        got = []
        callers = [threading.Thread(
            target=lambda: got.append(_map_rows(forward, images)))
            for _ in range(nn._cpus() + 2)]
        interval = sys.getswitchinterval()
        put(3)   # a count no region sets
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
            assert get() == 3
        finally:
            sys.setswitchinterval(interval)
            put(before)
        assert not any(t.is_alive() for t in callers)
        assert len(got) == len(callers)
        for parts in got:
            counts, outputs = zip(*parts)
            assert set(counts) == {1 if nn._cpus() > 1 else 3}
            feats, logits = zip(*outputs)
            np.testing.assert_array_equal(np.concatenate(feats), want[0])
            np.testing.assert_array_equal(np.concatenate(logits), want[1])

    def test_without_a_blas_thread_setter_it_runs_inline(self, model28,
                                                        monkeypatch):
        images = images28(300, seed=2)
        want = embed(model28, images)
        monkeypatch.setattr(nn, "_blas_threads", lambda: None)
        callers = set()
        forward = model28.forward

        def recorded(x):
            callers.add(threading.get_ident())
            return forward(x)

        monkeypatch.setattr(model28, "forward", recorded)
        feats, logits = embed(model28, images)
        assert callers == {threading.get_ident()}
        np.testing.assert_array_equal(feats, want[0])
        np.testing.assert_array_equal(logits, want[1])

    def test_a_caller_on_a_pool_thread_does_not_wait_on_the_pool(self):
        """With every pool thread busy calling _map_rows, each caller takes
        all its slices itself: none waits for a helper that never starts."""
        if nn._cpus() < 2:
            pytest.skip("one usable CPU: there is no pool")
        blas_threads()
        _map_rows(lambda part: part, np.arange(8))   # the pool starts
        pool = nn._pool
        rows = np.arange(100)
        calls = [pool.submit(_map_rows, lambda part: part * 2, rows)
                 for _ in range(pool._max_workers)]
        for call in calls:
            np.testing.assert_array_equal(
                np.concatenate(call.result(timeout=60)), rows * 2)


# --- training on one BLAS thread (nn._one_blas_thread) ---


def head_features(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 6)).astype(np.float32)


def train_backbone(nan=False):
    """One train_epoch on 12x12 blobs (with a NaN pixel if nan)."""
    ds = synth_blobs(3, 20, side=12, seed=5)
    images = ds.images.copy()
    if nan:
        images[0, 0, 0] = np.nan
    model = Backbone(3, input_side=12, seed=5)
    return train_epoch(model, Centers(3, model.feature_dim, seed=5),
                       LabeledDataset(images, ds.labels.copy()),
                       TrainConfig(lam=0.5, batch_size=16, seed=5))


def train_small_head(nan=False):
    """train_head_on_features over 6-d features (at a learning rate that
    makes the loss NaN if nan)."""
    head = OodHead(6, seed=5)
    cfg = HeadTrainConfig(epochs=4, batch_size=16, seed=5,
                          learning_rate=1e30 if nan else 0.01)
    return train_head_on_features(head, head_features(40, 1),
                                  head_features(30, 2), cfg)


TRAINERS = [pytest.param(train_backbone, id="train_epoch"),
            pytest.param(train_small_head, id="train_head_on_features")]


class TestTrainingOnOneBlasThread:
    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_every_step_sees_one_thread_and_the_count_comes_back(
            self, trainer, monkeypatch):
        get, put = blas_threads()
        seen = []
        step = SGD.step

        def counted(self, grads):
            seen.append(get())
            return step(self, grads)

        monkeypatch.setattr(SGD, "step", counted)
        before = get()
        put(3)   # a count no region sets
        try:
            trainer()
            assert get() == 3
        finally:
            put(before)
        assert seen and set(seen) == {1}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_a_training_call_that_raises_restores_the_count(self, trainer):
        get, put = blas_threads()
        before = get()
        put(3)
        try:
            with pytest.raises(NonFiniteLoss):
                trainer(nan=True)
            assert get() == 3
        finally:
            put(before)

    def test_a_pooled_embed_inside_a_training_call_on_another_thread(
            self, model28, monkeypatch):
        """The training region opens first and ends last: the pooled call
        nested in it on another thread writes nothing, every slice of it
        sees one thread, and the count found comes back after both. Every
        write holds the pin's lock."""
        get, put = blas_threads()
        if nn._cpus() < 2:   # take the pooled path on one CPU too
            monkeypatch.setattr(nn, "_cpus", lambda: 2)
        images = images28(40, seed=6)
        want = embed(model28, images)
        writes = []

        def guarded(n):
            assert nn._pin.lock.locked(), f"BLAS thread count set to {n} unlocked"
            writes.append(n)
            put(n)

        monkeypatch.setattr(nn, "_blas_threads", lambda: (get, guarded))
        training, embedded = threading.Event(), threading.Event()
        step = SGD.step

        def waiting(self, grads):   # the first step waits for the embed
            if not training.is_set():
                training.set()
                assert embedded.wait(timeout=60)
            return step(self, grads)

        monkeypatch.setattr(SGD, "step", waiting)
        before = get()
        put(3)
        try:
            trainer = threading.Thread(target=train_backbone, daemon=True)
            trainer.start()
            assert training.wait(timeout=60)
            parts = _map_rows(lambda part: (get(), model28.forward(part)), images)
            embedded.set()
            trainer.join(timeout=60)
            assert not trainer.is_alive() and get() == 3
        finally:
            embedded.set()
            put(before)
        assert writes == [1, 3]
        counts, outputs = zip(*parts)
        assert set(counts) == {1}
        np.testing.assert_array_equal(np.concatenate([f for f, _ in outputs]),
                                      want[0])

    def test_without_a_blas_thread_setter_training_runs_unpinned(
            self, monkeypatch):
        monkeypatch.setattr(nn, "_blas_threads", lambda: None)
        train_backbone()
        train_small_head()
        assert nn._pin.regions == 0


FORKED_IN_A_PIN = """
import os, signal, threading
import numpy as np
from oodnet import nn
get, put = nn._blas_threads()
put(3)
nn._map_rows(lambda rows: rows, np.arange(8))   # the parent's pool has threads
pooled = nn._cpus() > 1

def child():
    signal.alarm(60)
    ok = get() == 1 and nn._pin.regions == 0   # as inherited, in no region
    put(4)   # a count of the child's own
    seen = nn._map_rows(lambda rows: get(), np.arange(8))
    return ok and set(seen) == {1 if pooled else 4} and get() == 4

def fork(check):
    pid = os.fork()
    if pid == 0:
        os._exit(0 if check() else 1)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

# forked on the thread that holds the region: its end in the child writes
# nothing, not even while the child holds a region of its own
own = nn._one_blas_thread()
with nn._one_blas_thread():
    pid = os.fork()
    if pid == 0:
        ok = child()
        own.__enter__()
if pid == 0:
    ok = ok and get() == 1 and nn._pin.regions == 1
    own.__exit__(None, None, None)
    os._exit(0 if ok and get() == 4 and nn._pin.regions == 0 else 1)
same = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

# forked while another thread holds the region
held, done = threading.Event(), threading.Event()
def hold():
    with nn._one_blas_thread():
        held.set()
        done.wait(timeout=60)
t = threading.Thread(target=hold)
t.start()
held.wait(timeout=60)
other = fork(child)
done.set()
t.join()
print(same, other, get())
"""


def test_a_forked_child_starts_outside_every_pin_region():
    """A child forked inside a region, on its thread or on another, keeps
    the count it inherited, and its own regions save and restore its own
    count: the parent's region, never ending there, holds none of them."""
    blas_threads()
    assert fresh_python(FORKED_IN_A_PIN).split() == ["0", "0", "3"]


# --- IDX bytes: scaled by data.normalize as they enter the network ---


def bytes_of(n, side=28, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (n, side, side),
                                                dtype=np.uint8)


class TestByteImages:
    @pytest.mark.parametrize("cpus", [1, 2])   # inline, and on the pool
    @pytest.mark.parametrize("n", [1, 17, 64])
    def test_bytes_give_the_bits_of_their_normalized_pixels(
            self, model28, n, cpus, monkeypatch):
        monkeypatch.setattr(nn, "_cpus", lambda: cpus)
        raw = bytes_of(n, seed=n)
        pixels = normalize(raw)
        for call in (model28.forward, functools.partial(embed, model28)):
            for got, want in zip(call(raw), call(pixels), strict=True):
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(extract_features(model28, raw),
                                      extract_features(model28, pixels))

    def test_a_float64_model_scales_bytes_as_float32_pixels(self):
        """The grad_check path: bytes are scaled to float32 first, then cast."""
        model = Backbone(3, input_side=12, seed=0).astype(np.float64)
        raw = bytes_of(5, side=12)
        pixels = normalize(raw)
        for got, want in zip(model.forward(raw), model.forward(pixels), strict=True):
            np.testing.assert_array_equal(got, want)
        labels = np.array([0, 1, 2, 0, 1])
        assert grad_check(model, MiniBatch(raw, labels), n_samples=20) \
            == grad_check(model, MiniBatch(pixels, labels), n_samples=20)

    def test_training_on_bytes_moves_every_parameter_as_on_their_pixels(self):
        raw = (synth_blobs(3, 30, side=12, seed=1).images * 255).astype(np.uint8)
        labels = np.arange(len(raw)) % 3
        runs = []
        for images in (raw, normalize(raw)):
            model = Backbone(3, input_side=12, seed=2)
            centers = Centers(3, model.feature_dim, seed=2)
            record = train_epoch(model, centers, LabeledDataset(images, labels.copy()),
                                 TrainConfig(lam=0.5, batch_size=16, seed=3))
            runs.append((record, model.parameters() + [centers.values]))
        (record, params), (want_record, want_params) = runs
        assert record == want_record
        for got, want in zip(params, want_params, strict=True):
            np.testing.assert_array_equal(got, want)


FORKED_EMBED = """
import os, signal, threading, time
import numpy as np
from oodnet import nn
model = nn.Backbone(3, input_side=12, seed=0)
images = np.random.default_rng(0).random((64, 12, 12), dtype=np.float32)
want = nn.embed(model, images)[0]   # the parent's pool now has threads
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    def slow(rows):   # long enough that a pool thread takes a slice
        time.sleep(0.05)
        return threading.get_ident()
    threads = set(nn._map_rows(slow, np.arange(8)))
    same = (nn.embed(model, images)[0] == want).all()
    os._exit(0 if same and (len(threads) > 1) == (nn._cpus() > 1) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def test_a_forked_child_maps_rows_on_a_pool_of_its_own():
    """The child inherits the parent's pool but none of its threads: a
    slice given to that pool would never run (and never be freed)."""
    assert fresh_python(FORKED_EMBED).split() == ["0"]
