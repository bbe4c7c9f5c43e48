import math
import sys
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import f64_setup, nearest_mean_accuracy
from test_detector import fresh_python
from oodnet import (Backbone, Centers, TrainConfig, embed, extract_features,
                    grad_check, softmax_xent, synth_blobs, train, train_epoch)
from oodnet.data import MiniBatch
from oodnet.errors import LabelOutOfRange, ShapeMismatch
from oodnet import nn
from oodnet.head import OodHead
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
        np.testing.assert_allclose(layer.forward(x), x)

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

    def test_same_seed_identical_trace(self, blob_ds):
        traces = []
        for _ in range(2):
            model = Backbone(3, input_side=12, seed=4)
            centers = Centers(3, model.feature_dim, seed=4)
            hist = train(model, centers, blob_ds,
                         TrainConfig(epochs=3, batch_size=16, lam=0.5, seed=4))
            traces.append([h.loss for h in hist])
        assert traces[0] == traces[1]

    def test_full_batch_descent_non_increasing(self):
        ds = synth_blobs(2, 8, side=12, separation=3.0, seed=3)
        model = Backbone(2, input_side=12, seed=3).astype(np.float64)
        opt = SGD(model.parameters(), learning_rate=1e-3, momentum=0.0)
        losses = []
        for _ in range(10):
            _, logits = model.forward(ds.images.astype(np.float64))
            loss, dlogits = softmax_xent(logits, ds.labels)
            losses.append(loss)
            model.backward(dlogits / len(ds))
            opt.step(model.gradients())
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestGradCheck:
    def test_healthy_build(self):
        model, centers, batch = f64_setup()
        err = grad_check(model, batch, eps=1e-5, n_samples=150)
        assert err <= 1e-6

    def test_injected_fault_detected(self):
        model, centers, batch = f64_setup()
        # scale the analytic gradient by 1.1 via a wrapped backward
        original = model.backward

        def tainted(dlogits, dfeatures=None):
            out = original(dlogits, dfeatures)
            for layer in model.layers:
                for g in layer.grads:
                    g *= 1.1
            return out

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
        out = layer.forward(x)
        np.testing.assert_allclose(out, ref_conv(x, layer.W, layer.b, pad),
                                   rtol=1e-10, atol=1e-12)
        grad = rng.normal(size=out.shape)
        dx = layer.backward(grad)
        ref_dW, ref_db, ref_dx = ref_conv_backward(x, layer.W, grad, pad)
        for got, want in ((layer.dW, ref_dW), (layer.db, ref_db), (dx, ref_dx)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

        first = Conv2D(2, 3, 5, pad, np.random.default_rng(7), np.float64,
                       input_grad=False)
        first.W[...], first.b[...] = layer.W, layer.b
        first.forward(x)
        assert first.backward(grad) is None
        np.testing.assert_array_equal(first.dW, layer.dW)
        np.testing.assert_array_equal(first.db, layer.db)

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
        out = pool.forward(x)
        dx = pool.backward(grad)
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
        pool.forward(x)
        g = rng.normal(size=(2, 3, 3, 3))
        dx = pool.backward(g)
        assert dx.sum() == pytest.approx(g.sum(), rel=1e-12)
        # each 2x2 window receives gradient in exactly one slot
        win = dx.reshape(2, 3, 3, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5)
        nonzero = (win.reshape(2, 3, 3, 3, 4) != 0).sum(axis=-1)
        assert nonzero.max() <= 1


def without_state_reads(layer):
    """Swap layer's class for a subclass that raises on reading the state
    a layer keeps for its backward (_x, _mask, _out, _shape)."""
    cls = type(layer)

    def getattribute(self, name):
        if name in ("_x", "_mask", "_out", "_shape"):
            raise AssertionError(f"{cls.__name__} read {name}")
        return object.__getattribute__(self, name)

    layer.__class__ = type(cls.__name__, (cls,), {"__getattribute__": getattribute})


def test_inference_forwards_read_no_layer_state():
    """An inference forward only writes the state a backward reads, never
    reads it back: embed and the head's forward_many give the same bits
    when every such read raises, so threads could share one model."""
    model = Backbone(3, input_side=12, seed=0)
    head = OodHead(model.feature_dim, seed=0)
    images = synth_blobs(3, 5, side=12, seed=1).images
    feats, logits = embed(model, images)
    p = head.forward_many(feats)
    for layer in model.layers + head.layers:
        without_state_reads(layer)
    got_feats, got_logits = embed(model, images)
    np.testing.assert_array_equal(got_feats, feats)
    np.testing.assert_array_equal(got_logits, logits)
    np.testing.assert_array_equal(head.forward_many(got_feats), p)


class TestExtractFeatures:
    def test_single_matches_batch_row(self, small_model):
        images = np.random.default_rng(5).random((6, 12, 12)).astype(np.float32)
        batch_feats = extract_features(small_model, images)
        single = extract_features(small_model, images[4])
        np.testing.assert_array_equal(single[0], batch_feats[4])

    def test_output_shape(self, small_model):
        images = np.zeros((7, 12, 12), dtype=np.float32)
        assert extract_features(small_model, images).shape == (7, 84)

    @pytest.mark.parametrize("batch_size", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_repeat_calls_bit_identical(self, small_model, batch_size):
        images = (np.random.default_rng(6).random((2 * BLOCK + 5, 12, 12))
                  .astype(np.float32))
        feats, logits = embed(small_model, images, batch_size=batch_size)
        whole_feats, whole_logits = embed(small_model, images,
                                          batch_size=len(images))
        np.testing.assert_array_equal(feats, whole_feats)
        np.testing.assert_array_equal(logits, whole_logits)
        np.testing.assert_array_equal(
            extract_features(small_model, images, batch_size=batch_size), feats)

    @pytest.mark.parametrize("side", [12, 16, 20, 24, 28])
    def test_batch_invariant_at_every_side(self, side):
        # the small blocks of sides 16, 20 and 24 are where the GEMM's
        # operand layout picks the kernel, and with it the rounding
        model = Backbone(10, input_side=side, seed=0)
        images = np.random.default_rng(side).random((70, side, side),
                                                    dtype=np.float32)
        whole_feats, whole_logits = embed(model, images, batch_size=len(images))
        for batch_size in [*range(1, 21), 33, 65]:
            feats, logits = embed(model, images, batch_size=batch_size)
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

    @pytest.mark.parametrize("n,most", [(1, 256), (2, 1), (7, 3), (257, 256),
                                        (4097, 256)])
    def test_slices_come_back_in_row_order(self, n, most):
        parts = _map_rows(lambda rows: rows, np.arange(n), most)
        np.testing.assert_array_equal(np.concatenate(parts), np.arange(n))
        assert max(map(len, parts)) <= most

    def test_blas_runs_at_one_thread_inside_and_is_restored_after(self):
        get, put = blas_threads()
        before = get()
        put(3)   # a count no region sets
        try:
            inside = _map_rows(lambda rows: get(), np.arange(8), 2)
            assert inside == [1 if nn._cpus() > 1 else 3] * len(inside)
            assert get() == 3
        finally:
            put(before)

    def test_the_first_region_to_open_trims_the_heap(self, monkeypatch):
        blas_threads()
        calls = []
        monkeypatch.setattr(nn, "_malloc_trim", lambda: calls.append)
        _map_rows(lambda rows: rows, np.arange(8), 2)
        assert calls == ([0] if nn._cpus() > 1 else [])

    def test_overlapping_regions_keep_one_blas_thread_and_restore_it(
            self, model28):
        """More callers than CPUs open and close regions at once, with a
        short switch interval: a lost update of the open-region count
        would restore OpenBLAS's count while a region is still open, or
        leave it at 1 thread after the last."""
        get, put = blas_threads()
        before = get()
        images = images28(600, seed=1)
        want = embed(model28, images)

        def forward(part):
            return get(), model28.forward(part)

        got = []
        callers = [threading.Thread(
            target=lambda: got.append(_map_rows(forward, images, 256)))
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
        pool = nn._executor()
        rows = np.arange(100)
        calls = [pool.submit(_map_rows, lambda part: part * 2, rows, 8)
                 for _ in range(pool._max_workers)]
        for call in calls:
            np.testing.assert_array_equal(
                np.concatenate(call.result(timeout=60)), rows * 2)


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
    threads = set(nn._map_rows(slow, np.arange(8), 8))
    same = (nn.embed(model, images)[0] == want).all()
    os._exit(0 if same and (len(threads) > 1) == (nn._cpus() > 1) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def test_a_forked_child_maps_rows_on_a_pool_of_its_own():
    """The child inherits the parent's pool but none of its threads: a
    slice given to that pool would never run (and never be freed)."""
    assert fresh_python(FORKED_EMBED).split() == ["0"]
