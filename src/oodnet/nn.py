"""From-scratch CNN: a max-pool/ReLU LeNet variant with explicit
backpropagation, softmax cross-entropy, momentum SGD, and a
finite-difference gradient checker.

All arrays are plain numpy; float32 by default, float64 in verification
mode. The deep feature is the post-ReLU output of the last hidden dense
layer (84 units by default) feeding the linear classifier.

Kernels: convolution is im2col plus one GEMM per block of ``BLOCK``
samples, the block's patch matrix gathered with one ``np.take`` through a
flat patch index that is built once per input shape. Its backward
computes the input gradient (col2im) with one GEMM and one strided add per
kernel offset, never holding the whole patch-gradient matrix. Max pooling
is ``np.maximum`` over four strided views, and dense layers use a
fixed-order ``einsum``. Inference gives the same bits at any batch size
because every output row is computed from its own input row alone: a
convolution output from its own patch row, a pooled value from its own
window, a dense output from its own input vector, whatever the block or
batch size around it. For the same reason batched inference (``embed``,
the head's ``forward_many`` and the detector's ``distances_many``) runs
its row slices on every usable CPU (``_map_rows``) and still gives the
same bits.
No layer keeps state, gradients included: ``forward(x)`` returns
``(out, saved)``, and ``backward(grad, saved)`` reads only its arguments
and returns ``(input gradient, parameter gradients)``. ReLU overwrites
its input going forward and the incoming gradient going back; both are
always fresh arrays, and its output is the next layer's saved input, so
the tape holds no mask.

Training (``train_epoch`` and the head's ``train_head_on_features``)
runs every GEMM with OpenBLAS at one thread: at batch 64 the products are
too small to gain from a second BLAS thread, which would only touch a
buffer of its own. ``_one_blas_thread`` is the one writer of that count,
for training and for ``_map_rows`` alike.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .centerloss import center_loss, center_loss_grads, combine
from .data import (ROLE_MAIN_TRAIN, LabeledDataset, MiniBatch, make_batches,
                   normalize)
from .errors import (DimMismatch, EmptyDataset, NonFiniteFeature,
                     NonFiniteLoss, ShapeMismatch, check_labels)


def bounded(default, least):
    """A config field with this default whose value must be >= least; the
    config reader (experiment._section) checks it, constructors do not."""
    return field(default=default, metadata={"least": least})


@dataclass
class SGDConfig:
    """Mini-batch momentum SGD settings, shared by stage-one training and
    the head's."""
    learning_rate: float = bounded(0.01, 0)
    batch_size: int = bounded(64, 1)
    epochs: int = bounded(3, 0)
    seed: int = 0
    momentum: float = 0.9


@dataclass
class TrainConfig(SGDConfig):
    lam: float = 0.0            # weight of the centroid-pull term
    center_rate: float = 0.5    # centroid update rate


# ---------------------------------------------------------------------------
# layers


# Samples per im2col block. One block's patch matrix is about 1.3 MB for
# 28x28 inputs; the training batch of 64 in one block would need 5 MB.
BLOCK = 16


class Layer:
    """A layer without parameters. ``forward(x)`` returns ``(out, saved)``,
    ``backward(grad, saved)`` the input gradient and ``()``. Each layer class
    defines its own pair: the benchmark's tracer wraps them per class."""
    params = ()


class ParamLayer(Layer):
    """A layer with a weight W of ``shape`` (He initialisation for
    ``fan_in`` inputs, drawn from rng) and a zero bias of ``n_out`` values,
    whose gradients backward returns as ``[dW, db]``."""

    def __init__(self, shape, fan_in, n_out, rng, dtype):
        self.W = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.params = [self.W, self.b]


@functools.lru_cache(maxsize=None)
def _patch_index(C, H, W, k):
    """Read-only (Ho*Wo, C*k*k) index into one flattened (C, H, W) sample:
    row r = i*Wo + j lists the pixels of the patch at output pixel (i, j) in
    (c, u, v) order. Cached per shape, so every block and pass shares it."""
    Ho, Wo = H - k + 1, W - k + 1
    offsets = (np.arange(C)[:, None, None] * (H * W)
               + np.arange(k)[:, None] * W + np.arange(k)).ravel()
    corners = (np.arange(Ho)[:, None] * W + np.arange(Wo)).ravel()
    index = corners[:, None] + offsets
    index.flags.writeable = False
    return index


def _im2col(x, k):
    """(b, C, H, W) -> C-contiguous patch rows (b*Ho*Wo, C*k*k), one row per
    output pixel, in (sample, row, column) order: one gather through the
    cached patch index of one sample."""
    b, C, H, W = x.shape
    index = _patch_index(C, H, W, k)
    return np.take(x.reshape(b, C * H * W), index, axis=1).reshape(-1, index.shape[1])


class Conv2D(ParamLayer):
    """5x5 (by default) convolution, stride 1, optional zero padding.

    im2col (Chellapilla, Puri & Simard, 2006): each output pixel's patch
    is one row of a matrix, and one GEMM against the flattened kernels
    computes a block of ``BLOCK`` samples. The matrix is one gather from
    the block's flattened samples through ``_patch_index``, a read-only
    index of the patch pixels of one sample, cached per (C, H, W, k).
    Every output value is the dot product of its own patch row with one
    kernel, so it does not depend on the block or batch size it was
    computed in. ``saved`` is the padded input: backward rebuilds each
    block's patches from it for dW. It computes dx by col2im without the
    full (C*k*k, Ho*Wo*m) patch-gradient matrix: for each kernel offset,
    one GEMM of that offset's (C, O) kernel slice against the output
    gradient, added into dx at that offset before the next GEMM.

    With ``input_grad=False`` (a layer whose input is data) backward
    computes only dW and db, and returns None as the input gradient.
    """

    def __init__(self, in_ch, out_ch, kernel, pad, rng, dtype, input_grad=True):
        super().__init__((out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel,
                         out_ch, rng, dtype)
        self.kernel = kernel
        self.pad = pad
        self.input_grad = input_grad

    def forward(self, x):
        k, p = self.kernel, self.pad
        if p:
            m, C, H, W = x.shape
            padded = np.zeros((m, C, H + 2 * p, W + 2 * p), dtype=x.dtype)
            padded[:, :, p:-p, p:-p] = x
            x = padded
        m, _, H, W = x.shape
        O = self.W.shape[0]
        Ho, Wo = H - k + 1, W - k + 1
        # C-contiguous kernels: given the transposed view, OpenBLAS takes a
        # small-matrix kernel for a small block that rounds differently from
        # its large one, and an output depended on the batch it was in.
        w = np.ascontiguousarray(self.W.reshape(O, -1).T)
        out = np.empty((m, O, Ho, Wo), dtype=x.dtype)
        for s in range(0, m, BLOCK):
            y = _im2col(x[s:s + BLOCK], k) @ w
            out[s:s + BLOCK] = y.reshape(-1, Ho, Wo, O).transpose(0, 3, 1, 2)
        out += self.b[:, None, None]
        return out, x

    def backward(self, grad, x):
        k, p = self.kernel, self.pad
        m, O, Ho, Wo = grad.shape
        w = self.W.reshape(O, -1)
        db = grad.sum(axis=(0, 2, 3))
        dW = np.zeros_like(w)
        for s in range(0, m, BLOCK):
            g = grad[s:s + BLOCK].transpose(0, 2, 3, 1).reshape(-1, O)
            dW += g.T @ _im2col(x[s:s + BLOCK], k)
        grads = [dW.reshape(self.W.shape), db]
        if not self.input_grad:
            return None, grads
        # col2im in (C, H, W, m) layout, so that each of the k*k strided
        # adds runs over contiguous rows of Wo*m values. Offset (u, v) makes
        # its rows (c, u, v) of w.T @ g from a contiguous (C, O) kernel slice:
        # the same products as one GEMM of the whole matrix, one at a time.
        _, C, H, W = x.shape
        g = grad.transpose(1, 2, 3, 0).reshape(O, -1)
        wt = np.ascontiguousarray(self.W.transpose(2, 3, 1, 0))
        dx = np.zeros((C, H, W, m), dtype=grad.dtype)
        for u in range(k):
            for v in range(k):
                dx[:, u:u + Ho, v:v + Wo] += (wt[u, v] @ g).reshape(C, Ho, Wo, m)
        return np.ascontiguousarray(dx[:, p:H - p, p:W - p].transpose(3, 0, 1, 2)), grads


class ReLU(Layer):
    """x * (x > 0), written into x. ``saved`` is that output, which the next
    layer saves too, so the tape holds no mask of its own; ``out > 0`` is
    the mask bit for bit (also for ±0, NaN and ±inf). Backward writes
    ``grad * (out > 0)`` into grad. Both arrays must be the caller's to
    overwrite: every layer and stack here passes fresh ones."""

    def forward(self, x):
        np.multiply(x, x > 0, out=x)
        return x, x

    def backward(self, grad, out):
        np.multiply(grad, out > 0, out=grad)
        return grad, ()


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2: ``np.maximum`` over the four strided
    views ``x[..., i::2, j::2]``, so each output depends only on its own
    window. Backward routes each window's gradient through the same views
    to the max; on ties the first view in ``VIEWS`` order wins. The other
    slots get a zero with the sign of the gradient."""

    VIEWS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x):
        a, b, c, d = (x[..., i::2, j::2] for i, j in self.VIEWS)
        out = np.maximum(np.maximum(a, b), np.maximum(c, d))
        return out, (x, out)

    def backward(self, grad, saved):
        x, out = saved
        dx = np.empty(x.shape, dtype=grad.dtype)
        free = np.ones(grad.shape, dtype=bool)
        for i, j in self.VIEWS:
            hit = free & (x[..., i::2, j::2] == out)
            np.multiply(grad, hit, out=dx[..., i::2, j::2])
            free &= ~hit
        return dx, ()


class Flatten(Layer):
    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad, shape):
        return grad.reshape(shape), ()


class Dense(ParamLayer):
    def __init__(self, n_in, n_out, rng, dtype):
        super().__init__((n_in, n_out), n_in, n_out, rng, dtype)

    def forward(self, x):
        # fixed-order reduction: per-sample output independent of batch size
        return np.einsum("mi,io->mo", x, self.W, optimize=False) + self.b, x

    def backward(self, grad, x):
        return grad @ self.W.T, [np.ascontiguousarray(x).T @ grad, grad.sum(axis=0)]


# ---------------------------------------------------------------------------
# layer stacks


def feature_rows(xs: np.ndarray, d: int) -> np.ndarray:
    """xs, which must be a batch of feature rows: 2-D with d columns
    (DimMismatch), every value finite (NonFiniteFeature). The one check
    of the features the detector and the head are given."""
    if xs.ndim != 2 or xs.shape[1] != d:
        raise DimMismatch(f"expected (m, {d}) feature rows, got {xs.shape}")
    if not np.isfinite(xs).all():
        raise NonFiniteFeature("feature holds NaN or inf")
    return xs


def checked_blob(arrays: dict, name: str, shape: tuple) -> np.ndarray:
    """arrays[name], which must be present with exactly ``shape``."""
    if name not in arrays:
        raise ShapeMismatch(f"missing blob {name}")
    if arrays[name].shape != shape:
        raise ShapeMismatch(f"{name}: {arrays[name].shape} vs {shape}")
    return arrays[name]


class LayerStack:
    """A model that is a list of layers; the base of Backbone and OodHead.

    It owns the parameter list, dtype casts, the named parameter state
    and the one training tape (``run``, ``run_back``). A
    subclass sets ``layers`` and ``dtype``, names in ``blob_names`` each
    layer that has parameters (in layer order), and returns from
    ``spec()`` the constructor arguments of its shape.
    """
    layers: list
    blob_names: tuple
    dtype: type

    def run(self, h, tape=None, layers=None):
        """h through layers (default: all), appending each saved to tape if given."""
        for layer in self.layers if layers is None else layers:
            h, saved = layer.forward(h)
            if tape is not None:
                tape.append(saved)
        return h

    def run_back(self, grad, tape, layers=None):
        """grad back through layers (default: all), popping each saved off tape
        -> (input gradient, parameter gradients in parameters() order)."""
        grads = []
        for layer in reversed(self.layers if layers is None else layers):
            grad, own = layer.backward(grad, tape.pop())
            grads[:0] = own
        return grad, grads

    def parameters(self):
        return [p for layer in self.layers for p in layer.params]

    def astype(self, dtype):
        """Copy of the model with all parameters cast to dtype."""
        other = type(self)(**self.spec(), dtype=dtype)
        other.load_state(self.state())
        return other

    def state(self) -> dict:
        """Named parameter arrays, in layer order."""
        out = {}
        owners = [layer for layer in self.layers if layer.params]
        for name, layer in zip(self.blob_names, owners):
            out[f"{name}.W"] = layer.W
            out[f"{name}.b"] = layer.b
        return out

    def load_state(self, arrays: dict):
        """Copy named arrays into the parameters. Every parameter must be
        present with its own shape; nothing is broadcast."""
        for name, value in self.state().items():
            value[...] = checked_blob(arrays, name, value.shape).astype(self.dtype)


class Backbone(LayerStack):
    """conv(1->6, 5x5, pad 2) / pool / conv(6->16, 5x5) / pool /
    dense->120 / dense->feature_dim / linear classifier.

    forward returns (deep features, logits); the feature vector is the
    post-ReLU output of the feature_dim layer. The input side must be a
    multiple of 4 (both poolings halve an even side) and at least 12.
    """
    blob_names = ("conv1", "conv2", "fc1", "fc2", "clf")

    def __init__(self, n_classes: int, input_side: int = 28,
                 feature_dim: int = 84, seed: int = 0, dtype=np.float32):
        if n_classes < 2:
            raise ShapeMismatch(f"{n_classes} classes: need at least 2")
        if input_side % 4 or input_side < 12:
            raise ShapeMismatch(
                f"input side {input_side}: must be a multiple of 4 and >= 12")
        rng = np.random.default_rng(seed)
        flat = 16 * ((input_side // 2 - 4) // 2) ** 2
        self.trunk = [
            Conv2D(1, 6, 5, 2, rng, dtype, input_grad=False), ReLU(), MaxPool2x2(),
            Conv2D(6, 16, 5, 0, rng, dtype), ReLU(), MaxPool2x2(),
            Flatten(),
            Dense(flat, 120, rng, dtype), ReLU(),
            Dense(120, feature_dim, rng, dtype), ReLU(),
        ]
        self.classifier = Dense(feature_dim, n_classes, rng, dtype)
        self.layers = self.trunk + [self.classifier]
        self.n_classes = n_classes
        self.input_side = input_side
        self.feature_dim = feature_dim
        self.dtype = dtype

    def spec(self) -> dict:
        return {"n_classes": self.n_classes, "input_side": self.input_side,
                "feature_dim": self.feature_dim}

    @staticmethod
    def spec_of(arrays: dict) -> dict:
        """The spec whose model has fc1.W and clf.W of the shapes of these
        named arrays: the inverse of the sizes __init__ derives from a
        spec, so a stored spec can be checked before anything is built."""
        shapes = [getattr(arrays.get(name), "shape", ())
                  for name in ("fc1.W", "clf.W")]
        if any(len(shape) != 2 for shape in shapes):
            raise ShapeMismatch("blobs fc1.W and clf.W must be present and 2-D")
        (flat, _), (d, n) = shapes
        return {"n_classes": n, "input_side": 4 * (math.isqrt(flat // 16) + 2),
                "feature_dim": d}

    def checked(self, images: np.ndarray) -> np.ndarray:
        """images, which must be (m, side, side) (ShapeMismatch)."""
        if images.ndim != 3 or images.shape[1:] != (self.input_side,) * 2:
            raise ShapeMismatch(
                f"expected (m, {self.input_side}, {self.input_side}), "
                f"got {images.shape}")
        return images

    def forward(self, images: np.ndarray, tape=None):
        """images (m, H, W) -> (features (m, d), logits (m, n)); tape: see run.
        uint8 images (IDX bytes) are scaled by data.normalize here, as they
        enter the network; any other dtype is taken as pixels in [0, 1]."""
        images = self.checked(images)
        if images.dtype == np.uint8:
            images = normalize(images)
        images = np.asarray(images, dtype=self.dtype)
        h = self.run(images[:, None], tape, self.trunk)
        return h, self.run(h, tape, [self.classifier])

    def backward(self, dlogits: np.ndarray, dfeatures, tape: list):
        """Backpropagate gradients w.r.t. logits and (unless None) features,
        popping the forward's tape -> parameter gradients in parameters()
        order. The images get none: the first convolution stops at dW, db."""
        g, grads = self.run_back(dlogits, tape, [self.classifier])
        if dfeatures is not None:
            g = g + dfeatures
        return self.run_back(g, tape, self.trunk)[1] + grads


# ---------------------------------------------------------------------------
# batched inference on every usable CPU

# Most rows in one slice of _map_rows. Each pool thread allocates from a
# malloc arena of its own, which keeps about one slice's working set for
# the next: slices of 128 images raised score-stream's peak memory by
# ~7 MB, at no measurable gain in speed. Inline, pinned to one CPU of a
# Xeon, 32-row slices embedded 2000 28x28 images in a median 255 ms over
# 8 runs, against 293 ms at 256.
SLICE_ROWS = 32
_pool = None
_busy = threading.Lock()       # held by the one call that runs on the pool
_inside = threading.local()    # .pooled: this thread drains a pooled call


@functools.cache
def _cpus() -> int:
    """The number of CPUs this process may run on, read once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # a platform without affinity masks
        return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, resolved
    through numpy's own extension module; None where it exports no such pair."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _Pin:
    """The open regions that hold numpy's OpenBLAS at one thread, and the
    count the first of them found. ``lock`` guards both and every write of
    the count."""

    def __init__(self):
        self.lock = threading.Lock()
        self.regions = 0
        self.saved = None


_pin = _Pin()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread. Regions may nest
    and may overlap on several threads: the first to begin saves the count
    and sets 1, the last to end sets the saved count back. Does nothing
    where numpy's OpenBLAS exports no thread setter."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    pin = _pin
    with pin.lock:
        if not pin.regions:
            pin.saved = get()
            put(1)
        pin.regions += 1
    try:
        yield
    finally:
        if pin is _pin:   # else it is a forked child's, which has dropped it
            with pin.lock:
                pin.regions -= 1
                if not pin.regions:
                    put(pin.saved)


def _forget_pool():
    """A forked child has none of its parent's threads: a slice given to
    the inherited pool would never run (nor be freed), and a _busy held
    by a parent thread would never be released. Likewise a pin region open
    at the fork may never end in the child: the child starts with none,
    at the BLAS thread count it inherited."""
    global _pool, _busy, _pin
    _pool, _busy, _pin = None, threading.Lock(), _Pin()


if hasattr(os, "register_at_fork"):   # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _map_rows(fn, rows) -> list:
    """[fn(slice) for each consecutive row slice of rows], in row order.

    Slices have ceil(len(rows) / CPUs) rows, at most SLICE_ROWS; no rows
    make one empty slice. With more than one row, more than one usable CPU
    and numpy's OpenBLAS thread setter, the calling thread and the pool's
    threads, one per CPU in all, take them in turn, with OpenBLAS at 1
    thread (BLAS threads on top of them only oversubscribe the CPUs);
    otherwise they run inline. One call at a time runs on the pool: a call
    from another thread waits for it, and a call made inside fn runs
    inline on the thread that made it. Once fn raises on the calling
    thread, no further slice is started. fn must compute every output row
    from its own input row alone: then no split changes a bit."""
    global _pool
    workers = _cpus()
    step = min(-(-len(rows) // workers), SLICE_ROWS) or 1
    starts = range(0, len(rows) or 1, step)
    if (len(rows) < 2 or workers < 2 or _blas_threads() is None
            or getattr(_inside, "pooled", False)):
        return [fn(rows[s:s + step]) for s in starts]
    jobs = iter(starts)
    take = threading.Lock()
    out = {}

    def drain():
        _inside.pooled = True
        try:
            while True:
                with take:
                    s = next(jobs, None)
                if s is None:
                    return
                out[s] = fn(rows[s:s + step])
        finally:
            _inside.pooled = False

    with _busy, _one_blas_thread():
        if _pool is None:
            # imported on first use: it adds ~6 ms to every import of oodnet
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(workers - 1)
        helpers = [_pool.submit(drain) for _ in range(workers - 1)]
        try:
            drain()
        finally:
            with take:   # the caller is done, or fn raised: hand out no more
                jobs = iter(())
            # a helper that has not started would find no job left: it
            # need not run, so a caller that is itself a pool thread
            # never waits on a pool whose threads all wait. Every helper
            # that has started ends before any error of theirs is raised.
            started = [h for h in helpers if not h.cancel()]
            for helper in started:
                helper.exception()
            for helper in started:
                helper.result()
    return [out[s] for s in starts]


def embed(model: Backbone, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features, logits) for a stack of images, in row slices spread over
    the usable CPUs (_map_rows); the slicing does not affect values."""
    if images.ndim == 2:
        images = images[None]
    if not len(images):
        raise EmptyDataset("no images to embed")
    feats, logits = zip(*_map_rows(model.forward, model.checked(images)))
    return np.concatenate(feats), np.concatenate(logits)


def extract_features(model: Backbone, images: np.ndarray) -> np.ndarray:
    """Deep features for a stack of images; the slicing does not affect values."""
    return embed(model, images)[0]


# ---------------------------------------------------------------------------
# loss


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Summed cross-entropy of softmax over the batch, plus its gradient."""
    labels = check_labels(np.asarray(labels), logits.shape[1])
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    idx = np.arange(len(labels))
    loss = -log_probs[idx, labels].sum()
    grad = np.exp(log_probs)
    grad[idx, labels] -= 1.0
    return float(loss), grad


# ---------------------------------------------------------------------------
# optimizer / training


class SGD:
    """Momentum SGD over an explicit parameter list."""

    def __init__(self, params, learning_rate, momentum=0.9):
        self.params = params
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = [np.zeros_like(p) for p in params]

    def step(self, grads):
        if len(grads) != len(self.params):   # before any parameter moves
            raise ValueError(f"{len(grads)} gradients for {len(self.params)} parameters")
        for p, g, v in zip(self.params, grads, self.velocity):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


@dataclass
class EpochRecord:
    loss: float          # mean combined loss per sample
    accuracy: float


def loss_and_grads(model: Backbone, centers, batch: MiniBatch, lam: float, tape=None):
    """One forward pass (recording into tape, if given), the batch-summed
    combined loss (softmax cross-entropy plus lam times the centroid term)
    and its unweighted gradients.

    -> (loss, logits, dlogits, dfeatures, center deltas); the last two are
    None when lam is 0, and centers is then not read.
    """
    features, logits = model.forward(batch.images, tape)
    loss_s, dlogits = softmax_xent(logits, batch.labels)
    loss_c, dfeatures, deltas = 0.0, None, None
    if lam > 0:
        loss_c = center_loss(features, batch.labels, centers)
        dfeatures, deltas = center_loss_grads(features, batch.labels, centers)
    return combine(loss_s, loss_c, lam), logits, dlogits, dfeatures, deltas


@_one_blas_thread()
def train_epoch(model: Backbone, centers, ds: LabeledDataset,
                cfg: TrainConfig, optimizer: SGD | None = None,
                epoch_seed: int | None = None) -> EpochRecord:
    """One pass of mini-batch SGD on the combined loss.

    Gradients are averaged over the batch before the step so the step
    size is insensitive to batch size. Mutates model and centers in
    place; deterministic given (cfg.seed, epoch_seed).
    """
    if ds.role != ROLE_MAIN_TRAIN:
        raise ValueError(f"training requires a main-train dataset, got {ds.role}")
    if not len(ds):
        raise EmptyDataset("no samples to train on")
    if optimizer is None:
        optimizer = SGD(model.parameters(), cfg.learning_rate, cfg.momentum)
    seed = cfg.seed if epoch_seed is None else epoch_seed
    total_loss = 0.0
    total_correct = 0
    for i, batch in enumerate(make_batches(ds, cfg.batch_size, seed=seed)):
        m = len(batch)
        tape = []
        loss, logits, dlogits, dfeat, deltas = loss_and_grads(
            model, centers, batch, cfg.lam, tape)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss={loss} on batch {i} ({m} samples) of "
                                f"the epoch with seed {seed}")
        optimizer.step(model.backward(
            dlogits / m, None if dfeat is None else (cfg.lam / m) * dfeat, tape))
        if deltas is not None:
            centers.apply_deltas(deltas)
        total_loss += loss
        total_correct += int((logits.argmax(axis=1) == batch.labels).sum())
    n = len(ds)
    return EpochRecord(loss=total_loss / n, accuracy=total_correct / n)


def train(model: Backbone, centers, ds: LabeledDataset,
          cfg: TrainConfig) -> list[EpochRecord]:
    """Full stage-one training run; returns the per-epoch trace."""
    optimizer = SGD(model.parameters(), cfg.learning_rate, cfg.momentum)
    history = []
    for epoch in range(cfg.epochs):
        record = train_epoch(model, centers, ds, cfg, optimizer,
                             epoch_seed=cfg.seed + epoch)
        history.append(record)
    return history


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(model: Backbone, batch: MiniBatch, eps: float = 1e-5,
               lam: float = 0.0, centers=None, n_samples: int = 200,
               seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    on a random subset of parameters. Requires a float64 model."""
    if model.dtype != np.float64:
        raise ValueError("gradient checking requires a float64 model")
    tape = []
    _, _, dlogits, dfeat, _ = loss_and_grads(model, centers, batch, lam, tape)
    grads = model.backward(dlogits, None if dfeat is None else lam * dfeat, tape)
    params = model.parameters()

    rng = np.random.default_rng(seed)
    sizes = np.array([p.size for p in params])
    flat_idx = rng.choice(sizes.sum(), size=min(n_samples, sizes.sum()),
                          replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    worst = 0.0
    for idx in flat_idx:
        k = int(np.searchsorted(offsets, idx, side="right")) - 1
        local = np.unravel_index(idx - offsets[k], params[k].shape)
        p = params[k]
        orig = p[local]
        p[local] = orig + eps
        up = loss_and_grads(model, centers, batch, lam)[0]
        p[local] = orig - eps
        down = loss_and_grads(model, centers, batch, lam)[0]
        p[local] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[k][local]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        worst = max(worst, rel)
    return worst
