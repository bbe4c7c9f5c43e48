"""From-scratch CNN: a max-pool/ReLU LeNet variant with explicit
backpropagation, softmax cross-entropy, momentum SGD, and a
finite-difference gradient checker.

All arrays are plain numpy; float32 by default, float64 in verification
mode. The deep feature is the post-ReLU output of the last hidden dense
layer (84 units by default) feeding the linear classifier.

Kernels: convolution is im2col plus one GEMM per block of ``BLOCK``
samples, the block's patch matrix gathered with one ``np.take`` through a
flat patch index that is built once per input shape; max pooling is
``np.maximum`` over four strided views; dense layers use a fixed-order
``einsum``. Inference gives the same bits at any batch size because every
output row is computed from its own input row alone: a convolution output
from its own patch row, a pooled value from its own window, a dense
output from its own input vector, whatever the block or batch size
around it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .centerloss import center_loss, center_loss_grads, combine
from .data import ROLE_MAIN_TRAIN, LabeledDataset, MiniBatch, make_batches
from .errors import (DimMismatch, EmptyDataset, LabelOutOfRange,
                     NonFiniteFeature, NonFiniteLoss, ShapeMismatch)


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


# Samples per im2col block. One block's patch matrix is about 1 MB for
# 28x28 inputs; a batch of 256 at once would need 20 MB, enough to show in
# the peak memory of training and embedding.
BLOCK = 16


class Layer:
    """A layer without parameters. Each layer class defines its own
    forward and backward: the benchmark's tracer wraps them per class."""
    params = ()
    grads = ()


class ParamLayer(Layer):
    """A layer with a weight W of ``shape`` (He initialisation for
    ``fan_in`` inputs, drawn from rng), a zero bias of ``n_out`` values,
    and their gradients dW and db once backward has run."""

    def __init__(self, shape, fan_in, n_out, rng, dtype):
        self.W = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.dW = self.db = self._x = None

    @property
    def params(self):
        return [self.W, self.b]

    @property
    def grads(self):
        return [self.dW, self.db]


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
    computed in. Backward rebuilds each block's patches for dW rather than
    keeping them from the forward pass, and computes dx as one GEMM
    followed by one strided add per kernel offset (col2im).

    With ``input_grad=False`` (a layer whose input is data) backward
    computes only dW and db and returns None.
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
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
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
            y += self.b
            out[s:s + BLOCK] = y.reshape(-1, Ho, Wo, O).transpose(0, 3, 1, 2)
        self._x = x
        return out

    def backward(self, grad):
        x = self._x
        k, p = self.kernel, self.pad
        m, O, Ho, Wo = grad.shape
        w = self.W.reshape(O, -1)
        self.db = grad.sum(axis=(0, 2, 3))
        dW = np.zeros_like(w)
        for s in range(0, m, BLOCK):
            g = grad[s:s + BLOCK].transpose(0, 2, 3, 1).reshape(-1, O)
            dW += g.T @ _im2col(x[s:s + BLOCK], k)
        self.dW = dW.reshape(self.W.shape)
        if not self.input_grad:
            return None
        # col2im in (C, H, W, m) layout, so that each of the k*k strided
        # adds runs over contiguous rows of Wo*m values
        _, C, H, W = x.shape
        dcols = (w.T @ grad.transpose(1, 2, 3, 0).reshape(O, -1)
                 ).reshape(C, k, k, Ho, Wo, m)
        dx = np.zeros((C, H, W, m), dtype=grad.dtype)
        for u in range(k):
            for v in range(k):
                dx[:, u:u + Ho, v:v + Wo] += dcols[:, u, v]
        return np.ascontiguousarray(dx[:, p:H - p, p:W - p].transpose(3, 0, 1, 2))


class ReLU(Layer):
    def forward(self, x):
        mask = x > 0
        self._mask = mask
        return x * mask

    def backward(self, grad):
        return grad * self._mask


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
        self._x, self._out = x, out
        return out

    def backward(self, grad):
        x, out = self._x, self._out
        dx = np.empty(x.shape, dtype=grad.dtype)
        free = np.ones(grad.shape, dtype=bool)
        for i, j in self.VIEWS:
            hit = free & (x[..., i::2, j::2] == out)
            np.multiply(grad, hit, out=dx[..., i::2, j::2])
            free &= ~hit
        return dx


class Flatten(Layer):
    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Dense(ParamLayer):
    def __init__(self, n_in, n_out, rng, dtype):
        super().__init__((n_in, n_out), n_in, n_out, rng, dtype)

    def forward(self, x):
        self._x = x
        # fixed-order reduction: per-sample output independent of batch size
        return np.einsum("mi,io->mo", x, self.W, optimize=False) + self.b

    def backward(self, grad):
        self._x = np.ascontiguousarray(self._x)
        self.dW = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.W.T


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

    It owns the parameter and gradient lists, dtype casts and the named
    parameter state. A subclass sets ``layers`` and ``dtype``, names in
    ``blob_names`` each layer that has parameters (in layer order), and
    returns from ``spec()`` the constructor arguments of its shape.
    """
    layers: list
    blob_names: tuple
    dtype: type

    def spec(self) -> dict:
        raise NotImplementedError

    def parameters(self):
        return [p for layer in self.layers for p in layer.params]

    def gradients(self):
        return [g for layer in self.layers for g in layer.grads]

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

    def forward(self, images: np.ndarray):
        """images (m, H, W) -> (features (m, d), logits (m, n))."""
        if images.ndim != 3 or images.shape[1:] != (self.input_side,) * 2:
            raise ShapeMismatch(
                f"expected (m, {self.input_side}, {self.input_side}), "
                f"got {images.shape}")
        h = np.asarray(images, dtype=self.dtype)[:, None, :, :]
        for layer in self.trunk:
            h = layer.forward(h)
        return h, self.classifier.forward(h)

    def backward(self, dlogits: np.ndarray, dfeatures=None):
        """Backpropagate gradients w.r.t. logits and (optionally) features
        into every layer's parameter gradients. The images get no gradient:
        the first convolution stops at its dW and db."""
        g = self.classifier.backward(dlogits)
        if dfeatures is not None:
            g = g + dfeatures
        for layer in reversed(self.trunk):
            g = layer.backward(g)


def embed(model: Backbone, images: np.ndarray,
          batch_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """(features, logits) for a stack of images, from one forward pass per
    chunk of batch_size; batching does not affect values."""
    if images.ndim == 2:
        images = images[None]
    if not len(images):
        raise EmptyDataset("no images to embed")
    feats, logits = zip(*(model.forward(images[i:i + batch_size])
                          for i in range(0, len(images), batch_size)))
    return np.concatenate(feats), np.concatenate(logits)


def extract_features(model: Backbone, images: np.ndarray,
                     batch_size: int = 256) -> np.ndarray:
    """Deep features for a stack of images; batching does not affect values."""
    return embed(model, images, batch_size)[0]


# ---------------------------------------------------------------------------
# loss


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Summed cross-entropy of softmax over the batch, plus its gradient."""
    labels = np.asarray(labels)
    n = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n:
        raise LabelOutOfRange(f"labels must lie in [0, {n})")
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
        for p, g, v in zip(self.params, grads, self.velocity):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


@dataclass
class EpochRecord:
    loss: float          # mean combined loss per sample
    accuracy: float


def loss_and_grads(model: Backbone, centers, batch: MiniBatch, lam: float):
    """One forward pass, the batch-summed combined loss (softmax
    cross-entropy plus lam times the centroid term) and its unweighted
    gradients.

    -> (loss, logits, dlogits, dfeatures, center deltas); the last two are
    None when lam is 0, and centers is then not read.
    """
    features, logits = model.forward(batch.images)
    loss_s, dlogits = softmax_xent(logits, batch.labels)
    loss_c, dfeatures, deltas = 0.0, None, None
    if lam > 0:
        loss_c = center_loss(features, batch.labels, centers)
        dfeatures, deltas = center_loss_grads(features, batch.labels, centers)
    return combine(loss_s, loss_c, lam), logits, dlogits, dfeatures, deltas


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
    if optimizer is None:
        optimizer = SGD(model.parameters(), cfg.learning_rate, cfg.momentum)
    seed = cfg.seed if epoch_seed is None else epoch_seed
    total_loss = 0.0
    total_correct = 0
    for i, batch in enumerate(make_batches(ds, cfg.batch_size, seed=seed)):
        m = len(batch)
        loss, logits, dlogits, dfeat, deltas = loss_and_grads(
            model, centers, batch, cfg.lam)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss={loss} on batch {i} ({m} samples) of "
                                f"the epoch with seed {seed}")
        model.backward(dlogits / m,
                       None if dfeat is None else (cfg.lam / m) * dfeat)
        optimizer.step(model.gradients())
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
    _, _, dlogits, dfeat, _ = loss_and_grads(model, centers, batch, lam)
    model.backward(dlogits, None if dfeat is None else lam * dfeat)
    params = model.parameters()
    grads = model.gradients()

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
