"""Centroid-pull loss on deep features: value, gradients, and the
damped per-batch centroid update."""
from __future__ import annotations

import numpy as np

from .errors import DimMismatch


class Centers:
    """Per-class feature centroids with a damped update rule.

    The per-batch delta for class j is sum(c_j - x_i) / (1 + count_j)
    over the batch members of class j, applied as c_j -= rate * delta.
    """

    def __init__(self, n_classes: int, dim: int, rate: float = 0.5,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.values = (rng.standard_normal((n_classes, dim)) * 0.1).astype(np.float32)
        self.rate = rate

    @property
    def n_classes(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]

    def apply_deltas(self, deltas: np.ndarray):
        if deltas.shape != self.values.shape:
            raise DimMismatch(f"{deltas.shape} vs {self.values.shape}")
        self.values -= (self.rate * deltas).astype(self.values.dtype)

    def astype(self, dtype) -> "Centers":
        other = Centers(self.n_classes, self.dim, self.rate)
        other.values = self.values.astype(dtype)
        return other


def _check(features, labels, centers):
    if features.ndim != 2 or features.shape[1] != centers.dim:
        raise DimMismatch(
            f"features {features.shape} vs centroid dim {centers.dim}")
    if len(features) != len(labels):
        raise DimMismatch("features/labels length mismatch")
    if len(labels) and (labels.min() < 0 or labels.max() >= centers.n_classes):
        raise DimMismatch("label outside centroid table")


def center_loss(features: np.ndarray, labels: np.ndarray,
                centers: Centers) -> float:
    """Half the summed squared distance of each feature to its class centroid."""
    labels = np.asarray(labels)
    _check(features, labels, centers)
    diff = features - centers.values[labels]
    return 0.5 * float((diff * diff).sum())


def center_loss_grads(features: np.ndarray, labels: np.ndarray,
                      centers: Centers):
    """(gradient w.r.t. features, centroid deltas).

    Feature gradient rows are x_i - c_{y_i}; the caller applies its own
    weighting. Centroid deltas use the count-damped average; classes
    absent from the batch get a zero delta.
    """
    labels = np.asarray(labels)
    _check(features, labels, centers)
    diff = features - centers.values[labels]
    deltas = np.zeros_like(centers.values)
    np.add.at(deltas, labels, -diff)
    counts = np.bincount(labels, minlength=centers.n_classes)
    deltas /= (1 + counts)[:, None]
    return diff, deltas


def combine(loss_s: float, loss_c: float, lam: float) -> float:
    """Total training loss: classification term plus weighted centroid term."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return loss_s + lam * loss_c
