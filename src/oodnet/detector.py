"""Distance-based anomaly detector: per-class Gaussian fits over deep
features, percentile thresholds, and the any-class acceptance criterion.

Each class keeps a whitening map L^-1 from the Cholesky factor L of its
regularized covariance, so its Mahalanobis distance is |L^-1 (x - mu)|.
The detector stacks every class's map into one (d, n*d) matrix and
scores all classes with one GEMM per block of 256 rows."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack

from .errors import (DegenerateClass, DimMismatch, FactorizationFailure,
                     NonFiniteFeature, NotCalibrated)

DEFAULT_PERCENTILE = 0.975
# features per GEMM in distances_many; bounds the (rows, n*d) product
BLOCK_ROWS = 256


def _check_rows(xs: np.ndarray, d: int):
    """xs must be a batch of feature rows: 2-D with d columns."""
    if xs.ndim != 2 or xs.shape[1] != d:
        raise DimMismatch(f"expected (m, {d}) feature rows, got {xs.shape}")


@dataclass
class ClassStats:
    """Gaussian fit of one class: mean, covariance, the Cholesky
    factorization of the regularized covariance and its whitening map
    L^-1."""
    mean: np.ndarray
    cov: np.ndarray
    count: int
    epsilon: float
    _factor: tuple = None
    whiten: np.ndarray = None

    @classmethod
    def fit(cls, features: np.ndarray) -> "ClassStats":
        count, d = features.shape
        if count < d + 1:
            raise DegenerateClass(f"{count} samples for dimension {d}; need >= {d + 1}")
        mean = features.mean(axis=0)
        centered = features - mean
        cov = (centered.T @ centered) / (count - 1)
        cov = 0.5 * (cov + cov.T)
        return cls._from_moments(mean, cov, count)

    @classmethod
    def _from_moments(cls, mean, cov, count) -> "ClassStats":
        d = len(mean)
        eps = 1e-6 * float(np.trace(cov)) / d
        try:
            factor = cho_factor(cov + eps * np.eye(d), lower=True)
        except (np.linalg.LinAlgError, ValueError) as exc:   # ValueError: NaN or inf
            raise FactorizationFailure(str(exc)) from exc
        # LAPACK's triangular inverse: solve_triangular against the
        # identity took ~7 ms per class right after a numpy GEMM (scipy's
        # BLAS threads contend with numpy's), trtri ~0.1 ms
        whiten = np.tril(lapack.dtrtri(factor[0], lower=1)[0])
        return cls(mean=mean, cov=cov, count=count, epsilon=eps,
                   _factor=factor, whiten=whiten)

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt((x - mu)^T (S + eps I)^{-1} (x - mu)) via the stored factor."""
        return float(self.mahalanobis_many(np.atleast_2d(x))[0])

    def mahalanobis_many(self, xs: np.ndarray) -> np.ndarray:
        """Reference path: one triangular solve pair per call."""
        xs = np.asarray(xs, dtype=np.float64)
        _check_rows(xs, len(self.mean))
        delta = xs - self.mean
        z = cho_solve(self._factor, delta.T)
        # clip tiny negative round-off before the root
        sq = np.maximum((delta * z.T).sum(axis=1), 0.0)
        return np.sqrt(sq)


def fit_stats(features: np.ndarray, labels: np.ndarray) -> list[ClassStats]:
    """Per-class Gaussian statistics, index j = dense class j."""
    labels = np.asarray(labels)
    features = np.asarray(features, dtype=np.float64)
    n = int(labels.max()) + 1
    return [ClassStats.fit(features[labels == j]) for j in range(n)]


class DetectorModel:
    """Fitted per-class statistics plus calibrated distance thresholds."""

    def __init__(self, stats: list[ClassStats],
                 percentile: float = DEFAULT_PERCENTILE):
        if not 0 < percentile <= 1:
            raise ValueError("percentile must be in (0, 1]")
        self.stats = stats
        self.percentile = percentile
        self.thresholds = None
        self._stack_maps()

    def _stack_maps(self):
        """Stack the classes' whitening maps into one (d, n*d) matrix and
        their offsets L^-1 mu into one (n*d,) vector."""
        d = len(self.stats[0].mean)
        self._maps = np.concatenate([s.whiten.T for s in self.stats], axis=1)
        # the offsets go through the same GEMM as the features, so a
        # feature equal to a class mean is at distance 0.0 exactly
        projected = self._whiten_rows(np.stack([s.mean for s in self.stats]))
        self._offsets = np.concatenate(
            [projected[j, j * d:(j + 1) * d] for j in range(self.n_classes)])

    def _whiten_rows(self, rows: np.ndarray) -> np.ndarray:
        """rows @ maps. numpy sends a one-row product to GEMV, which rounds
        differently from GEMM, so one row is padded to two: a feature's
        distances are then the same bits at any batch size."""
        if len(rows) == 1:
            return (np.concatenate([rows, rows]) @ self._maps)[:1]
        return rows @ self._maps

    @property
    def n_classes(self):
        return len(self.stats)

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Per-class Mahalanobis distances of a single feature vector."""
        return self.distances_many(np.atleast_2d(x))[0]

    def distances_many(self, xs: np.ndarray) -> np.ndarray:
        """(M, n_classes) distance matrix, one GEMM per block of rows."""
        xs = np.asarray(xs)
        n, d = self.n_classes, self._maps.shape[0]
        _check_rows(xs, d)
        if not np.isfinite(xs).all():
            raise NonFiniteFeature("feature holds NaN or inf")
        out = np.empty((len(xs), n))
        for start in range(0, len(xs), BLOCK_ROWS):
            rows = np.ascontiguousarray(xs[start:start + BLOCK_ROWS],
                                        dtype=np.float64)
            z = self._whiten_rows(rows)
            z -= self._offsets
            np.square(z, out=z)
            np.sqrt(z.reshape(len(rows), n, d).sum(axis=2),
                    out=out[start:start + len(rows)])
        return out

    def calibrate(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Set each class threshold to the percentile (linear interpolation)
        of that class's own training distances."""
        labels = np.asarray(labels)
        dists = self.distances_many(features)
        thresholds = np.empty(self.n_classes)
        for j in range(self.n_classes):
            member = dists[labels == j, j]
            if len(member) == 0:
                raise DegenerateClass(f"no calibration samples for class {j}")
            thresholds[j] = np.quantile(member, self.percentile)
        self.thresholds = thresholds
        return thresholds

    def snap32(self):
        """Round all statistics to float32-representable values so a
        saved archive reloads to a bit-identical detector."""
        def snap(a):
            return np.asarray(a).astype(np.float32).astype(np.float64)

        self.stats = [ClassStats._from_moments(snap(s.mean), snap(s.cov),
                                               s.count)
                      for s in self.stats]
        self._stack_maps()
        if self.thresholds is not None:
            self.thresholds = snap(self.thresholds)
        return self

    def is_normal(self, x: np.ndarray) -> bool:
        """True iff some class accepts x (distance <= threshold, inclusive)."""
        if self.thresholds is None:
            raise NotCalibrated("call calibrate() first")
        return bool((self.distances(x) <= self.thresholds).any())

    def is_normal_many(self, xs: np.ndarray) -> np.ndarray:
        if self.thresholds is None:
            raise NotCalibrated("call calibrate() first")
        return (self.distances_many(xs) <= self.thresholds).any(axis=1)

    def anomaly_score(self, x: np.ndarray) -> float:
        """Distance to the nearest class model; higher = more anomalous."""
        return float(self.distances(x).min())

    def anomaly_score_many(self, xs: np.ndarray) -> np.ndarray:
        return self.distances_many(xs).min(axis=1)


def detect(det: DetectorModel, model, image: np.ndarray) -> bool:
    """Full-image criterion: embed through the backbone, then accept if
    any class distance is inside its threshold. False marks anomalous."""
    from .nn import extract_features

    feats = extract_features(model, image)
    return det.is_normal(feats[0])
