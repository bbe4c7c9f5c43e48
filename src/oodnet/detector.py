"""Distance-based anomaly detector: per-class Gaussian fits over deep
features, Mahalanobis distances via Cholesky solves, percentile
thresholds, and the any-class acceptance criterion."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (DegenerateClass, DimMismatch, FactorizationFailure,
                     NotCalibrated)

DEFAULT_PERCENTILE = 0.975


@dataclass
class ClassStats:
    """Gaussian fit of one class: mean, covariance, and the Cholesky
    factorization of the regularized covariance."""
    mean: np.ndarray
    cov: np.ndarray
    count: int
    epsilon: float
    _factor: tuple = None

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
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(str(exc)) from exc
        return cls(mean=mean, cov=cov, count=count, epsilon=eps, _factor=factor)

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt((x - mu)^T (S + eps I)^{-1} (x - mu)) via the stored factor."""
        return float(self.mahalanobis_many(np.atleast_2d(x))[0])

    def mahalanobis_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.shape[1] != len(self.mean):
            raise DimMismatch(f"dim {xs.shape[1]} vs {len(self.mean)}")
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

    @property
    def n_classes(self):
        return len(self.stats)

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Per-class Mahalanobis distances of a single feature vector."""
        return self.distances_many(np.atleast_2d(x))[0]

    def distances_many(self, xs: np.ndarray) -> np.ndarray:
        """(M, n_classes) distance matrix."""
        return np.stack([s.mahalanobis_many(xs) for s in self.stats], axis=1)

    def calibrate(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Set each class threshold to the percentile (linear interpolation)
        of that class's own training distances."""
        labels = np.asarray(labels)
        thresholds = np.empty(self.n_classes)
        for j, stat in enumerate(self.stats):
            member = np.asarray(features)[labels == j]
            if len(member) == 0:
                raise DegenerateClass(f"no calibration samples for class {j}")
            dists = stat.mahalanobis_many(member)
            thresholds[j] = np.quantile(dists, self.percentile)
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
