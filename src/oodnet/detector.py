"""Distance-based anomaly detector: per-class Gaussian fits over deep
features, percentile thresholds, and the any-class acceptance criterion.

Each class keeps the Cholesky factor L of its regularized covariance, so
its Mahalanobis distance is |L^-1 (x - mu)|. The detector stacks every
class's whitening map L^-1 into one (d, n*d) matrix and scores all
classes of a row with one product of that row alone."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CorruptLength, DegenerateClass, FactorizationFailure,
                     NotCalibrated, ShapeMismatch, json_field, json_list)
from .nn import _map_rows, checked_blob, feature_rows

DEFAULT_PERCENTILE = 0.975


def check_percentile(value, error: type, where: str = "percentile"):
    """value, which must be a fraction in (0, 1]: the one rule of the
    detector's percentile and the head's tau, in the config and in an
    archive, each raising its own error."""
    if not 0 < value <= 1:
        raise error(f"{where} {value} not in (0, 1]")
    return value


def check_class_count(count: int, n: int):
    """An archive's detector holds one class per backbone class: the rule
    from_stored applies on load and archive.save_model before it writes."""
    if count != n:
        raise ShapeMismatch(f"detector.counts: {count} classes, "
                            f"arch.n_classes {n}")


def cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 b for the lower Cholesky factor L, by two solves."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


@dataclass
class ClassStats:
    """Gaussian fit of one class: mean, covariance and the lower Cholesky
    factor L of the regularized covariance."""
    mean: np.ndarray
    cov: np.ndarray
    count: int
    epsilon: float
    _factor: np.ndarray = None

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
            factor = np.linalg.cholesky(cov + eps * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(str(exc)) from exc
        if not np.isfinite(factor).all():   # numpy passes NaN and inf through
            raise FactorizationFailure("covariance holds NaN or inf")
        return cls(mean=mean, cov=cov, count=count, epsilon=eps, _factor=factor)

    def mahalanobis(self, x: np.ndarray) -> float:
        """sqrt((x - mu)^T (S + eps I)^{-1} (x - mu)) via the stored factor,
        for one feature vector x of d values; any other shape is DimMismatch."""
        return float(self.mahalanobis_many(np.asarray(x)[None])[0])

    def mahalanobis_many(self, xs: np.ndarray) -> np.ndarray:
        """Reference path: one triangular solve pair per call."""
        xs = feature_rows(np.asarray(xs, dtype=np.float64), len(self.mean))
        delta = xs - self.mean
        z = cho_solve(self._factor, delta.T)
        # clip tiny negative round-off before the root
        sq = np.maximum((delta * z.T).sum(axis=1), 0.0)
        return np.sqrt(sq)


def fit_stats(features: np.ndarray, labels: np.ndarray) -> list[ClassStats]:
    """Per-class Gaussian statistics, index j = dense class j."""
    labels = np.asarray(labels)
    features = np.asarray(features, dtype=np.float64)
    if not len(labels):
        raise DegenerateClass("no samples to fit")
    stats = []
    for j in range(int(labels.max()) + 1):
        try:
            stats.append(ClassStats.fit(features[labels == j]))
        except DegenerateClass as exc:
            raise DegenerateClass(f"class {j}: {exc}") from None
    return stats


class DetectorModel:
    """Fitted per-class statistics plus calibrated distance thresholds."""

    def __init__(self, stats: list[ClassStats],
                 percentile: float = DEFAULT_PERCENTILE):
        self.stats = stats
        self.percentile = check_percentile(percentile, ValueError)
        self.thresholds = None
        self._stack_maps()

    def _stack_maps(self):
        """Stack the classes' whitening maps L^-1 into one (d, n*d) matrix
        and their offsets L^-1 mu into one (n*d,) vector."""
        d = len(self.stats[0].mean)
        self._maps = np.concatenate(
            [np.tril(np.linalg.inv(s._factor)).T for s in self.stats], axis=1)
        # the offsets go through the same product as the features, so a
        # feature equal to a class mean is at distance 0.0 exactly
        projected = self._whiten_rows(np.stack([s.mean for s in self.stats]))
        self._offsets = np.concatenate(
            [projected[j, j * d:(j + 1) * d] for j in range(self.n_classes)])

    def _whiten_rows(self, rows: np.ndarray) -> np.ndarray:
        """rows @ maps as one GEMV per row. A GEMM over the rows picks its
        kernel by row count and thread count, and with it the rounding."""
        return np.matmul(rows[:, None, :], self._maps)[:, 0]

    @property
    def n_classes(self):
        return len(self.stats)

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Per-class Mahalanobis distances of one feature vector x of d
        values; any other shape is DimMismatch (nn.feature_rows)."""
        return self.distances_many(np.asarray(x)[None])[0]

    def distances_many(self, xs: np.ndarray) -> np.ndarray:
        """(M, n_classes) distance matrix, in row slices spread over the
        usable CPUs (nn._map_rows)."""
        xs = feature_rows(np.asarray(xs), self._maps.shape[0])
        return np.concatenate(_map_rows(self._block_distances, xs))

    def _block_distances(self, xs: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(xs, dtype=np.float64)
        z = self._whiten_rows(rows)
        z -= self._offsets
        np.square(z, out=z)
        return np.sqrt(z.reshape(len(rows), self.n_classes, xs.shape[1]).sum(axis=2))

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

    def stored(self) -> tuple[dict, dict]:
        """-> (archive header, float32 blobs): each class's mean and upper
        covariance triangle, then the thresholds once calibrated."""
        upper = np.triu_indices(len(self.stats[0].mean))
        blobs = {}
        for j, s in enumerate(self.stats):
            blobs[f"det.mean.{j}"] = s.mean.astype(np.float32)
            blobs[f"det.cov_upper.{j}"] = s.cov[upper].astype(np.float32)
        if self.thresholds is not None:
            blobs["det.thresholds"] = self.thresholds.astype(np.float32)
        header = {"percentile": self.percentile,
                  "counts": [s.count for s in self.stats],
                  "calibrated": self.thresholds is not None}
        return header, blobs

    @classmethod
    def from_stored(cls, header, blobs, n: int, d: int) -> "DetectorModel":
        """Inverse of stored() for n classes of d features. A bad header
        value is CorruptLength; a class count other than n, or a missing or
        misshapen blob, is ShapeMismatch."""
        counts = json_field(header, "counts", int, "detector", 0, json_list)
        check_class_count(len(counts), n)
        percentile = check_percentile(
            json_field(header, "percentile", float, "detector"), CorruptLength,
            "detector.percentile")
        upper = np.triu_indices(d)
        stats = []
        for j, count in enumerate(counts):
            mean = checked_blob(blobs, f"det.mean.{j}", (d,)).astype(np.float64)
            cov = np.empty((d, d))
            cov[upper] = cov[upper[::-1]] = checked_blob(
                blobs, f"det.cov_upper.{j}", (len(upper[0]),))
            stats.append(ClassStats._from_moments(mean, cov, count))
        det = cls(stats, percentile)
        if json_field(header, "calibrated", bool, "detector"):
            det.thresholds = checked_blob(blobs, "det.thresholds",
                                          (n,)).astype(np.float64)
        return det

    def snap32(self):
        """Take, in place, the state this detector reloads to from its
        stored float32 form: what a run evaluates is what its archive holds."""
        vars(self).update(vars(self.from_stored(
            *self.stored(), self.n_classes, len(self.stats[0].mean))))
        return self

    def accepts(self, dists: np.ndarray):
        """The detector's verdict on distances (one row or a matrix): normal
        iff some class is at <= its threshold, inclusive."""
        if self.thresholds is None:
            raise NotCalibrated("call calibrate() first")
        return (dists <= self.thresholds).any(axis=-1)

    def is_normal(self, x: np.ndarray) -> bool:
        """True iff some class accepts the feature vector x."""
        return bool(self.accepts(self.distances(x)))

    def is_normal_many(self, xs: np.ndarray) -> np.ndarray:
        return self.accepts(self.distances_many(xs))

    def anomaly_score(self, x: np.ndarray) -> float:
        """Distance to the nearest class model; higher = more anomalous."""
        return float(self.distances(x).min())

    def anomaly_score_many(self, xs: np.ndarray) -> np.ndarray:
        return self.distances_many(xs).min(axis=1)
