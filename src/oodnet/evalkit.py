"""Metrics: confusion counts, F1, ROC/AUC sweeps, 2-D PCA projection,
and the one CSV writer behind every CSV the toolkit emits."""
from __future__ import annotations

import csv
import os
from statistics import median

import numpy as np

from .errors import DegenerateInput, LabelOutOfRange, SingleClass


def confusion(true: np.ndarray, pred: np.ndarray, n: int) -> np.ndarray:
    """n x n count matrix indexed (true class, predicted class); a label
    outside [0, n) raises LabelOutOfRange."""
    true = np.asarray(true, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    for labels in (true, pred):
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= n:
            raise LabelOutOfRange(f"labels must lie in [0, {n})")
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return counts


def _f1_for_class(counts: np.ndarray, j: int) -> float:
    tp = counts[j, j]
    fp = counts[:, j].sum() - tp
    fn = counts[j, :].sum() - tp
    if 2 * tp + fp + fn == 0:
        return 0.0
    return float(2 * tp / (2 * tp + fp + fn))


def f1(counts: np.ndarray, mode: str = "macro") -> float:
    """binary-positive: F1 of class 1; macro: unweighted per-class mean."""
    counts = np.asarray(counts)
    if counts.sum() == 0:
        raise ValueError("empty confusion counts")
    if mode == "binary-positive":
        return _f1_for_class(counts, 1)
    if mode == "macro":
        return float(np.mean([_f1_for_class(counts, j)
                              for j in range(len(counts))]))
    raise ValueError(f"unknown mode {mode!r}")


class RocCurve:
    """ROC sweep; points are (fpr, tpr, threshold) with anomalous positive."""

    def __init__(self, points: np.ndarray, auc: float):
        self.points = points
        self.auc = auc

    @property
    def fpr(self):
        return self.points[:, 0]

    @property
    def tpr(self):
        return self.points[:, 1]

    @property
    def thresholds(self):
        return self.points[:, 2]


def roc(scores, is_anomalous, higher_is_anomalous: bool = True) -> RocCurve:
    """ROC over all distinct score cut points, anomalous class positive.

    For min-distance scores pass higher_is_anomalous=True; for head
    probabilities (low p = anomalous) pass False. AUC is trapezoidal,
    which credits ties with one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_anomalous = np.asarray(is_anomalous, dtype=bool)
    pos = int(is_anomalous.sum())
    neg = len(is_anomalous) - pos
    if pos == 0 or neg == 0:
        raise SingleClass("need both anomalous and normal samples")
    keyed = scores if higher_is_anomalous else -scores
    order = np.argsort(-keyed, kind="stable")
    keyed = keyed[order]
    flags = is_anomalous[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    # keep one point per distinct score (last index of each tie group)
    distinct = np.nonzero(np.diff(keyed, append=np.nan))[0]
    tpr = np.concatenate([[0.0], tp[distinct] / pos])
    fpr = np.concatenate([[0.0], fp[distinct] / neg])
    thresholds = np.concatenate([[np.inf], scores[order][distinct]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(np.stack([fpr, tpr, thresholds], axis=1), auc)


def pca2(features: np.ndarray):
    """Top-2 principal directions of the centered feature matrix.

    Returns (components (2, d), projections (M, 2)). Component sign is
    fixed so the largest-magnitude entry of each component is positive.
    """
    X = np.asarray(features, dtype=np.float64)
    if len(X) < 2:
        raise DegenerateInput("need at least 2 samples")
    Xc = X - X.mean(axis=0)
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    if s[0] == 0:
        raise DegenerateInput("all features identical")
    components = Vt[:2]
    if len(components) < 2:  # d == 1
        components = np.vstack([components, np.zeros_like(components)])
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    return components, Xc @ components.T


# ---------------------------------------------------------------------------
# CSV emitters

METRICS_COLUMNS = ["lambda", "seed", "method", "f1", "auc"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, columns, rows):
    """A header line of columns, then one line per row of cells: '' for
    None, the round-trip repr of a float, str of anything else. Pass
    Python floats: a numpy float's repr names its type. The file's
    directory is made if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_metrics_csv(rows: list[dict], path):
    write_csv(path, METRICS_COLUMNS,
              ([row.get(col) for col in METRICS_COLUMNS] for row in rows))


def write_roc_csv(curve: RocCurve, path):
    write_csv(path, ["fpr", "tpr", "threshold"], curve.points.tolist())


def write_projection_csv(proj: np.ndarray, labels, is_ood, path):
    write_csv(path, ["x", "y", "label", "is_ood"],
              ((x, y, int(label), int(flag))
               for (x, y), label, flag in zip(proj.tolist(), labels, is_ood)))


def write_median_csv(rows: list[dict], path):
    """Median across seeds of metrics rows, for each (lambda, method)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["lambda"], row["method"]), []).append(row)
    out = []
    for (lam, method), cells in sorted(groups.items(), key=lambda kv: kv[0]):
        aucs = [c["auc"] for c in cells if c["auc"] is not None]
        out.append((lam, method, median(c["f1"] for c in cells),
                    median(aucs) if aucs else None))
    write_csv(path, ["lambda", "method", "f1_median", "auc_median"], out)
