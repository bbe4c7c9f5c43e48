"""Second-stage anomaly head: a 256-256-1 sigmoid MLP over deep
features, trained with binary cross-entropy against labeled anomaly
data while the backbone stays frozen."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, NonFiniteLoss
from .nn import (SGD, Backbone, Dense, LayerStack, ReLU, SGDConfig,
                 _map_rows, _one_blas_thread, bounded, extract_features,
                 feature_rows)

BCE_CLAMP = 1e-7


class OodHead(LayerStack):
    """dense(d -> 256) / relu / dense(256 -> 256) / relu / dense(256 -> 1)
    with sigmoid output. Emits probability of the sample being normal."""
    blob_names = ("head1", "head2", "head3")

    def __init__(self, in_dim: int, seed: int = 0, dtype=np.float32,
                 tau: float = 0.5):
        rng = np.random.default_rng(seed)
        self.layers = [
            Dense(in_dim, 256, rng, dtype), ReLU(),
            Dense(256, 256, rng, dtype), ReLU(),
            Dense(256, 1, rng, dtype),
        ]
        self.in_dim = in_dim
        self.tau = tau
        self.dtype = dtype

    def spec(self) -> dict:
        return {"in_dim": self.in_dim, "tau": self.tau}

    def forward_many(self, features: np.ndarray, tape=None) -> np.ndarray:
        """(m,) probabilities of feature rows: one pass recording into tape
        if given, else the rows spread over the usable CPUs (nn._map_rows)."""
        # checked after the cast: a float64 1e300 is inf as float32
        h = feature_rows(np.asarray(features, dtype=self.dtype), self.in_dim)
        z = (self.run(h, tape) if tape is not None
             else np.concatenate(_map_rows(self.run, h)))
        return _sigmoid(z[:, 0])

    def accepts(self, p):
        """p >= tau, inclusive (a normal verdict), for a scalar or array p,
        compared in float64: numpy would round tau to p's float32."""
        return np.asarray(p, dtype=np.float64) >= self.tau

    def backward(self, dlogit: np.ndarray, tape: list):
        """Backprop from the pre-sigmoid logit gradient (m,) and its forward's
        tape -> the parameter gradients, in parameters() order."""
        return self.run_back(dlogit[:, None].astype(self.dtype), tape)[1]


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_many(p: np.ndarray, y: np.ndarray) -> float:
    """Summed binary cross-entropy with probabilities clamped away from
    {0, 1}."""
    p = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)).sum())


def classify_ood(head: OodHead, feature: np.ndarray) -> str:
    """'normal' when the head accepts the p of one feature vector, else
    'ood'. Any shape but (in_dim,) is DimMismatch (nn.feature_rows)."""
    p = head.forward_many(np.asarray(feature)[None])[0]
    return "normal" if head.accepts(p) else "ood"


@dataclass
class HeadTrainConfig(SGDConfig):
    epochs: int = bounded(20, 0)


def train_head(model: Backbone, head: OodHead, main_ds, anomaly_ds,
               cfg: HeadTrainConfig) -> list[float]:
    """Second-stage training: fit the head on frozen-backbone features,
    label 1 = normal (main data), 0 = anomaly.

    Each epoch subsamples the larger source down to the smaller one so
    batches stay balanced. Returns the per-epoch mean loss trace. An empty
    dataset raises EmptyDataset.
    """
    return train_head_on_features(head, extract_features(model, main_ds.images),
                                  extract_features(model, anomaly_ds.images), cfg)


@_one_blas_thread()
def train_head_on_features(head: OodHead, feats_main, feats_anom,
                           cfg: HeadTrainConfig) -> list[float]:
    rng = np.random.default_rng(cfg.seed)
    optimizer = SGD(head.parameters(), cfg.learning_rate, cfg.momentum)
    k = min(len(feats_main), len(feats_anom))
    if not k:
        raise EmptyDataset("no normal or no anomaly features to train on")
    trace = []
    for epoch in range(cfg.epochs):
        idx_main = rng.choice(len(feats_main), size=k, replace=False)
        idx_anom = rng.choice(len(feats_anom), size=k, replace=False)
        X = np.concatenate([feats_main[idx_main], feats_anom[idx_anom]])
        y = np.concatenate([np.ones(k), np.zeros(k)])
        order = rng.permutation(len(X))
        X, y = X[order], y[order]
        total = 0.0
        for i in range(0, len(X), cfg.batch_size):
            xb, yb = X[i:i + cfg.batch_size], y[i:i + cfg.batch_size]
            tape = []
            p = head.forward_many(xb, tape)
            loss = bce_many(p, yb)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"head loss={loss} on batch "
                                    f"{i // cfg.batch_size} of epoch {epoch}")
            total += loss
            # d(bce)/d(logit) = p - y, averaged over the batch
            optimizer.step(head.backward((p - yb) / len(xb), tape))
        trace.append(total / len(X))
    return trace
