import numpy as np
import pytest

from oodnet import Backbone, Centers, synth_blobs
from oodnet.data import LabeledDataset


@pytest.fixture
def blob_ds():
    return synth_blobs(3, 40, side=12, separation=3.5, seed=0)


@pytest.fixture
def small_model():
    return Backbone(3, input_side=12, seed=0)


def f64_setup(n_classes=3, side=12, batch=4, seed=0):
    """Small float64 model, centroids and batch for gradient verification."""
    ds = synth_blobs(n_classes, 10, side=side, separation=3.5, seed=seed + 1)
    model = Backbone(n_classes, input_side=side, seed=seed).astype(np.float64)
    centers = Centers(n_classes, model.feature_dim, seed=seed)
    centers.values = centers.values.astype(np.float64)
    mb = LabeledDataset(ds.images[:batch].astype(np.float64), ds.labels[:batch])
    return model, centers, mb


def nearest_mean_accuracy(ds) -> float:
    """Brute-force nearest-class-mean classifier on raw pixels."""
    flat = ds.images.reshape(len(ds), -1)
    n = ds.n_classes
    means = np.stack([flat[ds.labels == j].mean(axis=0) for j in range(n)])
    dists = ((flat[:, None, :] - means[None]) ** 2).sum(axis=2)
    return float((dists.argmin(axis=1) == ds.labels).mean())
