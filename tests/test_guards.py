"""Typed guards of argument checks no other test reaches: each bad call
raises exactly its own error type."""
import numpy as np
import pytest

from oodnet import data, evalkit, nn
from oodnet.centerloss import Centers, center_loss
from oodnet.data import ROLE_MAIN_TEST, LabeledDataset
from oodnet.errors import DimMismatch

IMAGES = np.zeros((2, 12, 12), dtype=np.float32)
LABELS = np.array([0, 1])

GUARDS = {
    "centers-delta-shape": (DimMismatch, lambda: Centers(3, 4).apply_deltas(
        np.zeros((3, 5), dtype=np.float32))),
    "center-loss-lengths": (DimMismatch, lambda: center_loss(
        np.zeros((3, 4), dtype=np.float32), np.zeros(2, dtype=np.int64),
        Centers(3, 4))),
    "dataset-role": (ValueError, lambda: LabeledDataset(
        IMAGES, LABELS, role="validation")),
    "dataset-class-map": (ValueError, lambda: LabeledDataset(
        IMAGES, LABELS, {0: 0, 1: 0})),
    "serialize-rank": (ValueError, lambda: data.serialize_idx(
        np.zeros((2, 2), dtype=np.uint8))),
    "synth-one-class": (ValueError, lambda: data.synth_blobs(1, 5)),
    "synth-no-images": (ValueError, lambda: data.synth_blobs(2, 0)),
    "f1-empty-counts": (ValueError, lambda: evalkit.f1(np.zeros((2, 2)))),
    "f1-mode": (ValueError, lambda: evalkit.f1(np.eye(2), "micro")),
    "train-epoch-role": (ValueError, lambda: nn.train_epoch(
        nn.Backbone(2, input_side=12), Centers(2, 84),
        LabeledDataset(IMAGES, LABELS, role=ROLE_MAIN_TEST), nn.TrainConfig())),
    "grad-check-float32": (ValueError, lambda: nn.grad_check(
        nn.Backbone(2, input_side=12), LabeledDataset(IMAGES, LABELS))),
}


@pytest.mark.parametrize("error,call", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_own_error(error, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_pca2_of_one_feature_pads_a_zero_component():
    components, proj = evalkit.pca2(np.array([[1.0], [3.0], [2.0]]))
    np.testing.assert_array_equal(components, [[1.0], [0.0]])
    np.testing.assert_array_equal(proj, [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
