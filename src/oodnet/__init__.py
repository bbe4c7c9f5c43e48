"""oodnet: image classification with built-in out-of-distribution
detection via centroid-shaped deep features."""

from .centerloss import Centers, center_loss, center_loss_grads, combine
from .data import (LabeledDataset, MiniBatch, load_idx_dataset, make_batches,
                   normalize, parse_idx, serialize_idx, split_classes,
                   synth_blobs)
from .detector import ClassStats, DetectorModel, detect, fit_stats
from .evalkit import RocCurve, confusion, f1, pca2, roc
from .head import OodHead, bce, classify_ood, head_forward, train_head
from .nn import (Backbone, TrainConfig, embed, extract_features, grad_check,
                 softmax_xent, train, train_epoch)

__version__ = "0.1.0"
