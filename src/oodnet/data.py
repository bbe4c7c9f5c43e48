"""Dataset ingestion: IDX parsing, class splits, normalization, batching,
and a synthetic blob generator used as the default test-scale dataset."""
from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimMismatch, EmptySplit, ShapeMismatch, TruncatedPayload,
                     UnsupportedMagic)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

ROLE_MAIN_TRAIN = "main-train"
ROLE_MAIN_TEST = "main-test"
ROLE_ANOMALY = "anomaly"
_ROLES = (ROLE_MAIN_TRAIN, ROLE_MAIN_TEST, ROLE_ANOMALY)


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable image dataset with dense integer labels.

    images: (M, H, W) float32 in [0, 1]
    labels: (M,) int64, values in [0, n)
    class_map: original label -> dense label
    role: split provenance, one of main-train / main-test / anomaly
    """
    images: np.ndarray
    labels: np.ndarray
    class_map: dict = field(default_factory=dict)
    role: str = ROLE_MAIN_TRAIN

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ShapeMismatch(f"images must be (M, H, W), got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise DimMismatch(f"{len(self.images)} images, {len(self.labels)} labels")
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        values = set(self.class_map.values())
        if len(values) != len(self.class_map):
            raise ValueError("class_map is not injective")
        self.images.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self):
        return len(self.images)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


@dataclass(frozen=True)
class MiniBatch:
    images: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.images)


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX byte stream into a u8 image tensor or a label vector."""
    if len(data) < 4:
        raise TruncatedPayload("stream shorter than magic number")
    magic, = struct.unpack(">I", data[:4])
    if magic == IDX_LABELS_MAGIC:
        ndim = 1
    elif magic == IDX_IMAGES_MAGIC:
        ndim = 3
    else:
        raise UnsupportedMagic(f"magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(data) < header:
        raise TruncatedPayload("stream shorter than declared header")
    dims = struct.unpack(f">{ndim}I", data[4:header])
    expected = math.prod(dims)   # exact: an int64 product can wrap to 0
    payload = data[header:]
    if len(payload) != expected:
        raise TruncatedPayload(f"expected {expected} payload bytes, got {len(payload)}")
    try:
        return np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    except ValueError as exc:   # a zero size, and the others' product past 2**63
        raise TruncatedPayload(f"dims {dims}: {exc}") from exc


def serialize_idx(array: np.ndarray) -> bytes:
    """Inverse of parse_idx; emits big-endian headers and raw u8 payload."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    if arr.ndim == 1:
        magic = IDX_LABELS_MAGIC
    elif arr.ndim == 3:
        magic = IDX_IMAGES_MAGIC
    else:
        raise ValueError(f"cannot serialize array of rank {arr.ndim}")
    header = struct.pack(f">I{arr.ndim}I", magic, *arr.shape)
    return header + arr.tobytes()


def load_idx_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_idx(fh.read())


def normalize(raw: np.ndarray) -> np.ndarray:
    """Scale byte intensities [0, 255] to unit-interval float32: one fresh
    copy, divided in place, so a split is held as float32 once. The input
    is never written to."""
    images = np.array(raw, dtype=np.float32)
    images /= 255.0
    return images


def load_idx_dataset(image_path, label_path, role: str) -> LabeledDataset:
    images = normalize(load_idx_file(image_path))
    labels = load_idx_file(label_path).astype(np.int64)
    class_map = {int(c): int(c) for c in np.unique(labels)}
    return LabeledDataset(images, labels, class_map, role)


def split_classes(ds: LabeledDataset, keep, relabel: bool = False) -> LabeledDataset:
    """Filter a dataset down to the given original classes.

    With relabel on, kept classes are remapped to a dense [0, len(keep))
    range in ascending original order.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise EmptySplit("keep set is empty")
    mask = np.isin(ds.labels, keep)
    if not mask.any():
        raise EmptySplit(f"no samples with labels in {keep}")
    labels = ds.labels[mask]
    if relabel:
        mapping = {orig: dense for dense, orig in enumerate(keep)}
        labels = np.array([mapping[int(v)] for v in labels], dtype=np.int64)
    else:
        mapping = {orig: orig for orig in keep}
    return LabeledDataset(ds.images[mask].copy(), labels, mapping, ds.role)


def make_batches(ds: LabeledDataset, m: int, seed: int = 0) -> Iterator[MiniBatch]:
    """Partition one shuffled epoch of the dataset into batches of size m.

    The permutation is a pure function of the seed; the final batch may
    be short. m is checked and the order drawn at the call; each batch is
    copied out as it is drawn.
    """
    if m < 1:
        raise ValueError("batch size must be >= 1")
    order = np.arange(len(ds))
    np.random.default_rng(seed).shuffle(order)
    return (MiniBatch(ds.images[order[i:i + m]], ds.labels[order[i:i + m]])
            for i in range(0, len(order), m))


def _class_layout(n_classes: int, side: float, separation: float,
                  layout_seed: int) -> np.ndarray:
    """Blob center positions: points on a seeded, randomly rotated circle."""
    rng = np.random.default_rng(layout_seed)
    phase = rng.uniform(0, 2 * np.pi)
    angles = phase + 2 * np.pi * np.arange(n_classes) / n_classes
    cx = side / 2 + separation * np.cos(angles)
    cy = side / 2 + separation * np.sin(angles)
    return np.stack([cy, cx], axis=1)


def synth_blobs(n_classes: int, per_class: int, side: int = 12,
                separation: float = 3.0, seed: int = 0,
                role: str = ROLE_MAIN_TRAIN, layout_seed: int = 0) -> LabeledDataset:
    """Generate a dataset of bright Gaussian blobs, one location per class,
    plus Gaussian pixel noise of standard deviation 0.05.

    layout_seed picks where class blobs sit, independently of the sample
    seed, so an anomaly set can be drawn from a disjoint layout.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    try:   # before anything else is drawn: a size no memory holds
        images = np.empty((n_classes * per_class, side, side), dtype=np.float32)
        labels = np.empty(n_classes * per_class, dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise ShapeMismatch(f"{n_classes} classes x {per_class} images of "
                            f"{side}x{side}: {exc}") from exc
    rng = np.random.default_rng(seed)
    centers = _class_layout(n_classes, side, separation, layout_seed)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float32)
    sigma, noise = 1.2, 0.05
    k = 0
    for cls in range(n_classes):
        for _ in range(per_class):
            jy, jx = centers[cls] + rng.normal(0, 0.5, size=2)
            img = np.exp(-((yy - jy) ** 2 + (xx - jx) ** 2) / (2 * sigma ** 2))
            img += rng.normal(0, noise, size=img.shape).astype(np.float32)
            images[k] = np.clip(img, 0.0, 1.0)
            labels[k] = cls
            k += 1
    class_map = {c: c for c in range(n_classes)}
    return LabeledDataset(images, labels, class_map, role)
