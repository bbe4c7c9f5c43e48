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
    """Immutable image dataset with dense integer labels. It holds
    read-only views of the arrays it is given (no pixel is copied), and
    leaves the caller's own arrays writeable.

    images: (M, H, W), either IDX bytes (uint8, held at one byte per
        pixel and scaled by ``normalize`` as they enter the network) or
        float32 in [0, 1]
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
        if self.labels.ndim != 1:
            raise ShapeMismatch(f"labels must be (M,), got shape {self.labels.shape}")
        if len(self.images) != len(self.labels):
            raise DimMismatch(f"{len(self.images)} images, {len(self.labels)} labels")
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        values = set(self.class_map.values())
        if len(values) != len(self.class_map):
            raise ValueError("class_map is not injective")
        for name in ("images", "labels"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def __len__(self):
        return len(self.images)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


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
    if len(data) - header != expected:
        raise TruncatedPayload(f"expected {expected} payload bytes, got {len(data) - header}")
    try:   # a view of data past the header: the payload is not copied
        return np.frombuffer(data, np.uint8, count=expected, offset=header).reshape(dims)
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
    copy, divided in place. The input is never written to. The backbone's
    forward applies it to uint8 images, so an IDX split or batch is held
    as bytes and only the rows entering the network are scaled; every
    value is scaled alone, so any slicing gives the same bits."""
    images = np.array(raw, dtype=np.float32)
    images /= 255.0
    return images


def load_idx_dataset(image_path, label_path, role: str) -> LabeledDataset:
    images = load_idx_file(image_path)   # bytes: the model scales them
    labels = load_idx_file(label_path).astype(np.int64)
    class_map = {int(c): int(c) for c in np.unique(labels)}
    return LabeledDataset(images, labels, class_map, role)


def split_classes(ds: LabeledDataset, keep) -> LabeledDataset:
    """Filter a dataset down to the given original classes, renumbered to
    a dense [0, len(keep)) in ascending original order (class_map holds
    original -> dense), so the kept labels index the kept classes.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise EmptySplit("keep set is empty")
    mask = np.isin(ds.labels, keep)
    if not mask.any():
        raise EmptySplit(f"no samples with labels in {keep}")
    labels = np.searchsorted(keep, ds.labels[mask]).astype(np.int64)
    mapping = {orig: dense for dense, orig in enumerate(keep)}
    # boolean indexing copies: the result shares no memory with ds
    return LabeledDataset(ds.images[mask], labels, mapping, ds.role)


def make_batches(ds: LabeledDataset, m: int, seed: int = 0) -> Iterator[LabeledDataset]:
    """Partition one shuffled epoch of the dataset into batches of size m:
    each batch is a LabeledDataset with ds's class_map and role.

    The order is ``np.arange(len(ds))`` shuffled by ``default_rng(seed)``;
    batch k holds rows ``order[k*m:(k+1)*m]`` and the last may be short.
    m is checked and the order drawn at the call; each batch is copied
    out as it is drawn.
    """
    if m < 1:
        raise ValueError("batch size must be >= 1")
    order = np.arange(len(ds))
    np.random.default_rng(seed).shuffle(order)
    return (LabeledDataset(ds.images[order[i:i + m]], ds.labels[order[i:i + m]],
                           ds.class_map, ds.role)
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

    Draw order (a contract: the same seed gives the same bits): images
    come class by class, and each takes 2 + side*side standard normals
    from ``default_rng(seed)`` in turn: its (y, x) jitter, scaled by 0.5,
    then its row-major pixel noise, scaled by 0.05. This is the stream
    that one ``rng.normal(0, 0.5, size=2)`` and one
    ``rng.normal(0, 0.05, size=(side, side))`` per image would take; it
    is drawn and rendered in chunks of whole images.
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
    labels[:] = np.arange(len(labels)) // per_class
    grid = np.arange(side, dtype=np.float32)
    sigma, noise, chunk = 1.2, 0.05, 64
    for s in range(0, len(images), chunk):
        lab = labels[s:s + chunk]
        z = rng.standard_normal((len(lab), 2 + side * side))
        jy, jx = (centers[lab] + 0.5 * z[:, :2]).T
        # (i - jy)^2 + (j - jx)^2 per pixel, in float64 as the jitter is
        img = (((grid - jy[:, None]) ** 2)[:, :, None]
               + ((grid - jx[:, None]) ** 2)[:, None, :])
        np.negative(img, out=img)
        img /= 2 * sigma ** 2
        np.exp(img, out=img)
        img += (noise * z[:, 2:]).astype(np.float32).reshape(img.shape)
        np.clip(img, 0.0, 1.0, out=img)
        images[s:s + chunk] = img
    class_map = {c: c for c in range(n_classes)}
    return LabeledDataset(images, labels, class_map, role)
