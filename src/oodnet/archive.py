"""Binary model archive.

Layout: magic b"OODN" | u32 LE version | u64 LE header length |
JSON header | concatenated float32 LE parameter blobs, in header order.
Partial states (e.g. no head yet) are flagged in the header.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .centerloss import Centers
from .detector import ClassStats, DetectorModel
from .errors import BadMagic, CorruptLength, VersionMismatch
from .head import OodHead
from .nn import Backbone, checked_blob

MAGIC = b"OODN"
VERSION = 1


@dataclass
class ModelState:
    """Everything a run produces: backbone, centroids, detector, head."""
    backbone: Backbone
    centers: Centers | None = None
    detector: DetectorModel | None = None
    head: OodHead | None = None
    meta: dict = field(default_factory=dict)


def _pack_upper(mat: np.ndarray) -> np.ndarray:
    return mat[np.triu_indices(len(mat))]


def _unpack_upper(flat: np.ndarray, d: int) -> np.ndarray:
    mat = np.zeros((d, d))
    iu = np.triu_indices(d)
    mat[iu] = flat
    mat = mat + mat.T - np.diag(np.diag(mat))
    return mat


def _collect_blobs(state: ModelState):
    blobs: dict[str, np.ndarray] = dict(state.backbone.state())
    if state.centers is not None:
        blobs["centers"] = state.centers.values
    if state.detector is not None:
        for j, cs in enumerate(state.detector.stats):
            blobs[f"det.mean.{j}"] = cs.mean
            blobs[f"det.cov_upper.{j}"] = _pack_upper(cs.cov)
        if state.detector.thresholds is not None:
            blobs["det.thresholds"] = state.detector.thresholds
    if state.head is not None:
        blobs.update(state.head.state())
    return blobs


def save_model(path, state: ModelState):
    blobs = _collect_blobs(state)
    header = {
        "arch": state.backbone.spec(),
        "has_centers": state.centers is not None,
        "center_rate": state.centers.rate if state.centers else None,
        "has_detector": state.detector is not None,
        "detector": None,
        "has_head": state.head is not None,
        "head_tau": state.head.tau if state.head else None,
        "meta": state.meta,
        "blobs": [{"name": k, "shape": list(v.shape)} for k, v in blobs.items()],
    }
    if state.detector is not None:
        header["detector"] = {
            "percentile": state.detector.percentile,
            "counts": [cs.count for cs in state.detector.stats],
            "calibrated": state.detector.thresholds is not None,
        }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, arr in blobs.items():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {data[:4]!r}")
    version, = struct.unpack("<I", data[4:8])
    if version != VERSION:
        raise VersionMismatch(f"archive version {version}, supported {VERSION}")
    header_len, = struct.unpack("<Q", data[8:16])
    if 16 + header_len > len(data):
        raise CorruptLength("declared header exceeds file size")
    header = json.loads(data[16:16 + header_len])
    offset = 16 + header_len
    blobs = {}
    for entry in header["blobs"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        end = offset + 4 * size
        if end > len(data):
            raise CorruptLength(f"blob {entry['name']} truncated")
        blobs[entry["name"]] = np.frombuffer(
            data[offset:end], dtype="<f4").reshape(entry["shape"])
        offset = end
    if offset != len(data):
        raise CorruptLength("trailing bytes after final blob")

    arch = header["arch"]
    backbone = Backbone(arch["n_classes"], arch["input_side"],
                        arch["feature_dim"])
    backbone.load_state(blobs)
    state = ModelState(backbone=backbone, meta=header.get("meta", {}))

    if header["has_centers"]:
        centers = Centers(arch["n_classes"], arch["feature_dim"],
                          rate=header["center_rate"])
        centers.values = checked_blob(blobs, "centers",
                                      centers.values.shape).copy()
        state.centers = centers
    if header["has_detector"]:
        det_hdr = header["detector"]
        d = arch["feature_dim"]
        stats = []
        for j, count in enumerate(det_hdr["counts"]):
            mean = checked_blob(blobs, f"det.mean.{j}", (d,)).astype(np.float64)
            upper = checked_blob(blobs, f"det.cov_upper.{j}", (d * (d + 1) // 2,))
            cov = _unpack_upper(upper.astype(np.float64), d)
            stats.append(ClassStats._from_moments(mean, cov, count))
        det = DetectorModel(stats, percentile=det_hdr["percentile"])
        if det_hdr["calibrated"]:
            det.thresholds = checked_blob(blobs, "det.thresholds",
                                          (len(stats),)).astype(np.float64)
        state.detector = det
    if header["has_head"]:
        head = OodHead(arch["feature_dim"], tau=header["head_tau"])
        head.load_state(blobs)
        state.head = head
    return state
