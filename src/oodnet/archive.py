"""Binary model archive.

Layout: magic b"OODN" | u32 LE version | u64 LE header length |
JSON header | concatenated float32 LE parameter blobs, in header order.
Partial states (e.g. no head yet) are flagged in the header. Each part
supplies its own named blobs; the detector also its header object
(DetectorModel.stored and from_stored).
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .centerloss import Centers
from .detector import DetectorModel, check_class_count, check_percentile
from .errors import (BadMagic, CorruptLength, VersionMismatch, json_field,
                     json_list, parse_json)
from .evalkit import replacing
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


def save_model(path, state: ModelState):
    blobs: dict[str, np.ndarray] = dict(state.backbone.state())
    if state.centers is not None:
        blobs["centers"] = state.centers.values
    detector = None
    if state.detector is not None:
        check_class_count(state.detector.n_classes, state.backbone.n_classes)
        detector, det_blobs = state.detector.stored()
        blobs.update(det_blobs)
    if state.head is not None:
        blobs.update(state.head.state())
    header = {
        "arch": state.backbone.spec(),
        "has_centers": state.centers is not None,
        "center_rate": state.centers.rate if state.centers else None,
        "has_detector": state.detector is not None,
        "detector": detector,
        "has_head": state.head is not None,
        "head_tau": state.head.tau if state.head else None,
        "meta": state.meta,
        "blobs": [{"name": k, "shape": list(v.shape)} for k, v in blobs.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, arr in blobs.items():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _decode(data: bytes) -> tuple[dict, dict]:
    """-> (header, named blobs) of archive bytes; the framing, the header
    JSON and its blob table (each name once) are checked, and every blob
    value is finite."""
    if data[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {data[:4]!r}")
    if len(data) < 16:
        raise CorruptLength(f"{len(data)} bytes, shorter than the 16-byte preamble")
    version, header_len = struct.unpack("<IQ", data[4:16])
    if version != VERSION:
        raise VersionMismatch(f"archive version {version}, supported {VERSION}")
    if 16 + header_len > len(data):
        raise CorruptLength("declared header exceeds file size")
    header = parse_json(data[16:16 + header_len], "header", CorruptLength)
    offset = 16 + header_len
    blobs = {}
    for entry in json_field(header, "blobs", list, "header"):
        name = json_field(entry, "name", str, "blob")
        if name in blobs:
            raise CorruptLength(f"blob {name} listed twice")
        shape = json_field(entry, "shape", int, f"blob {name}", 0, json_list)
        count = math.prod(shape)
        end = offset + 4 * count
        if end > len(data):
            raise CorruptLength(f"blob {name} truncated")
        try:   # a view of data: the blob's bytes are not copied
            blobs[name] = np.frombuffer(data, "<f4", count, offset).reshape(shape)
        except ValueError as exc:   # a zero size, and the others' product past 2**63
            raise CorruptLength(f"blob {name} shape {shape}: {exc}") from exc
        if not np.isfinite(blobs[name]).all():
            raise CorruptLength(f"blob {name} holds NaN or inf")
        offset = end
    if offset != len(data):
        raise CorruptLength("trailing bytes after final blob")
    return header, blobs


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        header, blobs = _decode(fh.read())
    # every size a constructor is given below is read from a blob already
    # in the file: arch must be the spec the backbone's blobs imply
    arch = json_field(header, "arch", dict, "header")
    n, side, d = (json_field(arch, key, int, "arch", least) for key, least in
                  (("n_classes", 2), ("input_side", None), ("feature_dim", 1)))
    spec = Backbone.spec_of(blobs)
    if arch != spec:
        raise CorruptLength(f"arch {arch} disagrees with the blob shapes' {spec}")
    backbone = Backbone(n, side, d)
    backbone.load_state(blobs)
    state = ModelState(backbone=backbone,
                       meta=json_field(header, "meta", dict, "header"))

    if json_field(header, "has_centers", bool, "header"):
        values = checked_blob(blobs, "centers", (n, d))
        state.centers = Centers(
            n, d, rate=json_field(header, "center_rate", float, "header"))
        state.centers.values = values.copy()
    if json_field(header, "has_detector", bool, "header"):
        state.detector = DetectorModel.from_stored(
            json_field(header, "detector", dict, "header"), blobs, n, d)
    if json_field(header, "has_head", bool, "header"):
        tau = json_field(header, "head_tau", float, "header")
        head = OodHead(d, tau=check_percentile(tau, CorruptLength, "header.head_tau"))
        head.load_state(blobs)
        state.head = head
    return state
