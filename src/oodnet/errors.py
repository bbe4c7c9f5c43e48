"""Exception types shared across the toolkit, the one label-range rule,
and the one reader of the JSON it reads from outside (config files,
archive headers).

The rule for such a JSON value: a bool stands only for bool, an integer
or float where a float is expected must be a finite float, and a number
may have to reach a least value. Each reader raises the error type it
is given: ConfigError for a config, CorruptLength for an archive.
``json_field`` reads every stored field: a key of an archive's header,
of its detector object or of its meta.
"""
import json
import sys


class OodnetError(Exception):
    """Base class for all toolkit errors."""


# --- dataset ingestion ---

class UnsupportedMagic(OodnetError):
    """IDX stream does not start with a known magic number."""


class TruncatedPayload(OodnetError):
    """IDX payload length disagrees with the declared dimensions."""


class EmptySplit(OodnetError):
    """Class filter selected no samples."""


# --- numerics / model ---

class ShapeMismatch(OodnetError):
    pass


class DimMismatch(OodnetError):
    pass


class LabelOutOfRange(OodnetError):
    pass


def check_labels(labels, n: int):
    """labels, an integer array whose values must all lie in [0, n)."""
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n:
        raise LabelOutOfRange(f"labels must lie in [0, {n})")
    return labels


class NonFiniteLoss(OodnetError):
    """Loss became NaN/Inf; training aborted."""


# --- detector ---

class DegenerateClass(OodnetError):
    """A class has too few samples to fit or calibrate its statistics."""


class FactorizationFailure(OodnetError):
    """Covariance not positive definite even after regularization."""


class NotCalibrated(OodnetError):
    """Detector used before thresholds were computed."""


class NonFiniteFeature(OodnetError):
    """A feature handed to the detector or the head holds NaN or inf."""


# --- head ---

class EmptyDataset(OodnetError):
    pass


# --- evaluation ---

class SingleClass(OodnetError):
    """ROC requested but only one class present."""


class DegenerateInput(OodnetError):
    """PCA input carries no variance."""


# --- persistence / config ---

class BadMagic(OodnetError):
    pass


class VersionMismatch(OodnetError):
    pass


class CorruptLength(OodnetError):
    pass


class ConfigError(OodnetError):
    pass


def parse_json(text, what: str, error: type):
    """The JSON value of text (str or bytes); error if it is not UTF-8 JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:   # bytes that are not UTF-8, text that is not JSON
        raise error(f"{what} is not UTF-8 JSON: {exc}") from exc


def json_value(value, kind: type, where: str, error: type, least=None):
    """value, which must be a JSON value of kind and, given least, >= least."""
    kinds = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds)
            # NaN, inf, or an integer past the float range
            or kind is float and not abs(value) <= sys.float_info.max):
        name = "a finite number" if kind is float else kind.__name__
        raise error(f"{where}: expected {name}, got {value!r}")
    if least is not None and value < least:
        raise error(f"{where}: must be >= {least}, got {value!r}")
    return value


def json_field(obj, key: str, kind: type, where: str, least=None,
               read=json_value):
    """read(obj[key]) under the name where.key: a stored JSON value of kind,
    or with read=json_list a nonempty list of them, else CorruptLength."""
    return read(obj.get(key) if isinstance(obj, dict) else None, kind,
                f"{where}.{key}", CorruptLength, least)


def json_list(value, kind: type, where: str, error: type, least=None) -> list:
    """value, which must be a nonempty JSON list of json_value items."""
    if not isinstance(value, list) or not value:
        raise error(f"{where}: expected a nonempty list, got {value!r}")
    return [json_value(v, kind, f"{where}[{i}]", error, least)
            for i, v in enumerate(value)]
