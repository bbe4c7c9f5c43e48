"""Exception types shared across the toolkit."""


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
