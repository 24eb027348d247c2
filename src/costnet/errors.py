"""Exception types, and the finite-number test, shared across the package.

Contract violations raise a subclass of CostnetError so callers (and the
CLI exit-code mapping) can distinguish bad usage from bad data from
corrupted artifacts.
"""

import sys


def is_number(value) -> bool:
    """An int or float, not a bool, within float range; compared, so a huge int cannot overflow."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


class CostnetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CostnetError):
    """Invalid hyperparameter, flag, or option value."""


class ShapeError(CostnetError):
    """Tensor shapes or sequence lengths violate an operation's contract."""


class DataError(CostnetError):
    """Input data violates a dataset-level contract (labels, duplicates, ...)."""


class ParseError(DataError):
    """A file could not be parsed; the message names the offending line."""


class EncodingError(DataError):
    """Token ids outside the vocabulary reached the model; ``autodiff.Lookup`` raises it."""


class ContractError(CostnetError):
    """An internal API was called in a way its contract forbids."""


class CheckpointError(CostnetError):
    """Base class for model-container load failures."""


class CheckpointVersionError(CheckpointError):
    """Unknown or unsupported container format version."""


class CheckpointTruncatedError(CheckpointError):
    """Container is shorter than its weight manifest promises."""


class CheckpointShapeError(CheckpointError):
    """Stored weight shapes disagree with the declared architecture."""
