"""Exception types shared across the package.

Every failure mode raised by library code derives from GhelabError so
callers (and the CLI) can catch one base class. Names describe the
violated contract, not the call site, and each contract has one class:
a parameter outside its domain is InvalidParams wherever it is checked
(a non-stationary AR polynomial, a negative std handed to a test). The
checks at the end turn a wrongly typed constructor field or argument,
a path among them, into InvalidParams. Every warning goes through _warn.
"""

import numbers
import operator
import os
import sys
import warnings

import numpy as np


class GhelabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(GhelabError):
    """Parameter set violates its documented domain."""


class TooShort(GhelabError):
    """Series too short for the requested operation; a price file with no
    data rows is one."""


class NonPositivePrice(GhelabError):
    """Log returns requested on a price level that is zero or negative."""


class DegenerateSeries(GhelabError):
    """Structure function is undefined: its denominator is zero (an all-zero
    detrended path), it is not finite (levels that overflow) or K_q
    vanishes on the fit grid; or a simulated path to be written has a
    level that is not finite."""


class TauTooLarge(InvalidParams):
    """Lag grid does not fit the number of levels."""


class ParseError(GhelabError):
    """A cell failed to parse; carries the 1-based data row index."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(f"row {row}: {message}" if message else f"row {row}")


class UnknownKey(GhelabError):
    """Config file contains a key this package does not define."""


class MissingKey(GhelabError):
    """Config file lacks a key required by the requested run mode."""


def _warn(message: str, category=UserWarning) -> None:
    """warnings.warn at the caller's line: the first frame whose module is neither
    ghelab's nor dataclasses' (replace runs a generated __init__), however deep."""
    frame, level = sys._getframe(), 1
    while frame and frame.f_globals.get("__name__", "").split(".")[0] in ("ghelab", "dataclasses"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _real(name: str, value):
    """value, if it is a real number a float can hold; bools are flags, not numbers."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            float(value)  # an int beyond the float range overflows here
            return value
        except OverflowError:
            pass
    raise InvalidParams(f"{name} must be a real number, got {value!r}")


def _count(name: str, value, least: int | None = None) -> int:
    """value as an int, if it is an integer (and not below least); bools are flags, not counts."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise InvalidParams(f"{name} must be >= {least}, got {value}")
            return value
    raise InvalidParams(f"{name} must be an integer, got {value!r}")


def _seed(name: str, value) -> int:
    """value as an int, if it is an integer a SeedSequence takes: 0 through 2**64 - 1."""
    value = _count(name, value)
    if not 0 <= value < 2**64:
        raise InvalidParams(f"{name} must lie in 0..2**64-1, got {value}")
    return value


def _member(name: str, enum, value):
    """value as a member of enum, given the member or its value."""
    try:
        return enum(value)
    except (TypeError, ValueError):
        pass
    raise InvalidParams(f"{name} must be one of {[m.value for m in enum]}, got {value!r}")


def _instance(name: str, value, cls):
    """value, if it is an instance of cls, a type or a tuple of types."""
    if isinstance(value, cls):
        return value
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    article = "an" if names[0] in "AEIOU" else "a"
    raise InvalidParams(f"{name} must be {article} {names}, got {value!r:.60}")


def _path(name: str, value):
    """value, if it names a file: a str or an os.PathLike, never an int taken as a descriptor."""
    return _instance(name, value, (str, os.PathLike))


def _real_vector(name: str, value) -> np.ndarray:
    """value as a 1-D float64 array, if it holds real numbers; float64 input is not copied.

    A bool in a list or tuple is a flag, not a number, though numpy casts it to one."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = None
    flag = isinstance(value, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in value)
    if flag or array is None or array.ndim != 1 or array.dtype.kind not in "fiu":
        raise InvalidParams(f"{name} must be a 1-D sequence of real numbers, got {value!r:.60}")
    return array.astype(np.float64, copy=False)
