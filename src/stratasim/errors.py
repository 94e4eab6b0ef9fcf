"""Exception types, and the readers of config fields and label arrays
shared across the package: integers and their lower bounds, finite
numbers, lists and codes, each message led by the field it names."""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable

import numpy as np


class ConfigurationError(ValueError):
    """A design, model, or run setting is invalid or inconsistent."""


class ConfigParseError(ConfigurationError):
    """A configuration document failed validation.

    The message names the offending field by its dotted path.
    """


class DegenerateDesignError(ValueError):
    """A fitted design matrix lost identifiability (empty arm, rank drop)."""


def as_int(field: str, value, least: int | None = None) -> int:
    """``value`` as an ``int``: Python and numpy integers, and floats with an
    integral value such as ``10.0``.  Anything else, booleans included,
    raises a ``ConfigurationError`` naming ``field``, and so does a value
    below ``least`` when that is given."""
    if not isinstance(value, bool) and (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())):
        number = int(value)
        if least is not None and number < least:
            raise ConfigurationError(f"{field} must be >= {least}, got {number}")
        return number
    raise ConfigurationError(f"{field} must be an integer, got {value!r}")


def as_real(field: str, value) -> float:
    """``value`` as a finite ``float``: Python and numpy reals.  Anything
    else, booleans and numeric strings included, raises a
    ``ConfigurationError`` naming ``field``, and so do NaN and the
    infinities, and an integer too large for a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ConfigurationError(
                f"{field} must be finite, got an integer too large for a float") from None
        if not math.isfinite(number):
            raise ConfigurationError(f"{field} must be finite, got {number}")
        return number
    raise ConfigurationError(f"{field} must be a number, got {value!r}")


def as_tuple(field: str, values, read) -> tuple:
    """``values`` as a tuple, element ``i`` read by ``read`` as ``field[i]``;
    a value that is not a list raises a ``ConfigurationError`` naming it."""
    if not isinstance(values, Iterable):
        raise ConfigurationError(f"{field} must be a list, got {values!r}")
    return tuple(read(f"{field}[{i}]", value) for i, value in enumerate(values))


def as_codes(field: str, values, k: int) -> np.ndarray:
    """``values``, stratum labels or arms, as an array of codes ``0..k - 1``:
    numpy integer arrays as they are, other integral numbers such as ``1.0``
    as ``intp``.  Any other entry, booleans and strings included, raises a
    ``ConfigurationError`` naming ``field`` and the first such entry."""
    array = number = values
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        # each entry as given: numpy reads [True, 1] as the integers 1 and 1
        # and [1, 'a'] as the strings '1' and 'a'
        array = np.asarray(values, dtype=object)
        number = np.vectorize(_number, otypes=[float])(array)
    codes = number
    if number.dtype.kind == "f":
        whole = (np.floor(number) == number) & (number >= 0) & (number < k)
        codes = np.where(whole, number, -1).astype(np.intp)
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        bad = array[(codes < 0) | (codes >= k)][:1].tolist()[0]
        raise ConfigurationError(f"{field} {bad!r} outside 0..{k - 1}")
    return codes


def _number(entry) -> float:
    """An entry of a label array as a float, NaN when it is not a number."""
    real = isinstance(entry, numbers.Real) and not isinstance(entry, bool)
    return float(entry) if real else np.nan
