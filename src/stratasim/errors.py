"""Exception types, and the integer check of config fields, shared
across the package."""

from __future__ import annotations

import numbers


class ConfigurationError(ValueError):
    """A design, model, or run setting is invalid or inconsistent."""


class ConfigParseError(ConfigurationError):
    """A configuration document failed validation.

    The message names the offending field by its dotted path.
    """


class DegenerateDesignError(ValueError):
    """A fitted design matrix lost identifiability (empty arm, rank drop)."""


def as_int(field: str, value) -> int:
    """``value`` as an ``int``: Python and numpy integers, and floats with an
    integral value such as ``10.0``.  Anything else, booleans included,
    raises a ``ConfigurationError`` naming ``field``."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ConfigurationError(f"{field} must be an integer, got {value!r}")
