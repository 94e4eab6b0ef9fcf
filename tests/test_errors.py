"""The readers of ``errors``: each value rule, stated once."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from stratasim.errors import ConfigurationError, as_int, as_real

READERS = {
    "unit_open": partial(as_real, low=0.0, high=1.0),
    "unit_half_open": partial(as_real, low=0.0, high=1.0, ends="[)"),
    "unit_closed": partial(as_real, low=0.0, high=1.0, ends="[]"),
    "finite": as_real,
    "extended": partial(as_real, low=-math.inf, high=math.inf, ends="[]"),
    "nonnegative": partial(as_real, low=0.0, ends="[)"),
    "one_to_four": partial(as_int, least=1, most=4),
}
TOO_LARGE = "^x must be finite, got an integer too large for a float$"


def _short(value) -> str:
    """A test id part: ``value`` as text, cut short past 40 characters."""
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


@pytest.mark.parametrize("reader,value,want", [
    ("unit_open", 0.5, 0.5),
    ("unit_open", np.float64(0.25), 0.25),
    ("unit_open", 0.0, r"^x must lie in \(0, 1\), got 0\.0$"),
    ("unit_open", 1, r"^x must lie in \(0, 1\), got 1\.0$"),
    ("unit_half_open", 0, 0.0),
    ("unit_half_open", 1.0, r"^x must lie in \[0, 1\), got 1\.0$"),
    ("unit_closed", 1.0, 1.0),
    ("unit_closed", np.nextafter(1.0, 2.0), r"^x must lie in \[0, 1\], got 1\.0000000000000002$"),
    ("unit_closed", -1e-300, r"^x must lie in \[0, 1\], got -1e-300$"),
    ("unit_closed", math.nan, "^x must be finite, got nan$"),
    ("finite", math.nan, "^x must be finite, got nan$"),
    ("finite", math.inf, "^x must be finite, got inf$"),
    ("finite", -math.inf, "^x must be finite, got -inf$"),
    ("finite", 10**400, TOO_LARGE),
    ("extended", math.inf, math.inf),
    ("extended", -math.inf, -math.inf),
    ("extended", math.nan, "^x must be finite, got nan$"),
    ("extended", 10**400, TOO_LARGE),
    ("nonnegative", 0.0, 0.0),
    ("nonnegative", -1.0, r"^x must lie in \[0, inf\), got -1\.0$"),
    ("nonnegative", math.inf, "^x must be finite, got inf$"),
    ("nonnegative", "1", "^x must be a number, got '1'$"),
    ("one_to_four", 4, 4),
    ("one_to_four", 4.0, 4),
    ("one_to_four", 5, "^x must be <= 4, got 5$"),
    ("one_to_four", 0, "^x must be >= 1, got 0$"),
    ("one_to_four", 10**400, f"^x must be <= 4, got {10**400}$"),
], ids=_short)
def test_readers_take_an_interval(reader, value, want):
    read = READERS[reader]
    if isinstance(want, str):
        with pytest.raises(ConfigurationError, match=want):
            read("x", value)
    else:
        got = read("x", value)
        assert got == want and type(got) is type(want)
