"""The package's one rule for counts, indices, sizes and integer seeds.

It imports nothing from the package, so every module, :mod:`fppvar.gaussian`
included, can use it without an import cycle.
"""

from __future__ import annotations

import numpy as np


def _at_least(value, floor: int, message: str) -> int:
    """Every seed and count: ``value`` as an int if an integer, not a bool, >= ``floor``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < floor:
        raise ValueError(message)
    return int(value)
