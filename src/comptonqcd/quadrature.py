"""Composite Simpson quadrature on uniform grids."""

from __future__ import annotations

from typing import TYPE_CHECKING

# for annotations only: the ndarray methods need no numpy import, so the exact
# subcommands, which load this module, never import numpy
if TYPE_CHECKING:
    import numpy as np

__all__ = ["composite_simpson"]


def composite_simpson(y: np.ndarray, h: float) -> float:
    """Integrate samples on a uniform grid of spacing h.

    Uses the 1/3 rule over an even number of intervals; an odd remainder is
    absorbed by the 3/8 rule over the last three intervals, keeping the whole
    estimate fourth order.
    """
    n = len(y) - 1
    if n < 1:
        return 0.0
    if n == 1:
        return 0.5 * h * (float(y[0]) + float(y[1]))
    total = 0.0
    if n % 2 == 1:
        if n == 3:
            return 3.0 * h / 8.0 * float(y[0] + 3.0 * y[1] + 3.0 * y[2] + y[3])
        total += 3.0 * h / 8.0 * float(y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        y = y[:-3]
    total += h / 3.0 * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
    return total
