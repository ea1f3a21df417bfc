"""Exact rational arithmetic on half-open interval grids.

Every quantity that ever gets compared against an interval boundary is a
`fractions.Fraction`; floats are banned from this layer so that boundary
cases (a value landing exactly on a grid line) are decided exactly rather
than by rounding luck.

The grid covering the reals is ``[m*L, (m+1)*L)`` for integer ``m``, where
``L`` is the interval length.  A closed range counts as "inside one
interval" only if it avoids touching the next boundary: ``[lo, hi]`` with
``hi == (m+1)*L`` straddles, because ``hi`` belongs to the next cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Grid:
    """Partition of the reals into half-open intervals of a fixed length."""

    interval_length: Fraction

    def __post_init__(self):
        if not isinstance(self.interval_length, Fraction):
            object.__setattr__(self, "interval_length", Fraction(self.interval_length))
        if self.interval_length <= 0:
            raise ValueError("grid interval length must be positive")


def interval_index(w: Fraction, grid: Grid) -> int:
    """Index m of the interval [m*L, (m+1)*L) containing w."""
    return math.floor(w / grid.interval_length)


def round_to_midpoint(w: Fraction, grid: Grid) -> Fraction:
    """Midpoint of the interval containing w."""
    m = interval_index(w, grid)
    return (Fraction(2 * m + 1, 2)) * grid.interval_length


def rat_to_str(x: Fraction) -> str:
    """Serialize as 'p/q' (always with an explicit denominator)."""
    return f"{x.numerator}/{x.denominator}"
