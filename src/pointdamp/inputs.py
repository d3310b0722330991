"""Inputs the tasks share: the actuator position read from text, and the mu grid.

Standard library only, so the command line can parse every configuration
before it imports a layer that computes.  diophantine re-exports every name
but Position.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["GOLDEN_RATIO_CONJUGATE", "Position", "parse_actuator_position", "default_mu_grid"]

# (sqrt(5)-1)/2, the canonical constant-type actuator position
GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


class Position(NamedTuple):
    """An actuator position in (0, 1) and its exact form: a Fraction, 'golden' or None."""

    value: float
    exact: Fraction | str | None


def parse_actuator_position(text: str) -> Position:
    """Parse a decimal, 'p/q' or 'golden' (a decimal has no exact form).

    fractions is imported only for a 'p/q' input.
    """
    text = text.strip().lower()
    if text == "golden":
        return Position(GOLDEN_RATIO_CONJUGATE, "golden")
    if "/" in text:
        from fractions import Fraction

        num, _, den = text.partition("/")
        frac = Fraction(int(num), int(den))
        if not 0 < frac < 1:
            raise ValueError(f"actuator position must lie in (0,1), got {frac}")
        return Position(float(frac), frac)
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"actuator position must lie in (0,1), got {value}")
    return Position(value, None)


def default_mu_grid(mu_min: float = 1.0, mu_max: float = 500.0, step: float = 0.01):
    """An evenly spaced mu grid from mu_min to mu_max as a numpy array (imports numpy)."""
    import numpy as np

    return np.arange(mu_min, mu_max + 0.5 * step, step)
