"""Inputs the tasks share: the actuator position read from text, and the mu grid.

Standard library only, so the command line can parse every configuration
before it imports a layer that computes.  diophantine re-exports all three
names.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["GOLDEN_RATIO_CONJUGATE", "parse_actuator_position", "default_mu_grid"]

# (sqrt(5)-1)/2, the canonical constant-type actuator position
GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def parse_actuator_position(text: str) -> tuple[float, Fraction | str | None]:
    """Parse an actuator position given as decimal, 'p/q', or 'golden'.

    Returns (float value, exact form).  The exact form is a Fraction for
    'p/q' inputs, the string 'golden' for the named constant, and None for
    plain decimals.  fractions is imported only for a 'p/q' input.
    """
    text = text.strip().lower()
    if text == "golden":
        return GOLDEN_RATIO_CONJUGATE, "golden"
    if "/" in text:
        from fractions import Fraction

        num, _, den = text.partition("/")
        frac = Fraction(int(num), int(den))
        if not 0 < frac < 1:
            raise ValueError(f"actuator position must lie in (0,1), got {frac}")
        return float(frac), frac
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"actuator position must lie in (0,1), got {value}")
    return value, None


def default_mu_grid(mu_min: float = 1.0, mu_max: float = 500.0, step: float = 0.01):
    """An evenly spaced mu grid from mu_min to mu_max as a numpy array (imports numpy)."""
    import numpy as np

    return np.arange(mu_min, mu_max + 0.5 * step, step)
