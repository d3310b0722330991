"""Characteristic roots of the point-damped string, in pure Python.

The generator's eigenvalues are i*z for the zeros z of the entire function

    D(z) = sin z + i sin(xi z) sin(eta z),    eta = 1 - xi.

Counting.  Take a box whose vertical sides are Re z = (N0 + 1/2)pi and
(N1 + 1/2)pi and whose horizontal sides are Im z = +-Y, with

    sinh Y > [cosh Y + cosh((xi - eta) Y)] / 2.

On its vertical sides |sin(xi z) sin(eta z)| <= cosh(xi y) cosh(eta y) =
[cosh y + cosh((xi - eta) y)] / 2, which is below cosh y = |sin z| for y != 0
and at most 1/2 < 1 for y = 0; on its horizontal sides the choice of Y gives
the same strict inequality, and it keeps holding for every |y| >= Y.  By
Rouche, D has exactly as many roots in the box as sin z, namely N1 - N0, and
none with |Im z| >= Y.  So each pi-strip ((n - 1/2)pi, (n + 1/2)pi) holds
exactly one root.

Locating.  Near z = n pi, D(n pi + d) ~ (-1)^n [d - i sin^2(n pi xi)], so the
strip's root lies near the closed-form seed n pi + i sin^2(n pi xi).  One
scalar Newton per strip starts there.  A Kantorovich disc around the result
certifies that it holds a root; a disc inside its own strip holds the strip's
only root.

Everything here runs on math and cmath.  Only characteristic_function also
takes an array, and only then imports numpy.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

__all__ = [
    "CharacteristicRoot",
    "ContourThroughRoot",
    "characteristic_function",
    "characteristic_derivative",
    "closed_form_seed",
    "height_bound",
    "strip_count",
    "find_eigenvalues",
    "abscissa_of_roots",
]

_EPS = sys.float_info.epsilon

# Newton steps per strip; the seeds settle in a handful
_NEWTON_STEPS = 50

# a root this close to a rectangle's edge, relative to its larger side, counts as inside
_EDGE_SLACK = 1e-9


class ContourThroughRoot(RuntimeError):
    """Raised when a root cannot be certified, or sits on the rectangle's edge."""


class CharacteristicRoot(NamedTuple):
    z: complex
    residual: float
    multiplicity: int


def characteristic_function(xi: float, z):
    """sin(z) + i*sin(xi z)*sin((1-xi) z); entire, mirror-symmetric about the
    imaginary axis, and equal in squared modulus to resonance_indicator on
    the real axis.  Its zeros z correspond to generator eigenvalues i*z.

    A number gives a complex without importing numpy; an array is evaluated
    elementwise with numpy."""
    if isinstance(z, (int, float, complex)):
        z = complex(z)
        return cmath.sin(z) + 1j * cmath.sin(xi * z) * cmath.sin((1.0 - xi) * z)
    import numpy as np

    z = np.asarray(z, dtype=complex)
    out = np.sin(z) + 1j * np.sin(xi * z) * np.sin((1.0 - xi) * z)
    return out if out.ndim else complex(out)


def characteristic_derivative(xi: float, z: complex) -> complex:
    """D'(z) at one point."""
    return _values(xi, 1.0 - xi, complex(z))[1]


def _values(xi: float, eta: float, z: complex) -> tuple[complex, complex]:
    """(D(z), D'(z)), sharing sin(xi z) and sin(eta z)."""
    a, b = xi * z, eta * z
    s1, s2 = cmath.sin(a), cmath.sin(b)
    return (
        cmath.sin(z) + 1j * s1 * s2,
        cmath.cos(z) + 1j * (xi * cmath.cos(a) * s2 + eta * s1 * cmath.cos(b)),
    )


def closed_form_seed(xi: float, n: int) -> complex:
    """n pi + i sin^2(n pi xi), the first-order root of the n-th pi-strip."""
    s = math.sin(n * math.pi * xi)
    return complex(n * math.pi, s * s)


def height_bound(xi: float) -> float:
    """The first Y of 1, 1.25, 1.25^2, ... with sinh Y > [cosh Y + cosh((xi - eta) Y)] / 2.

    Every characteristic root has |Im z| < Y.  Raises ValueError when no such
    Y is representable, which happens only for xi within about 1e-16 of 0 or 1.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    gap = xi - (1.0 - xi)
    y = 1.0
    while y < 700.0:  # cosh overflows near 710
        if math.sinh(y) > 0.5 * (math.cosh(y) + math.cosh(gap * y)):
            return y
        y *= 1.25
    raise ValueError(f"no height bound for the roots at xi={xi}")


def _rounding(z: complex) -> float:
    """A bound on the rounding error of D(z) as evaluated here.

    The arguments xi z and eta z carry a relative rounding of eps / 2, which
    sin and cos magnify by at most cosh(Im z); the library's own roundings
    add a few eps cosh(Im z).
    """
    return _EPS * (abs(z) + 1.0) * math.cosh(z.imag)


def _disc_radius(z: complex, size: float, slope: complex) -> float:
    """Radius of a disc about z certified to hold exactly one root of D, or inf.

    Newton-Kantorovich for an analytic scalar function: with d = |D(z)| /
    |D'(z)| and |D''| <= K on the unit disc about z, h = K d / |D'(z)| <= 1/2
    puts a root within 2d of z and no other within (1 + sqrt(1 - 2h)) |D'(z)|
    / K >= 2d.  There |D''| <= |sin z| + (xi^2 + eta^2) |sin(xi z) sin(eta z)|
    + 2 xi eta |cos(xi z) cos(eta z)| <= 2 cosh(|Im z| + 1), and |D(z)| = size
    counts its rounding (_rounding).
    """
    derivative = abs(slope)
    step = (size + _rounding(z)) / derivative if derivative > 0.0 else math.inf
    if 4.0 * math.cosh(abs(z.imag) + 1.0) * step <= derivative and step <= 0.5:
        return 2.0 * step
    return math.inf


def _certified_root(
    xi: float, eta: float, z: complex, tol: float
) -> tuple[complex, float, float]:
    """Newton from z; returns (root, |D(root)|, radius of its disc or inf).

    Stops at the first certified point (_disc_radius) with |D| <= max(tol,
    2 eps |z|), or when a step fails to lower |D| once |D| is down at the
    rounding level of its evaluation, where further steps only move z by
    rounding; the better of the two points is kept.
    """
    value, slope = _values(xi, eta, z)
    size = abs(value)
    for _ in range(_NEWTON_STEPS):
        if size <= tol or size <= 2.0 * _EPS * abs(z):
            radius = _disc_radius(z, size, slope)
            if radius < math.inf:
                return z, size, radius
        try:
            step = z - value / slope
            value_, slope_ = _values(xi, eta, step)
        except (ZeroDivisionError, OverflowError):  # a critical point, or a step off to infinity
            break
        size_ = abs(value_)
        if size_ >= size and size <= 2.0 * _rounding(z):
            break
        z, value, slope, size = step, value_, slope_, size_
    return z, size, _disc_radius(z, size, slope)


def _widened(rect) -> tuple[float, float, float, float]:
    re0, re1, im0, im1 = rect
    slack = _EDGE_SLACK * max(re1 - re0, im1 - im0)
    return re0 - slack, re1 + slack, im0 - slack, im1 + slack


def strip_count(rect) -> float:
    """How many pi-strips find_eigenvalues runs Newton on for rect; inf when it is unbounded."""
    re0, re1, _, _ = _widened(rect)
    return (re1 - re0) / math.pi + 3.0


def find_eigenvalues(xi: float, rect, tol: float = 1e-12) -> list[CharacteristicRoot]:
    """All characteristic roots in a rectangle (re0, re1, im0, im1).

    One Newton per pi-strip that meets the rectangle, started from the
    strip's closed-form seed and iterated until |D(z)| <= max(tol, 2 eps |z|)
    at a point that a Kantorovich disc certifies, or until rounding stalls it
    (_certified_root).  The disc must lie inside its own strip: then it holds
    the strip's only root (Rouche, see the module docstring), so every
    root is simple (multiplicity 1).  A root within 1e-9 times the
    rectangle's larger side of its edge counts as inside.  Raises
    ContourThroughRoot when a certificate fails, or when a disc crosses that
    widened edge.  Roots are returned sorted by real part.
    """
    re0, re1, im0, im1 = rect
    if not (re1 > re0 and im1 > im0):
        raise ValueError("degenerate rectangle")
    re0, re1, im0, im1 = _widened(rect)
    height = height_bound(xi)
    if im0 >= height or im1 <= -height:
        return []
    eta = 1.0 - xi
    roots = []
    for n in range(math.floor(re0 / math.pi - 0.5), math.ceil(re1 / math.pi + 0.5) + 1):
        z, residual, radius = _certified_root(xi, eta, closed_form_seed(xi, n), tol)
        if not ((n - 0.5) * math.pi < z.real - radius and z.real + radius < (n + 0.5) * math.pi):
            raise ContourThroughRoot(
                f"Newton from the seed of strip {n} ended at {z} without a certified "
                f"disc inside the strip (radius {radius:.3g})"
            )
        if (z.real + radius < re0 or z.real - radius > re1
                or z.imag + radius < im0 or z.imag - radius > im1):
            continue
        if not (re0 <= z.real - radius and z.real + radius <= re1
                and im0 <= z.imag - radius and z.imag + radius <= im1):
            raise ContourThroughRoot(
                f"the root {z} lies within its certified radius {radius:.3g} "
                f"of the edge of {rect}"
            )
        roots.append(CharacteristicRoot(z=z, residual=residual, multiplicity=1))
    return roots


def abscissa_of_roots(roots: list[CharacteristicRoot], real_tol: float) -> float:
    """Largest generator real part -Im z over the given characteristic roots.

    Eigenvalues are i*z for characteristic roots z, so the abscissa is -min(Im z).

    Exactly 0.0 when a root lies within real_tol of the real axis; -inf for
    no roots.
    """
    if not roots:
        return -math.inf
    if any(abs(r.z.imag) <= real_tol for r in roots):
        return 0.0
    return max(-r.z.imag for r in roots)
