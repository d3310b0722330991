import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import simpson as scipy_simpson

from pointdamp.quadrature import cumulative_simpson, derivative, simpson, simpson_weights


def _samples(rng, n, kind):
    y = rng.standard_normal(n)
    if kind == "complex":
        y = y + 1j * rng.standard_normal(n)
    return y


def _reference_cumulative(y, dx):
    """scipy's running integral; it takes real input only, so split complex data."""
    if np.iscomplexobj(y):
        return _reference_cumulative(y.real, dx) + 1j * _reference_cumulative(y.imag, dx)
    return scipy_cumulative_simpson(y, dx=dx, initial=0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 10, 11, 512, 513])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_matches_scipy(rng, n, kind):
    for _ in range(5):
        y = _samples(rng, n, kind)
        dx = rng.uniform(1e-3, 1.0)
        expected = scipy_simpson(y, dx=dx)
        assert abs(simpson(y, dx) - expected) <= 1e-14 * abs(expected)
        running = cumulative_simpson(y, dx)
        reference = _reference_cumulative(y, dx)
        assert running.shape == y.shape
        np.testing.assert_allclose(running, reference, rtol=1e-14, atol=0)


def test_last_axis_of_a_stack(rng):
    y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    np.testing.assert_allclose(simpson(y, 0.1), [simpson(row, 0.1) for row in y], rtol=1e-14)
    np.testing.assert_allclose(
        cumulative_simpson(y, 0.1), [cumulative_simpson(row, 0.1) for row in y], rtol=1e-14
    )


@pytest.mark.parametrize("n", [3, 7, 21, 22])
def test_polynomials_integrated_exactly(n):
    x = np.linspace(0.0, 2.0, n)
    dx = x[1] - x[0]
    cubic = 4.0 * x**3 - 3.0 * x**2 + 2.0 * x + 1.0
    cubic_integral = x**4 - x**3 + x**2 + x
    quadratic = 1j * (3.0 * x**2 - 2.0 * x) + 5.0
    quadratic_integral = 1j * (x**3 - x**2) + 5.0 * x
    if n % 2:
        assert simpson(cubic, dx) == pytest.approx(cubic_integral[-1], rel=1e-14)
    assert simpson(quadratic, dx) == pytest.approx(quadratic_integral[-1], rel=1e-14)
    # every node an even number of intervals in is a composite-Simpson node
    running = cumulative_simpson(cubic, dx)
    np.testing.assert_allclose(running[::2], cubic_integral[::2], rtol=1e-13, atol=1e-14)
    running = cumulative_simpson(quadratic, dx)
    np.testing.assert_allclose(running, quadratic_integral, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("n", [*range(3, 41), 2049, 2050])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_weights_reproduce_simpson(rng, n, kind):
    # a dot product sums in another order than the rule, so the error is
    # relative to the integral of |y|: the scale of the rounding in either sum
    for _ in range(5):
        y = _samples(rng, n, kind)
        dx = rng.uniform(1e-3, 1.0)
        q = simpson_weights(n, dx)
        assert q.shape == (n,)
        assert abs(q @ y - simpson(y, dx)) <= 1e-14 * simpson(np.abs(y), dx)
    with pytest.raises(ValueError):
        simpson_weights(2, 0.5)


@pytest.mark.parametrize("rule", [simpson, cumulative_simpson])
def test_needs_three_samples(rule):
    with pytest.raises(ValueError):
        rule(np.ones(2), 0.5)


@pytest.mark.parametrize("n", [3, 4, 9])
def test_derivative_is_exact_on_quadratics(n):
    # the stencil is second order at every sample, ends included
    dx = 0.25
    x = dx * np.arange(n)
    real = 3.0 * x**2 - 2.0 * x + 1.0
    assert derivative(real, dx).dtype == np.float64
    np.testing.assert_allclose(derivative(real, dx), 6.0 * x - 2.0, rtol=0, atol=1e-13)
    stack = np.stack([real, (1.0 - 2.0j) * x**2])
    slope = derivative(stack, dx)
    assert slope.dtype == np.complex128
    np.testing.assert_allclose(slope[0], 6.0 * x - 2.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(slope[1], (2.0 - 4.0j) * x, rtol=0, atol=1e-13)
