import math
import tracemalloc

import numpy as np
import pytest

from oracles import conjugation_route_incremental
from pointdamp import (
    GOLDEN_RATIO_CONJUGATE,
    WeightFunction,
    apply_conjugated_operator,
    apply_helmholtz,
    conjugation_route,
    default_left_weight,
    default_right_weight,
    estimate_carleman_constant,
    evaluate_carleman_inequality,
    ibp_residuals,
    inequality_forms,
    random_coefficients,
    random_test_function,
    sample_basis,
    split_conjugated_operator,
    square_expansion_residual,
    validate_weight,
)

GOLDEN = GOLDEN_RATIO_CONJUGATE


# ----------------------------------------------------------------- weights


def test_default_weights_admissible():
    left = default_left_weight(GOLDEN)
    right = default_right_weight(GOLDEN)
    assert validate_weight(left, "left").ok
    assert validate_weight(right, "right").ok
    # closed-form values
    assert left.d0(0.0) == pytest.approx(1.0)
    assert left.d1(0.5) == pytest.approx(3.0)
    assert float(np.asarray(left.d2(0.1))) == pytest.approx(2.0)
    assert right.d0(1.0) == pytest.approx(1.0)
    assert right.d1(0.5) == pytest.approx(-3.0)


def test_exponential_weight_side_admissibility():
    w = WeightFunction.exponential(2.0, (0.0, 0.5))
    assert validate_weight(w, "left").ok
    check = validate_weight(w, "right")
    assert not check.ok
    assert any("negative" in v for v in check.violations)


def test_polynomial_weight():
    w = WeightFunction.polynomial([0.0, 0.0, 1.0], (0.2, 0.8))  # x^2
    assert validate_weight(w, "left").ok
    assert w.d0(0.5) == pytest.approx(0.25)
    assert w.d1(0.5) == pytest.approx(1.0)
    assert w.d2(0.5) == pytest.approx(2.0)


def test_constant_weight_rejected():
    w = WeightFunction.polynomial([1.0], (0.0, 0.5))
    check = validate_weight(w, "left")
    assert not check.ok
    assert len(check.violations) >= 2


def test_non_finite_weight_rejected():
    # a nan slope passes no comparison, so it has to be flagged as not finite
    nan_weight = WeightFunction.exponential(math.nan, (0.0, 0.5))
    with np.errstate(over="ignore"):
        overflowing = WeightFunction.exponential(800.0, (0.0, 1.0))
        checks = [validate_weight(nan_weight, "left"), validate_weight(overflowing, "left")]
    for check in checks:
        assert not check.ok
        assert any("slope is not finite" in v for v in check.violations)
        assert any("convexity is not finite" in v for v in check.violations)


def test_validate_weight_side_names():
    with pytest.raises(ValueError):
        validate_weight(default_left_weight(0.5), "middle")


@pytest.mark.parametrize(
    "weight",
    [
        default_left_weight(GOLDEN),
        default_right_weight(GOLDEN),
        WeightFunction.exponential(1.5, (0.0, GOLDEN)),
        WeightFunction.polynomial([0.1, 1.0, 0.5, 0.25], (0.1, 0.9)),
    ],
)
def test_weight_derivative_chain_consistent(weight):
    # each stated derivative matches a central difference of the one below
    x = np.linspace(weight.a + 0.05, weight.b - 0.05, 41)
    step = 1e-5
    chain = [weight.d0, weight.d1, weight.d2, weight.d3, weight.d4]
    for low, high in zip(chain, chain[1:]):
        lo = np.asarray(low(x + step), dtype=float)
        li = np.asarray(low(x - step), dtype=float)
        fd = (lo - li) / (2.0 * step)
        hi = np.asarray(high(x), dtype=float)
        assert np.max(np.abs(fd - hi)) < 1e-6 * max(1.0, np.max(np.abs(hi)))


# --------------------------------------------------------------- operators


def test_apply_helmholtz_quadratic():
    x = np.linspace(0.0, 1.0, 101)
    u = x**2
    out = apply_helmholtz(u, 1.0, float(x[1] - x[0]))
    np.testing.assert_allclose(out, 2.0 + x**2, atol=1e-9)


def test_apply_helmholtz_validates():
    u = np.zeros(11)
    with pytest.raises(ValueError):
        apply_helmholtz(u, 0.0, 0.1)
    with pytest.raises(ValueError):
        apply_helmholtz(u, 1.0, -0.1)


def test_conjugated_operator_linear_weight_closed_form():
    # phi = x, h = 1, w = e^x: -w'' + 2w' + 0 - 2w = -e^x
    weight = WeightFunction.polynomial([0.0, 1.0], (0.0, 1.0))
    x = weight.grid(400)
    w = np.exp(x)
    out = apply_conjugated_operator(weight, 1.0, w, x)
    assert np.max(np.abs(out + np.exp(x))) < 1e-4


def test_split_reconstructs_operator(rng):
    weight = default_left_weight(GOLDEN)
    x = weight.grid(300)
    w = random_test_function((weight.a, weight.b), 300, rng)
    sym, anti = split_conjugated_operator(weight, 0.2, w, x)
    full = apply_conjugated_operator(weight, 0.2, w, x)
    np.testing.assert_allclose(sym + 1j * anti, full, atol=1e-12 * np.max(np.abs(full)))
    # with a linear weight the antisymmetric part is exactly 2 phi' delta w
    lin = WeightFunction.polynomial([0.0, 3.0], (0.0, 1.0))
    xl = lin.grid(200)
    wl = random_test_function((0.0, 1.0), 200, rng)
    _, anti_l = split_conjugated_operator(lin, 0.5, wl, xl)
    dwl = np.gradient(wl, xl)
    inner = slice(1, -1)
    np.testing.assert_allclose(
        anti_l[inner], -1j * 0.5 * 2.0 * 3.0 * dwl[inner],
        atol=1e-2 * np.max(np.abs(anti_l)),
    )


def test_conjugation_route_agrees_with_expansion(rng):
    weight = default_left_weight(GOLDEN)
    h = 0.5
    errs = []
    for n in (400, 800):
        x = weight.grid(n)
        w = random_test_function((weight.a, weight.b), n, np.random.default_rng(2))
        direct = apply_conjugated_operator(weight, h, w, x)
        route = conjugation_route(weight, h, w, x)
        errs.append(np.max(np.abs(direct - route)) / np.max(np.abs(direct)))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 3.0  # second-order stencils


@pytest.mark.parametrize("h, windows", [(5e-4, 12), (1.5e-3, 4), (0.05, 1)])
def test_conjugation_route_windows_match_incremental_growth(h, windows):
    weight = default_left_weight(GOLDEN)
    x = weight.grid(600)
    w = random_test_function((weight.a, weight.b), 600, np.random.default_rng(5))
    expected, grown = conjugation_route_incremental(weight.d0(x), h, w, float(x[1] - x[0]))
    assert grown == windows
    np.testing.assert_array_equal(conjugation_route(weight, h, w, x), expected)


def test_conjugation_route_overflow_guard():
    weight = default_left_weight(GOLDEN)
    x = weight.grid(50)
    w = np.ones(51, dtype=complex)
    with pytest.raises(FloatingPointError):
        conjugation_route(weight, 1e-8, w, x)


# ------------------------------------------------- transfer identities


def test_ibp_residuals_small_and_refining(rng):
    weight = default_left_weight(GOLDEN)
    h = 0.3
    res = {}
    for n in (1000, 4000):
        x = weight.grid(n)
        gen = np.random.default_rng(9)
        v = random_test_function((weight.a, weight.b), n, gen)
        w = random_test_function((weight.a, weight.b), n, gen)
        res[n] = ibp_residuals(weight, h, v, w, x)
    assert res[1000][0] < 1e-4 and res[1000][1] < 1e-4
    assert res[4000][0] < res[1000][0]
    assert res[4000][1] < res[1000][1]


# ------------------------------------------------------ square expansion


def test_square_expansion_curvature_reading_converges():
    weight = default_left_weight(GOLDEN)
    h = 0.3
    residuals = []
    for n in (500, 1000, 2000):
        x = weight.grid(n)
        w = random_test_function(
            (weight.a, weight.b), n, np.random.default_rng(6), pin_left=True
        )
        rep = square_expansion_residual(weight, h, w, x, "curvature")
        residuals.append(rep.relative_residual)
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[0] / residuals[2] > 8.0
    assert residuals[2] < 1e-5


def test_square_expansion_discriminates_readings():
    # the curvature factor on the mixed boundary term is what converges;
    # the bare coefficient stalls at a finite defect
    weight = default_left_weight(GOLDEN)  # phi'' = 2, readings differ
    h = 0.3
    n = 4000
    x = weight.grid(n)
    w = random_test_function(
        (weight.a, weight.b), n, np.random.default_rng(6), pin_left=True
    )
    curv = square_expansion_residual(weight, h, w, x, "curvature")
    plain = square_expansion_residual(weight, h, w, x, "plain")
    assert plain.relative_residual > 10.0 * curv.relative_residual


def test_square_expansion_readings_coincide_when_curvature_is_one(rng):
    # phi = x^2/2 + x has phi'' = 1, so both readings are the same formula
    weight = WeightFunction.polynomial([0.0, 1.0, 0.5], (0.0, 0.6))
    x = weight.grid(800)
    w = random_test_function((0.0, 0.6), 800, rng, pin_left=True)
    a = square_expansion_residual(weight, 0.4, w, x, "curvature")
    b = square_expansion_residual(weight, 0.4, w, x, "plain")
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_square_expansion_validates_reading(rng):
    weight = default_left_weight(GOLDEN)
    x = weight.grid(100)
    w = random_test_function((weight.a, weight.b), 100, rng)
    with pytest.raises(ValueError):
        square_expansion_residual(weight, 0.3, w, x, "middle")


# ---------------------------------------------------------- the inequality


def test_inequality_zero_function_gives_zero_ratio():
    weight = default_left_weight(GOLDEN)
    u = np.zeros(257, dtype=complex)
    sweep = evaluate_carleman_inequality(weight, u, [0.01, 0.1], "left")
    assert np.all(sweep.lhs == 0.0)
    assert np.all(sweep.ratio == 0.0)


def test_inequality_ratio_scale_invariant(rng):
    weight = default_left_weight(GOLDEN)
    u = random_test_function((weight.a, weight.b), 512, rng, pin_left=True)
    h = np.geomspace(1e-3, 1e-1, 7)
    base = evaluate_carleman_inequality(weight, u, h, "left")
    scaled = evaluate_carleman_inequality(weight, 5.0 * u, h, "left")
    np.testing.assert_allclose(scaled.ratio, base.ratio, rtol=1e-12)
    assert np.all(np.isfinite(base.ratio))
    assert np.all(base.ratio > 0.0)


def test_inequality_requires_outer_zero(rng):
    weight = default_left_weight(GOLDEN)
    u = random_test_function((weight.a, weight.b), 256, rng)  # free at both ends
    with pytest.raises(ValueError):
        evaluate_carleman_inequality(weight, u, [0.05], "left")
    with pytest.raises(ValueError):
        evaluate_carleman_inequality(weight, u, [0.05], "up")
    pinned = random_test_function((weight.a, weight.b), 256, rng, pin_left=True)
    with pytest.raises(ValueError, match="one sample"):  # a stack of samples
        evaluate_carleman_inequality(weight, np.stack([pinned, pinned]), [0.05], "left")


def test_inequality_right_side_orientation(rng):
    weight = default_right_weight(GOLDEN)
    u = random_test_function((weight.a, weight.b), 512, rng, pin_right=True)
    sweep = evaluate_carleman_inequality(weight, u, [0.05], "right")
    assert np.isfinite(sweep.ratio[0]) and sweep.ratio[0] > 0.0


def _side_weight(side, kind):
    if kind == "default":
        return default_left_weight(GOLDEN) if side == "left" else default_right_weight(GOLDEN)
    interval = (0.0, GOLDEN) if side == "left" else (GOLDEN, 1.0)
    return WeightFunction.exponential(3.0 if side == "left" else -3.0, interval)


def _pinned_basis(weight, side, cells, n_modes=8):
    return sample_basis((weight.a, weight.b), cells, n_modes, side == "left", side == "right")


def _coefficients(count, n_modes=8, seed=0):
    return np.array([random_coefficients(np.random.default_rng([seed, i]), n_modes)
                     for i in range(count)]).reshape(count, n_modes)


def test_constant_estimate_no_samples():
    weight = default_left_weight(GOLDEN)
    basis = _pinned_basis(weight, "left", 128)
    est = estimate_carleman_constant(
        weight, _coefficients(0), basis, np.geomspace(1e-3, 1e-1, 5), "left"
    )
    assert est.c_hat == 0.0
    assert est.sweep.ratio.shape == (0, 5)


def test_constant_estimate_tame_family():
    weight = default_left_weight(GOLDEN)
    h = np.geomspace(1e-3, 1e-1, 9)
    est = estimate_carleman_constant(
        weight, _coefficients(5), _pinned_basis(weight, "left", 512), h, "left"
    )
    assert est.c_hat > 0.0
    assert est.h0_hat == pytest.approx(h[-1])
    assert np.all(np.isfinite(est.sup_ratio))
    # one row per sample, and the sup is taken over them
    assert est.sweep.ratio.shape == (5, h.size)
    np.testing.assert_array_equal(est.sup_ratio, np.max(est.sweep.ratio, axis=0))


# cells 511 and 512 give an even and an odd sample count, so both Simpson endings
@pytest.mark.parametrize("cells", [511, 512])
@pytest.mark.parametrize("kind", ["default", "exp"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_constant_estimate_matches_pointwise_oracle(side, kind, cells):
    weight = _side_weight(side, kind)
    basis = _pinned_basis(weight, side, cells)
    coefficients = _coefficients(7, seed=cells)
    h = np.geomspace(1e-3, 1e-1, 13)[::-1]  # sorted by the estimate
    est = estimate_carleman_constant(weight, coefficients, basis, h, side)
    np.testing.assert_array_equal(est.h, np.sort(h))
    for c, lhs, rhs, ratio in zip(coefficients, est.sweep.lhs, est.sweep.rhs, est.sweep.ratio):
        direct = evaluate_carleman_inequality(weight, c @ basis, est.h, side)
        np.testing.assert_allclose(lhs, direct.lhs, rtol=1e-10, atol=0)
        np.testing.assert_allclose(rhs, direct.rhs, rtol=1e-10, atol=0)
        np.testing.assert_allclose(ratio, direct.ratio, rtol=1e-10, atol=0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_inequality_forms_are_the_pointwise_sides(side):
    weight = default_left_weight(GOLDEN) if side == "left" else default_right_weight(GOLDEN)
    basis = _pinned_basis(weight, side, 300, n_modes=5)
    h = np.array([0.004, 0.05])
    lhs_forms, rhs_forms = inequality_forms(weight, basis, h, side)
    assert lhs_forms.shape == rhs_forms.shape == (2, 5, 5)
    for k in range(5):  # a unit coefficient picks the diagonal entry
        direct = evaluate_carleman_inequality(weight, basis[k], h, side)
        np.testing.assert_allclose(lhs_forms[:, k, k], direct.lhs, rtol=1e-10)
        np.testing.assert_allclose(rhs_forms[:, k, k], direct.rhs, rtol=1e-10)


def test_constant_estimate_requires_pinned_basis_and_matching_coefficients():
    weight = default_left_weight(GOLDEN)
    h = [0.05]
    for basis in (
        sample_basis((weight.a, weight.b), 256, 8, False, False),  # free at both ends
        sample_basis((weight.a, weight.b), 256, 8, False, True),  # pinned at the damped end
    ):
        with pytest.raises(ValueError, match="outer"):
            estimate_carleman_constant(weight, _coefficients(3), basis, h, "left")
    basis = _pinned_basis(weight, "left", 256)
    with pytest.raises(ValueError):
        inequality_forms(weight, basis, h, "up")
    with pytest.raises(ValueError):  # 6 coefficients for an 8-row basis
        estimate_carleman_constant(weight, _coefficients(3, n_modes=6), basis, h, "left")


def test_constant_estimate_memory_does_not_grow_with_the_grid():
    """5,000 samples at 2048 cells would be 164 MB on the grid; the estimate
    holds its (samples, h) results and m x m forms only."""
    weight = default_left_weight(GOLDEN)
    basis = _pinned_basis(weight, "left", 2048)
    coefficients = _coefficients(5000)
    h = np.geomspace(1e-3, 1e-1, 13)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        est = estimate_carleman_constant(weight, coefficients, basis, h, "left")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.sweep.ratio.shape == (5000, 13)
    assert peak < 2_000_000, peak


# ------------------------------------------------------- random functions


def test_random_test_function_pinning(rng):
    u_l = random_test_function((0.0, 1.0), 200, rng, pin_left=True)
    u_r = random_test_function((0.0, 1.0), 200, rng, pin_right=True)
    u_b = random_test_function((0.0, 1.0), 200, rng, pin_left=True, pin_right=True)
    u_n = random_test_function((0.0, 1.0), 200, rng)
    for u in (u_l, u_r, u_b, u_n):
        assert u.shape == (201,)
    scale = np.max(np.abs(u_l))
    assert abs(u_l[0]) < 1e-12 * scale
    assert abs(u_r[-1]) < 1e-12 * np.max(np.abs(u_r))
    assert abs(u_b[0]) < 1e-12 * np.max(np.abs(u_b))
    assert abs(u_b[-1]) < 1e-12 * np.max(np.abs(u_b))
    assert abs(u_n[0]) > 1e-6 * np.max(np.abs(u_n))
    assert abs(u_n[-1]) > 1e-6 * np.max(np.abs(u_n))


@pytest.mark.parametrize("pins", [(False, False), (True, False), (False, True), (True, True)])
def test_random_test_function_is_coefficients_on_the_basis(pins):
    u = random_test_function((0.2, 0.7), 300, np.random.default_rng(31), 6, *pins)
    c = random_coefficients(np.random.default_rng(31), 6)
    np.testing.assert_array_equal(u, c @ sample_basis((0.2, 0.7), 300, 6, *pins))


def test_random_test_function_seed_reproducible():
    a = random_test_function((0.0, 1.0), 64, np.random.default_rng(3))
    b = random_test_function((0.0, 1.0), 64, np.random.default_rng(3))
    c = random_test_function((0.0, 1.0), 64, np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3
