import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import LIBM, NUMPY, grid_check, liouville_scan

from pointdamp import (
    GOLDEN_RATIO_CONJUGATE,
    ActuatorClassification,
    ClassifySettings,
    GrowthFunction,
    check_cos_grid,
    check_exp_grid,
    check_liouville_type,
    check_poly_grid,
    classify_actuator,
    cos_resonance_indicator,
    default_mu_grid,
    dist_nearest_integer,
    expand_continued_fraction,
    mu_grid_points,
    parse_actuator_position,
    resonance_indicator,
)

GOLDEN_INDEPENDENT = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------- parsing


def test_parse_decimal():
    value, exact = parse_actuator_position("0.5")
    assert value == 0.5 and exact is None


def test_parse_fraction():
    value, exact = parse_actuator_position("2/5")
    assert value == 0.4 and exact == Fraction(2, 5)


def test_parse_golden():
    value, exact = parse_actuator_position("golden")
    assert value == pytest.approx(GOLDEN_INDEPENDENT, abs=1e-16)
    assert exact == "golden"


@pytest.mark.parametrize("bad", ["0", "1", "-0.2", "3/2", "5/5", "1.0"])
def test_parse_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        parse_actuator_position(bad)


# ------------------------------------------------- nearest-integer distance


def test_dist_nearest_integer_scalars():
    assert dist_nearest_integer(0.5) == 0.5
    assert dist_nearest_integer(1.25) == 0.25
    assert dist_nearest_integer(3.0) == 0.0
    assert dist_nearest_integer(-0.3) == pytest.approx(0.3)


def test_dist_nearest_integer_array_range(rng):
    x = rng.uniform(-50, 50, size=1000)
    d = dist_nearest_integer(x)
    assert d.shape == x.shape
    assert np.all(d >= 0.0) and np.all(d <= 0.5)
    np.testing.assert_allclose(d, np.minimum(x % 1.0, 1.0 - x % 1.0), atol=1e-12)


# ------------------------------------------------------ continued fractions


def test_cf_one_half():
    cf = expand_continued_fraction(0.5)
    assert cf.partial_quotients == [0, 2]
    assert cf.convergents == [(0, 1), (1, 2)]
    assert cf.terminated and cf.is_rational


def test_cf_two_fifths_exact():
    cf = expand_continued_fraction(Fraction(2, 5))
    assert cf.partial_quotients == [0, 2, 2]
    assert cf.convergents[-1] == (2, 5)
    assert cf.is_rational


def test_cf_float_detects_simple_rational():
    cf = expand_continued_fraction(0.375)
    assert cf.is_rational
    p, q = cf.convergents[-1]
    assert (p, q) == (3, 8)


def test_cf_golden_all_ones():
    cf = expand_continued_fraction("golden", depth=12)
    assert cf.partial_quotients == [0] + [1] * 11
    assert cf.max_partial_quotient == 1
    assert not cf.is_rational
    # Fibonacci convergents
    assert cf.convergents[:6] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]


def test_cf_decimal_string_is_exact():
    # 0.375 = 3/8 = [0; 2, 1, 2]; a rounded remainder would end [..., 1, 1]
    cf = expand_continued_fraction("0.375")
    assert cf.partial_quotients == [0, 2, 1, 2]
    assert cf.convergents[-1] == (3, 8)
    assert (2, 5) not in cf.convergents
    assert cf.is_rational


def test_cf_decimal_strings_match_their_fractions(rng):
    # at most 11 digits, no remainder falls below rational_tol and no
    # quotient exceeds quotient_overflow, so both routes are exact Euclid
    texts = ["0.375", "0.1", "0.99999999999", "0.00000000001"]
    for x in rng.uniform(0.0, 1.0, size=300):
        texts += [f"{x:.6f}", f"{x:.11f}", f"{x:.3g}"]
    for text in texts:
        if not 0 < Fraction(text) < 1:
            continue
        a = expand_continued_fraction(text, depth=200)
        b = expand_continued_fraction(Fraction(text), depth=200)
        assert a.partial_quotients == b.partial_quotients, text
        assert a.convergents == b.convergents, text
        assert a.terminated and b.terminated, text


def test_cf_golden_string_stops_at_its_precision():
    cf = expand_continued_fraction("golden", depth=200)
    assert cf.truncated_by_precision
    assert not cf.terminated
    assert len(cf.partial_quotients) == 144
    assert all(a == 1 for a in cf.partial_quotients[1:])
    assert classify_actuator("golden", ClassifySettings(depth=200)).constant_type


def test_cf_float_golden_hits_precision_budget():
    cf = expand_continued_fraction(GOLDEN_RATIO_CONJUGATE, depth=60)
    assert cf.truncated_by_precision
    assert not cf.terminated
    assert all(a == 1 for a in cf.partial_quotients[1:])


def test_cf_quotient_overflow_reads_as_rational():
    # float(1/3) is a dyadic rational; with rational_tol disabled the huge
    # quotient in its exact expansion must trip the overflow cutoff
    cf = expand_continued_fraction(1.0 / 3.0, rational_tol=0.0)
    assert cf.terminated
    assert cf.partial_quotients == [0, 3]


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.2, -0.5])
def test_cf_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        expand_continued_fraction(bad)


def test_cf_recurrence_and_straddling(rng):
    for _ in range(10):
        x = float(rng.uniform(0.01, 0.99))
        cf = expand_continued_fraction(x, depth=20)
        a = cf.partial_quotients
        conv = cf.convergents
        # recurrence p_k = a_k p_{k-1} + p_{k-2}, same for q
        for k in range(2, len(conv)):
            pk, qk = conv[k]
            assert pk == a[k] * conv[k - 1][0] + conv[k - 2][0]
            assert qk == a[k] * conv[k - 1][1] + conv[k - 2][1]
        assert all(a_k >= 1 for a_k in a[1:])
        qs = [q for _, q in conv]
        assert all(q2 >= q1 for q1, q2 in zip(qs, qs[1:]))
        # straddling and approximation quality, asserted only while the
        # predicted error stays resolvable in double precision
        errs = [x - p / q for p, q in conv]
        for k in range(len(conv) - 1):
            if 1.0 / (qs[k] * qs[k + 1]) < 1e-13:
                break
            assert errs[k] * errs[k + 1] <= 0.0
            assert abs(errs[k]) < 1.0 / (qs[k] * qs[k + 1])


def test_cf_convergents_are_best_approximations():
    xi = GOLDEN_RATIO_CONJUGATE
    cf = expand_continued_fraction(xi, depth=12)
    m = np.arange(1, 101, dtype=float)
    d = dist_nearest_integer(m * xi)
    for _, q in cf.convergents:
        if q < 2 or q > 100:
            continue
        assert d[q - 1] < np.min(d[: q - 1])


# ---------------------------------------------------------- growth functions


def test_growth_identity():
    phi = GrowthFunction.identity()
    np.testing.assert_allclose(phi([1.0, 5.0, 10.0]), [1.0, 5.0, 10.0])


def test_growth_power_log():
    phi = GrowthFunction.power_log(2.0, 0.5)
    m = np.array([3.0, 10.0])
    np.testing.assert_allclose(phi(m), m**2 * np.log(m) ** 1.5)


def test_growth_exponential():
    phi = GrowthFunction.exponential(0.3)
    assert phi(10.0) == pytest.approx(math.exp(3.0))


def test_growth_table_rejects_decreasing():
    with pytest.raises(ValueError):
        GrowthFunction.from_table([1.0, 2.0, 3.0], [1.0, 0.5, 2.0])


def test_growth_table_interpolates():
    phi = GrowthFunction.from_table([1.0, 10.0], [1.0, 19.0])
    assert phi(5.5) == pytest.approx(10.0)


# ------------------------------------------------------- grid expressions


def test_resonance_indicator_known_values():
    # xi=1/2, mu=pi/2: 1 + (sin^2(pi/4))^2 = 1.25
    assert resonance_indicator(0.5, math.pi / 2) == pytest.approx(1.25, abs=1e-14)
    assert resonance_indicator(0.5, 2 * math.pi) == pytest.approx(0.0, abs=1e-28)
    assert cos_resonance_indicator(0.5, math.pi / 2) == pytest.approx(0.25, abs=1e-14)


def test_resonance_indicator_vectorized(rng):
    mu = rng.uniform(1, 100, size=64)
    vals = resonance_indicator(0.3, mu)
    expect = np.sin(mu) ** 2 + (np.sin(0.3 * mu) * np.sin(0.7 * mu)) ** 2
    np.testing.assert_allclose(vals, expect, atol=1e-15)


def test_default_mu_grid_covers_range():
    grid = default_mu_grid(1.0, 5.0, 0.5)
    assert grid[0] == 1.0
    assert grid[-1] == pytest.approx(5.0)
    np.testing.assert_allclose(np.diff(grid), 0.5)


# ------------------------------------------------------- condition checks


def test_exp_grid_golden_passes():
    rep = check_exp_grid(GOLDEN_RATIO_CONJUGATE)
    assert rep.passed
    assert rep.fitted_constants["inf_weighted"] > 0.0


def test_exp_grid_rational_fails_on_resonance():
    grid = np.sort(np.append(default_mu_grid(1.0, 10.0, 0.01), 2 * math.pi))
    rep = check_exp_grid(0.5, grid)
    assert not rep.passed
    assert rep.witness == 2 * math.pi


def test_poly_and_cos_grid_golden_pass():
    assert check_poly_grid(GOLDEN_RATIO_CONJUGATE, eps=1.0).passed
    assert check_cos_grid(GOLDEN_RATIO_CONJUGATE).passed


def test_grid_checks_validate_inputs():
    with pytest.raises(ValueError):
        check_exp_grid(0.5, k1=-1.0)
    with pytest.raises(ValueError):
        check_poly_grid(0.5, mu_grid=np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        check_exp_grid(0.5, mu_grid=np.array([]))


def test_short_grid_passes_with_note():
    rep = check_exp_grid(GOLDEN_RATIO_CONJUGATE, mu_grid=np.array([1.0, 2.0, 3.0]))
    assert rep.passed
    assert "short" in rep.note


def test_keep_trace_shape():
    grid = default_mu_grid(1.0, 20.0, 0.1)
    rep = check_exp_grid(GOLDEN_RATIO_CONJUGATE, mu_grid=grid, keep_trace=True)
    assert rep.trace is not None
    assert rep.trace.shape == (grid.size, 3)


def test_liouville_golden_passes():
    rep = check_liouville_type(
        GOLDEN_RATIO_CONJUGATE, GrowthFunction.identity(), 0.2, 1000
    )
    assert rep.passed
    # golden infimum of m*dist(m*xi) is 1/(golden+2) ~ 0.382
    assert rep.fitted_constants["min_product"] == pytest.approx(0.38196, abs=1e-4)


def test_liouville_near_rational_fails_at_infimum():
    # 0.110001 approximates 11/100 to 1e-6, so m=100 nearly lands on an integer
    rep = check_liouville_type(0.110001, GrowthFunction.identity(), 0.2, 10_000)
    assert not rep.passed
    assert rep.witness == 100.0
    # the witness reproduces the violation
    assert rep.witness * dist_nearest_integer(rep.witness * 0.110001) < 0.2


def test_liouville_rejects_bad_kappa():
    with pytest.raises(ValueError):
        check_liouville_type(0.5, GrowthFunction.identity(), 0.0, 100)


# ------------------------------------------------------------ classification


def test_classify_one_half():
    cls = classify_actuator(Fraction(1, 2))
    assert isinstance(cls, ActuatorClassification)
    assert cls.is_rational
    assert not cls.strongly_stable
    assert not cls.constant_type
    # the resonance at 2*pi is placed on the grid and witnessed
    assert not cls.exp_grid.passed
    assert cls.exp_grid.witness == pytest.approx(2 * math.pi, abs=1e-12)
    assert not cls.poly_grid.passed


def test_classify_golden_string():
    cls = classify_actuator("golden")
    assert not cls.is_rational
    assert cls.strongly_stable
    assert cls.constant_type
    assert cls.max_partial_quotient == 1
    assert cls.exp_grid.passed and cls.poly_grid.passed


def test_classify_golden_string_runs_grid_checks_on_the_double():
    assert (
        classify_actuator("golden").xi
        == GOLDEN_RATIO_CONJUGATE
        == parse_actuator_position("golden")[0]
    )


def test_classify_golden_float_matches_string():
    a = classify_actuator("golden")
    b = classify_actuator(GOLDEN_RATIO_CONJUGATE)
    assert a.is_rational == b.is_rational
    assert a.constant_type == b.constant_type
    prefix = min(len(a.continued_fraction.partial_quotients),
                 len(b.continued_fraction.partial_quotients))
    assert (a.continued_fraction.partial_quotients[:prefix]
            == b.continued_fraction.partial_quotients[:prefix])


# ------------------------------------------ candidate search against full scans

SQRT2_M1 = math.sqrt(2.0) - 1.0
POSITIONS = [GOLDEN_RATIO_CONJUGATE, SQRT2_M1, 0.5, 0.4, 0.110001, 7 / 25] + [
    random.Random(seed).random() for seed in (1, 2, 3)
]
POSITION_IDS = ["golden", "sqrt2-1", "1/2", "2/5", "0.110001", "7/25", "rand1", "rand2", "rand3"]


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def assert_reports_identical(rep, ref, trace=False):
    for name in ("condition_id", "xi", "verdict", "witness", "note"):
        assert getattr(rep, name) == getattr(ref, name), name
    assert rep.fitted_constants.keys() == ref.fitted_constants.keys()
    for key, value in rep.fitted_constants.items():
        assert _same(value, ref.fitted_constants[key]), (key, value, ref.fitted_constants[key])
    if trace:
        assert rep.trace.shape == ref.trace.shape
        np.testing.assert_array_equal(np.array(list(rep.trace)), ref.trace)


def _library_grid_check(kind, xi, grid, weight, keep_trace=False):
    if kind == "poly":
        return check_poly_grid(xi, weight, grid, keep_trace=keep_trace)
    check = check_exp_grid if kind == "exp" else check_cos_grid
    return check(xi, grid, weight, keep_trace=keep_trace)


GRIDS = {
    "default": None,
    "short": default_mu_grid(1.0, 3.5, 0.5),
    "with-2pi": np.sort(np.append(default_mu_grid(1.0, 60.0, 0.01), 2 * math.pi)),
}


@pytest.mark.parametrize("k1, eps", [(0.0, -2.0), (1.0, 0.0), (3.0, 1.0)])
@pytest.mark.parametrize("xi", POSITIONS, ids=POSITION_IDS)
def test_grid_checks_equal_full_scan_on_default_grid(xi, k1, eps):
    for kind, weight in (("exp", k1), ("cos", k1), ("poly", eps)):
        rep = _library_grid_check(kind, xi, None, weight)
        assert_reports_identical(rep, grid_check(kind, xi, None, weight))


@pytest.mark.parametrize("grid", ["short", "with-2pi"])
@pytest.mark.parametrize("xi", POSITIONS, ids=POSITION_IDS)
def test_grid_checks_equal_full_scan_on_caller_grids(xi, grid):
    for kind, weight in (("exp", 1.0), ("cos", 1.0), ("poly", 1.0)):
        rep = _library_grid_check(kind, xi, GRIDS[grid], weight, keep_trace=True)
        ref = grid_check(kind, xi, GRIDS[grid], weight, keep_trace=True)
        assert_reports_identical(rep, ref, trace=True)


def test_grid_check_traces_equal_full_scan_on_default_grid():
    for kind in ("exp", "cos", "poly"):
        rep = _library_grid_check(kind, GOLDEN_RATIO_CONJUGATE, None, 1.0, keep_trace=True)
        ref = grid_check(kind, GOLDEN_RATIO_CONJUGATE, None, 1.0, keep_trace=True)
        assert_reports_identical(rep, ref, trace=True)


def test_classify_equals_full_scans_with_injected_resonances():
    for xi in (Fraction(1, 2), Fraction(2, 5), "golden"):
        cls = classify_actuator(xi, ClassifySettings(mu_max=100.0), keep_trace=True)
        grid = np.asarray(cls.exp_grid.trace)[:, 0]
        assert_reports_identical(cls.exp_grid, grid_check("exp", cls.xi, grid, keep_trace=True), True)
        assert_reports_identical(cls.poly_grid, grid_check("poly", cls.xi, grid, keep_trace=True), True)


def test_grid_checks_agree_with_numpy_ufuncs():
    # numpy's SIMD exp and log may differ from libm in the last place
    for xi in POSITIONS:
        for kind in ("exp", "cos", "poly"):
            rep = _library_grid_check(kind, xi, None, 1.0)
            ref = grid_check(kind, xi, None, 1.0, f=NUMPY)
            assert (rep.verdict, rep.witness, rep.note) == (ref.verdict, ref.witness, ref.note)
            for key, value in rep.fitted_constants.items():
                assert value == pytest.approx(ref.fitted_constants[key], rel=1e-14, abs=1e-300)


PHIS = {
    "identity": GrowthFunction.identity(),
    "power_log": GrowthFunction.power_log(2.0, 0.5),
    "power_log-sqrt": GrowthFunction.power_log(0.5, -1.0),
    "exponential": GrowthFunction.exponential(0.01),
    "exponential-overflow": GrowthFunction.exponential(1.0),
}


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("xi", POSITIONS, ids=POSITION_IDS)
def test_liouville_records_equal_full_scan(xi, phi):
    for m_max, kappa in ((1, 0.2), (1000, 0.2), (20_000, 0.05)):
        rep = check_liouville_type(xi, PHIS[phi], kappa, m_max, keep_trace=m_max <= 1000)
        ref = liouville_scan(xi, PHIS[phi], kappa, m_max, keep_trace=m_max <= 1000)
        assert_reports_identical(rep, ref, trace=m_max <= 1000)


@pytest.mark.parametrize("xi", POSITIONS, ids=POSITION_IDS)
def test_liouville_records_equal_full_scan_to_a_million(xi):
    phi = GrowthFunction.identity()
    for kappa in (0.2, 1e-3):
        rep = check_liouville_type(xi, phi, kappa, 10**6)
        assert_reports_identical(rep, liouville_scan(xi, phi, kappa, 10**6))


def test_liouville_overflowing_phi_reports_the_first_nan():
    # exp(m) overflows past m = 709; at xi = 1/2 every even m has d = 0
    rep = check_liouville_type(0.5, GrowthFunction.exponential(1.0), 0.2, 1000)
    assert math.isnan(rep.fitted_constants["min_product"])
    assert rep.witness == 710.0
    assert rep.fitted_constants["first_violation_m"] == 2.0


def test_mu_grid_points_equal_numpy_arange(rng):
    configs = [(1.0, 500.0, 0.01), (1.0, 5.0, 0.5), (2.0, 2.0, 0.1), (0.3, 7.9, 3.3), (1e-3, 1.0, 1e-4)]
    configs += [tuple(sorted(rng.uniform(0.01, 50.0, 2))) + (float(rng.uniform(1e-3, 2.0)),)
                for _ in range(40)]
    for mu_min, mu_max, step in configs:
        points = mu_grid_points(mu_min, mu_max, step)
        grid = default_mu_grid(mu_min, mu_max, step)
        assert len(points) == grid.size
        np.testing.assert_array_equal(np.array(list(points)), grid)
        np.testing.assert_array_equal([points[j] for j in range(-len(points), len(points))],
                                      np.concatenate([grid, grid]))


def test_grid_checks_need_a_nondecreasing_grid():
    with pytest.raises(ValueError):
        check_exp_grid(0.3, [1.0, 3.0, 2.0])
    with pytest.raises(ValueError):
        check_cos_grid(0.3, [1.0, math.nan, 2.0])
    with pytest.raises(ValueError):
        check_poly_grid(0.3, 1.0, [1.0, 2.0, math.inf])
    with pytest.raises(ValueError):
        check_exp_grid(0.3, k1=math.inf)
    with pytest.raises(ValueError):
        check_poly_grid(0.3, eps=math.nan)
    for args in ((5.0, 1.0, -0.5), (1.0, 5.0, 0.0), (1.0, 5.0, math.nan), (1.0, 5.0, math.inf),
                 (math.inf, 5.0, 0.5), (1.0, math.nan, 0.5)):
        with pytest.raises(ValueError):
            mu_grid_points(*args)


@pytest.mark.parametrize("make", [
    lambda: GrowthFunction.exponential(-1.0),
    lambda: GrowthFunction.exponential(math.inf),
    lambda: GrowthFunction.exponential(math.nan),
    lambda: GrowthFunction.power_log(-2.0, 0.5),
    lambda: GrowthFunction.power_log(1.0, -1.5),
    lambda: GrowthFunction.power_log(math.nan, 0.0),
])
def test_growth_functions_must_be_nondecreasing(make):
    with pytest.raises(ValueError):
        make()


def test_growth_functions_follow_their_numpy_formulas():
    m = np.arange(1.0, 2001.0)
    for phi, expected in (
        (GrowthFunction.power_log(2.0, 0.5), m**2.0 * np.log(np.maximum(m, 2.0)) ** 1.5),
        (GrowthFunction.power_log(0.5, 1.0), np.sqrt(m) * np.log(np.maximum(m, 2.0)) ** 2),
        (GrowthFunction.exponential(0.3), np.exp(0.3 * m)),
    ):
        values = phi(m)
        assert values.shape == m.shape
        np.testing.assert_allclose(values, expected, rtol=1e-15)
        assert all(phi(v) == values[i] for i, v in enumerate(m.tolist()))
        assert np.all(np.diff(values) >= 0)


def test_scalar_helpers_equal_their_array_forms(rng):
    x = rng.uniform(-1e6, 1e6, 500)
    assert [dist_nearest_integer(v) for v in x.tolist()] == dist_nearest_integer(x).tolist()
    assert dist_nearest_integer(2.5) == 0.5 and dist_nearest_integer(-3.5) == 0.5
    mu = rng.uniform(0.0, 500.0, 500)
    for f in (resonance_indicator, cos_resonance_indicator):
        assert [f(0.37, v) for v in mu.tolist()] == f(0.37, mu).tolist()
