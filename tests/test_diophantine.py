import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    LIBM, NUMPY, continued_fraction, grid_check, liouville_scan, refuted_for_every_xi,
    strip_minima,
)

from pointdamp import diophantine, expansion
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
    parse_actuator_position,
    resonance_indicator,
    settle,
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


def test_parser_names_are_the_inputs_modules_own():
    # the command line parses xi through pointdamp.inputs without loading this
    # module; diophantine hands out the same objects, not copies
    from pointdamp import diophantine, inputs

    assert diophantine.parse_actuator_position is inputs.parse_actuator_position
    assert diophantine.GOLDEN_RATIO_CONJUGATE is inputs.GOLDEN_RATIO_CONJUGATE
    assert diophantine.default_mu_grid is inputs.default_mu_grid


def _same_report(a, b):
    assert (a.verdict, a.witness, a.fitted_constants) == (b.verdict, b.witness, b.fitted_constants)


@pytest.mark.parametrize(
    "text", ["golden", "1/2", "0.5", "0.3333333333333333", "0.41421356237309515"])
def test_a_parsed_position_reads_as_its_exact_form_or_double(text):
    # the parser's Position is not one that settle returned: the checks and
    # classify_actuator read it as the number it names, a decimal's as its double
    position = parse_actuator_position(text)
    number = position.exact or position.value
    for check in (check_exp_grid, check_poly_grid, check_cos_grid):
        _same_report(check(position), check(number))
    phi = GrowthFunction.identity()
    _same_report(check_liouville_type(position, phi, 0.2, 1000),
                 check_liouville_type(number, phi, 0.2, 1000))
    for overflow in (1e12, 1e16):
        settings = ClassifySettings(quotient_overflow=overflow)
        parsed, direct = classify_actuator(position, settings), classify_actuator(number, settings)
        assert parsed.is_rational == direct.is_rational
        assert (parsed.continued_fraction.partial_quotients
                == direct.continued_fraction.partial_quotients)
        _same_report(parsed.exp_grid, direct.exp_grid)
        _same_report(parsed.poly_grid, direct.poly_grid)


def test_a_parsed_decimal_settles_at_classifys_own_overflow():
    position = parse_actuator_position("0.3333333333333333")
    assert check_exp_grid(position).verdict == "fail"  # 1/3 at the default 1e12
    loose = classify_actuator(position, ClassifySettings(quotient_overflow=1e16))
    assert not loose.is_rational and loose.exp_grid.verdict == "pass"


# ------------------------------------------------- nearest-integer distance


def test_dist_nearest_integer_scalars():
    assert dist_nearest_integer(0.5) == 0.5
    assert dist_nearest_integer(1.25) == 0.25
    assert dist_nearest_integer(3.0) == 0.0
    assert dist_nearest_integer(-0.3) == pytest.approx(0.3)
    # halves round to even, as numpy.round does
    assert dist_nearest_integer(2.5) == 0.5 and dist_nearest_integer(-3.5) == 0.5
    assert math.isnan(dist_nearest_integer(math.inf))


def test_dist_nearest_integer_array_range(rng):
    x = rng.uniform(-50, 50, size=1000)
    d = np.array([dist_nearest_integer(v) for v in x.tolist()])
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


@pytest.mark.parametrize("x, quotients", [
    (0.375, [0, 2, 1, 2]),  # 3/8, a double exactly
    # the doubles nearest these decimals end on a quotient above
    # quotient_overflow; the expansion before it ends canonically, not on 1
    (0.3, [0, 3, 3]),
    (0.9, [0, 1, 9]),
    (0.1, [0, 10]),
    (0.011, [0, 90, 1, 10]),
], ids=["0.375", "0.3", "0.9", "0.1", "0.011"])
def test_cf_float_detects_simple_rational(x, quotients):
    cf = expand_continued_fraction(x)
    assert cf.is_rational and not cf.truncated_by_precision
    assert cf.partial_quotients == quotients
    assert cf.convergents[-1] == Fraction(str(x)).as_integer_ratio()


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
    # at most 11 digits, no quotient exceeds quotient_overflow, so both
    # routes end where Euclid does
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
    # float(1/3) is a dyadic rational; the huge quotient in its exact
    # expansion must trip the overflow cutoff
    cf = expand_continued_fraction(1.0 / 3.0)
    assert cf.terminated
    assert cf.partial_quotients == [0, 3]


def test_cf_float_is_the_exact_expansion_of_its_double():
    # a double is a rational; its quotients, convergents and cut point are
    # those of Fraction(x) under the same rule, q_k q_{k+1} <= 2**50
    draw = random.Random(1).random
    wrong = []
    for _ in range(20_000):
        x = draw()
        cf = expand_continued_fraction(x, depth=200)
        got = cf.partial_quotients, cf.convergents, cf.truncated_by_precision
        if got != continued_fraction(Fraction(x), 2**50):
            wrong.append(x)
    assert not wrong, f"{len(wrong)} of 20000 differ, first {wrong[:3]}"
    # the last kept quotient is exact at q_k ~ 1e8, where rounded complete
    # quotients would read 9
    cf = expand_continued_fraction(0.8375779756625729, depth=200)
    assert cf.partial_quotients[-3:] == [15, 1, 10]
    assert cf.convergents[-1] == (88266649, 105383202)
    assert cf.truncated_by_precision


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
    d = np.array([dist_nearest_integer(m * xi) for m in range(1, 101)])
    for _, q in cf.convergents:
        if q < 2 or q > 100:
            continue
        assert d[q - 1] < np.min(d[: q - 1])


# ---------------------------------------------------------- growth functions


def test_growth_identity():
    phi = GrowthFunction.identity()
    assert [phi(m) for m in (1.0, 5.0, 10)] == [1.0, 5.0, 10.0]


def test_growth_power_log():
    phi = GrowthFunction.power_log(2.0, 0.5)
    for m in (3.0, 10.0):
        assert phi(m) == pytest.approx(m**2 * math.log(m) ** 1.5, rel=1e-15)


def test_growth_exponential():
    phi = GrowthFunction.exponential(0.3)
    assert phi(10.0) == pytest.approx(math.exp(3.0))


# ------------------------------------------------------- grid expressions


def test_resonance_indicator_known_values():
    # xi=1/2, mu=pi/2: 1 + (sin^2(pi/4))^2 = 1.25
    assert resonance_indicator(0.5, math.pi / 2) == pytest.approx(1.25, abs=1e-14)
    assert resonance_indicator(0.5, 2 * math.pi) == pytest.approx(0.0, abs=1e-28)
    assert cos_resonance_indicator(0.5, math.pi / 2) == pytest.approx(0.25, abs=1e-14)


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
    rep = check_exp_grid(0.5, 1.0, 10.0)
    assert not rep.passed
    assert rep.note == "exact resonance"
    assert rep.witness == pytest.approx(2 * math.pi, abs=1e-12)


def test_poly_and_cos_grid_golden_pass():
    # eps = 3 is the least exponent a position can satisfy
    assert check_poly_grid(GOLDEN_RATIO_CONJUGATE, eps=3.0).passed
    assert check_cos_grid(GOLDEN_RATIO_CONJUGATE).passed


def test_golden_passes_at_its_convergents_far_out():
    # the strip minima at 317,811 pi (sine) and 257,114.5 pi (cosine) are
    # about 4e-22: small, and not an exact resonance
    assert check_poly_grid(GOLDEN_RATIO_CONJUGATE, 3.0, 998_000.0, 999_000.0).passed
    assert check_exp_grid(GOLDEN_RATIO_CONJUGATE, 998_000.0, 999_000.0).passed
    assert check_cos_grid(GOLDEN_RATIO_CONJUGATE, 807_000.0, 808_500.0).passed


@pytest.mark.parametrize("xi", [1e-6, 0.999999])
def test_exp_grid_near_the_ends_passes(xi):
    # the indicator at pi is about 1e-21, and no rational is near
    rep = check_exp_grid(xi, 1.0, 10.0)
    assert rep.passed
    assert 0.0 < rep.fitted_constants["inf_weighted"] < 1e-20


def test_exact_resonance_is_found_without_a_strip_search(monkeypatch):
    def no_strips(*args):
        raise AssertionError("strips searched")

    monkeypatch.setattr(diophantine, "_strips", no_strips)
    rep = check_exp_grid(Fraction(1, 999_983), 1.0, 3.2e6)
    assert rep.note == "exact resonance"
    assert rep.witness == 999_983 * math.pi
    assert rep.fitted_constants["inf_weighted"] == 0.0


def test_exact_resonances_of_every_small_rational():
    # closed form against the strip-by-strip Fraction search, for p/q with
    # q <= 25 on a range that starts past a strip centre
    for q in range(2, 26):
        for p in range(1, q):
            if math.gcd(p, q) > 1:
                continue
            for kind, check in (("exp", check_exp_grid), ("cos", check_cos_grid)):
                rep = check(Fraction(p, q), 3.2, 100.0)
                resonance = _resonance_by_search(kind, Fraction(p, q), (3.2, 100.0))
                assert (rep.note == "exact resonance") == (resonance is not None), (p, q, kind)
                assert resonance is None or rep.witness == resonance, (p, q, kind)


@pytest.mark.parametrize("xi, form", [
    (0.4, (2, 5)), (0.4 + 1e-12, None), (0.5 + 1e-13, (1, 2)), (GOLDEN_RATIO_CONJUGATE, None),
    (0.375, (3, 8)), (Fraction(1, 999_983), (1, 999_983)),
])
def test_rational_form_is_where_the_expansion_ends(xi, form):
    assert expansion.rational_form(xi) == form
    cf = expand_continued_fraction(xi)
    assert cf.is_rational == (form is not None)
    if form is not None:
        assert cf.convergents[-1] == form
        assert settle(xi) == (float(xi), Fraction(*form))
    else:
        assert settle(xi) == (xi, None)


def test_grid_checks_validate_inputs():
    with pytest.raises(ValueError):
        check_exp_grid(0.5, k1=-1.0)
    with pytest.raises(ValueError):
        check_poly_grid(0.5, mu_min=-1.0, mu_max=2.0)
    with pytest.raises(ValueError):
        check_exp_grid(0.5, mu_min=3.0, mu_max=2.0)


def test_short_grid_passes_with_note():
    rep = check_exp_grid(GOLDEN_RATIO_CONJUGATE, mu_min=1.0, mu_max=3.0)
    assert rep.passed
    assert rep.note == "verified on the checked range only"


def test_keep_trace_shape():
    # one row per pi-strip around n*pi, n = 0..6, that meets [1, 20]
    rep = check_exp_grid(GOLDEN_RATIO_CONJUGATE, mu_min=1.0, mu_max=20.0, keep_trace=True)
    assert rep.trace is not None
    assert rep.trace.shape == (7, 3)
    assert rep.trace[0][0] == 1.0 and rep.trace[-1][0] <= 20.0


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


def test_liouville_reads_the_rational_a_double_settles_on():
    # 0.28 is 7/25, so ||25 x|| = 0; in floats 25 * 0.28 is 7.000000000000001
    rep = check_liouville_type(0.28, GrowthFunction.identity(), 0.2, 1000)
    assert rep.witness == 25.0
    assert rep.fitted_constants["min_product"] == 0.0


def test_liouville_reads_an_unsettled_double_exactly():
    # 0.110001's expansion does not end, so ||10^6 x|| is small but not 0;
    # in floats 10^6 * 0.110001 is 110001.0
    phi = GrowthFunction.power_log(2.0, 0.5)
    rep = check_liouville_type(0.110001, phi, 1e-3, 10**6)
    assert rep.passed
    assert rep.fitted_constants["min_product"] > 1e-3


def test_liouville_reads_golden_to_60_digits():
    rep = check_liouville_type("golden", GrowthFunction.identity(), 0.2, 1000)
    assert rep.xi == GOLDEN_RATIO_CONJUGATE
    assert rep.fitted_constants["min_product"] == 0.38196601125010515
    assert check_liouville_type(GOLDEN_RATIO_CONJUGATE, GrowthFunction.identity(), 0.2,
                                1000).fitted_constants["min_product"] == 0.3819660112501051


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
    # the resonance at 2*pi is the least strip minimum, and witnessed
    assert not cls.exp_grid.passed
    assert cls.exp_grid.witness == pytest.approx(2 * math.pi, abs=1e-12)
    assert not cls.poly_grid.passed


def test_classify_golden_string():
    cls = classify_actuator("golden")
    assert not cls.is_rational
    assert cls.strongly_stable
    assert cls.constant_type
    assert cls.max_partial_quotient == 1
    # the default poly_eps = 1 asks for a weight below mu^4, which no position meets
    assert cls.exp_grid.passed and not cls.poly_grid.passed
    assert cls.poly_grid.note.startswith("refuted for every xi")


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


# ------------------------------------------ strip minima against full scans

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
        np.testing.assert_array_equal(np.array(list(rep.trace)), np.array(list(ref.trace)))


def _library_grid_check(kind, xi, mu_range, weight, keep_trace=False):
    if kind == "poly":
        return check_poly_grid(xi, weight, *mu_range, keep_trace=keep_trace)
    check = check_exp_grid if kind == "exp" else check_cos_grid
    return check(xi, *mu_range, weight, keep_trace=keep_trace)


def _expression(kind, xi, mu):
    """The checked indicator at mu, evaluated afresh with math."""
    if kind == "cos":
        return math.cos(mu) ** 2 + (math.cos(xi * mu) * math.sin((1.0 - xi) * mu)) ** 2
    return math.sin(mu) ** 2 + (math.sin(xi * mu) * math.sin((1.0 - xi) * mu)) ** 2


def _log_weighted(kind, xi, mu, weight):
    """The checked function at mu: log indicator + log-weight, -inf where the indicator is 0."""
    expression = _expression(kind, xi, mu)
    log_weight = (1.0 + weight) * math.log(mu) if kind == "poly" else weight * mu
    return (math.log(expression) if expression > 0.0 else -math.inf) + log_weight


def _resonance_by_search(kind, xi, mu_range):
    """The first strip centre in the range where the indicator of the
    rational that xi expands to vanishes, found strip by strip in Fractions,
    or None."""
    cf = expand_continued_fraction(xi)
    if not cf.is_rational:
        return None
    x = Fraction(*cf.convergents[-1])
    centre = 0.5 if kind == "cos" else 0.0
    for n in range(round(mu_range[0] / math.pi - centre), round(mu_range[1] / math.pi) + 1):
        mu = (n + centre) * math.pi
        if not mu_range[0] <= mu <= mu_range[1]:
            continue
        # sin(mu) = sin(x mu) = 0, or cos(mu) = cos(x mu) = 0
        if kind != "cos" and n >= 1 and (n * x).denominator == 1:
            return mu
        if kind == "cos" and ((2 * n + 1) * x).denominator == 1 and ((2 * n + 1) * x) % 2 == 1:
            return mu
    return None


def assert_strip_minima_match(rep, kind, xi, mu_range, weight, step=1e-3):
    """The report's minima are at most the dense scan's, to 1e-9, and are
    attained at the reported points; an exact resonance is witnessed at the
    first strip centre where the rational's indicator vanishes; the verdict
    fails on an exact resonance or a weight refuted for every xi, and passes
    otherwise."""
    ref = strip_minima(kind, xi, *mu_range, weight, step)
    constants = rep.fitted_constants
    log_k2 = constants["log_inf_weighted"]
    assert log_k2 <= min(ref)[0] + 1e-9
    resonance = _resonance_by_search(kind, xi, mu_range)
    if resonance is not None:
        assert rep.note == "exact resonance" and rep.witness == resonance
        assert log_k2 == -math.inf and constants["inf_weighted"] == 0.0
    else:
        assert _log_weighted(kind, xi, rep.witness, weight) == log_k2
    assert mu_range[0] <= rep.witness <= mu_range[1]
    if rep.trace is not None:
        rows = list(rep.trace)
        assert len(rows) == len(ref)
        for (mu, expression, weighted), (value, _) in zip(rows, ref):
            assert expression == _expression(kind, xi, mu)
            assert _log_weighted(kind, xi, mu, weight) <= value + 1e-9
            assert weighted == pytest.approx(math.exp(_log_weighted(kind, xi, mu, weight)),
                                             rel=1e-12, abs=0.0)
    assert set(constants) == {"eps" if kind == "poly" else "k1", "inf_weighted",
                              "log_inf_weighted"}
    if not math.isfinite(log_k2):
        assert rep.verdict == "fail" and rep.note == "exact resonance"
    elif refuted_for_every_xi(kind, weight):
        assert rep.verdict == "fail" and rep.note.startswith("refuted for every xi")
    else:
        assert rep.passed and rep.note == "verified on the checked range only"


RANGES = {"default": (1.0, 500.0), "short": (1.0, 3.5), "with-2pi": (1.0, 60.0)}


@pytest.mark.parametrize("k1, eps", [(0.0, -2.0), (1.0, 0.0), (3.0, 1.0)])
@pytest.mark.parametrize("xi", POSITIONS, ids=POSITION_IDS)
def test_grid_checks_equal_full_scan_on_default_grid(xi, k1, eps):
    # the default range [1, 500], against a dense scan of every strip
    for kind, weight in (("exp", k1), ("cos", k1), ("poly", eps)):
        rep = _library_grid_check(kind, xi, RANGES["default"], weight)
        assert_strip_minima_match(rep, kind, xi, RANGES["default"], weight)


@pytest.mark.parametrize("grid", ["short", "with-2pi"])
@pytest.mark.parametrize("xi", POSITIONS, ids=POSITION_IDS)
def test_grid_checks_equal_full_scan_on_caller_grids(xi, grid):
    # caller ranges: fewer than 8 strips, and [1, 60] holding 2*pi
    for kind in ("exp", "cos", "poly"):
        rep = _library_grid_check(kind, xi, RANGES[grid], 1.0, keep_trace=True)
        assert_strip_minima_match(rep, kind, xi, RANGES[grid], 1.0, step=1e-4)
        assert_reports_identical(_library_grid_check(kind, xi, RANGES[grid], 1.0), rep)


def test_grid_check_traces_equal_full_scan_on_default_grid():
    for kind in ("exp", "cos", "poly"):
        rep = _library_grid_check(kind, GOLDEN_RATIO_CONJUGATE, RANGES["default"], 1.0, True)
        assert rep.trace.shape == (160, 3)
        assert_strip_minima_match(rep, kind, GOLDEN_RATIO_CONJUGATE, RANGES["default"], 1.0)
        # the strips skipped by the search cannot change the report
        plain = _library_grid_check(kind, GOLDEN_RATIO_CONJUGATE, RANGES["default"], 1.0)
        assert_reports_identical(plain, rep)


def test_classify_equals_its_strip_checks():
    for xi in (Fraction(1, 2), Fraction(2, 5), "golden"):
        cls = classify_actuator(xi, ClassifySettings(mu_max=100.0), keep_trace=True)
        exp_ref = check_exp_grid(cls.xi, 1.0, 100.0, keep_trace=True)
        poly_ref = check_poly_grid(cls.xi, 1.0, 1.0, 100.0, keep_trace=True)
        assert_reports_identical(cls.exp_grid, exp_ref, trace=True)
        assert_reports_identical(cls.poly_grid, poly_ref, trace=True)


def test_strip_minima_are_never_above_the_grid():
    # the 0.01 grid the checks once ran on, with libm and with numpy's ufuncs
    for xi in POSITIONS:
        for kind in ("exp", "cos", "poly"):
            rep = _library_grid_check(kind, xi, RANGES["default"], 1.0)
            for f in (LIBM, NUMPY):
                ref = grid_check(kind, xi, None, 1.0, f=f)
                logs = rep.fitted_constants["log_inf_weighted"], ref.fitted_constants["log_inf_weighted"]
                assert logs[0] <= logs[1] + 1e-12
                assert rep.fitted_constants["inf_weighted"] <= ref.fitted_constants["inf_weighted"]
                if ref.verdict == "fail":
                    assert rep.verdict == "fail"


FINE_POSITIONS = {
    "golden": GOLDEN_RATIO_CONJUGATE, "0.41421356237309515": 0.41421356237309515, "1/2": 0.5,
    "2/5": 0.4, "1/3": 1 / 3, "0.05": 0.05, "0.01": 0.01, "0.3": 0.3, "0.123": 0.123,
    "0.987": 0.987,
}


@pytest.mark.parametrize("xi", FINE_POSITIONS.values(), ids=FINE_POSITIONS.keys())
def test_strip_minima_agree_with_a_fine_dense_scan(xi):
    # a 1e-4 step resolves the narrow minima near the resonances, where the
    # 0.01 grid misses them by orders of magnitude
    for kind in ("exp", "poly", "cos"):
        rep = _library_grid_check(kind, xi, RANGES["default"], 1.0)
        assert_strip_minima_match(rep, kind, xi, RANGES["default"], 1.0, step=1e-4)


def test_golden_poly_grid_finds_the_narrow_minimum():
    rep = check_poly_grid(GOLDEN_RATIO_CONJUGATE)
    assert not rep.passed and rep.note.startswith("refuted for every xi")
    assert rep.fitted_constants["inf_weighted"] == pytest.approx(1.854e-3, rel=1e-3)
    assert rep.witness == pytest.approx(452.38934, abs=1e-5)
    # the 0.01 grid saw 0.0904 at 452.39
    assert grid_check("poly", GOLDEN_RATIO_CONJUGATE).fitted_constants["inf_weighted"] > 0.09
    assert set(rep.fitted_constants) == {"eps", "inf_weighted", "log_inf_weighted"}


@pytest.mark.parametrize("xi, verdicts", [
    ("golden", ("pass", "fail", "pass")),
    (SQRT2_M1, ("pass", "fail", "pass")),
    (Fraction(1, 2), ("fail", "fail", "pass")),
    (Fraction(2, 5), ("fail", "fail", "pass")),
    (Fraction(1, 3), ("fail", "fail", "fail")),
    (Fraction(1, 5), ("fail", "fail", "fail")),
], ids=["golden", "sqrt2-1", "1/2", "2/5", "1/3", "1/5"])
def test_strip_verdicts(xi, verdicts):
    # exp, poly and cos; a rational fails exp and poly at its resonance q*pi,
    # an irrational fails poly at the default eps = 1 by refutation; the cosine
    # indicator of 1/3 and 1/5 vanishes at 3*pi/2 and 5*pi/2, where
    # cos(mu) = cos(xi*mu) = 0
    cls = classify_actuator(xi)
    cos_rep = check_cos_grid(cls.xi)
    assert (cls.exp_grid.verdict, cls.poly_grid.verdict, cos_rep.verdict) == verdicts
    for rep in (cls.exp_grid, cls.poly_grid):
        if isinstance(xi, Fraction):
            assert rep.note == "exact resonance"
            assert rep.witness == pytest.approx(math.pi * xi.denominator, abs=1e-12)
        elif not rep.passed:
            assert rep.note.startswith("refuted for every xi")
    if cos_rep.verdict == "fail":
        assert cos_rep.note == "exact resonance"
        assert cos_rep.witness == pytest.approx(math.pi / 2 * xi.denominator, abs=1e-12)


@pytest.mark.parametrize("xi, rational", [
    (0.4, True), (Fraction(3, 10), True), ("golden", False), (SQRT2_M1, False),
], ids=["0.4", "3/10", "golden", "sqrt2-1"])
def test_classify_verdicts_ignore_depth(xi, rational):
    # depth truncates the reported expansion only: 0.4 = [0; 2, 2] and 3/10 =
    # [0; 3, 3] stay rational at depth 2, where their exp_grid still fails on
    # the exact resonance
    shallow = classify_actuator(xi, ClassifySettings(depth=2))
    assert len(shallow.continued_fraction.partial_quotients) == 2
    assert (shallow.is_rational, shallow.strongly_stable) == (rational, not rational)
    assert shallow.exp_grid.passed is not rational
    if rational:
        assert not shallow.constant_type
        assert shallow.exp_grid.note == "exact resonance"
    full = classify_actuator(xi)
    assert (full.is_rational, full.constant_type) == (rational, shallow.constant_type)


@pytest.mark.parametrize("xi", [GOLDEN_RATIO_CONJUGATE, SQRT2_M1], ids=["golden", "sqrt2-1"])
def test_poly_grid_below_mu4_fails_on_every_range(xi):
    # the drain below mu^4 is a power law, too slow for any finite range to show
    for mu_max in (60.0, 200.0, 500.0, 2_000.0, 20_000.0):
        for eps in (1.0, 2.9):
            rep = check_poly_grid(xi, eps, 1.0, mu_max)
            assert not rep.passed and rep.note.startswith("refuted for every xi"), (mu_max, eps)
        for eps in (3.0, 7.0):
            assert check_poly_grid(xi, eps, 1.0, mu_max).passed, (mu_max, eps)
        assert check_exp_grid(xi, 1.0, mu_max).passed, mu_max
        assert check_cos_grid(xi, 1.0, mu_max).passed, mu_max


@pytest.mark.parametrize("xi, denominators, limit", [
    (GOLDEN_RATIO_CONJUGATE, (55, 144, 377, 987), math.pi**4 / 25),
    (SQRT2_M1, (70, 169, 408, 985), math.pi**4 / 64),
], ids=["golden", "sqrt2-1"])
def test_unweighted_strip_minima_at_convergents_fall_as_q_to_the_minus_4(xi, denominators, limit):
    # at mu = q*pi the sine indicator is sin^4(pi q xi), and q ||q xi|| tends to
    # 1/sqrt(5) (golden) and 1/sqrt(8) (sqrt(2) - 1) along the convergents, so
    # q^4 times the strip minimum tends to pi^4/25 and pi^4/64: the drain that
    # refutes every weight below mu^4
    for q in denominators:
        rep = check_exp_grid(xi, (q - 0.5) * math.pi, (q + 0.5) * math.pi, k1=0.0)
        assert q**4 * rep.fitted_constants["inf_weighted"] == pytest.approx(limit, rel=1e-3)


def test_strip_verdicts_nest_on_random_positions():
    # constant type => poly_grid at eps = 3 (Tucsnak's bounded q ||q xi||) =>
    # exp_grid; and eps = 1 is refuted everywhere
    draws = random.Random(7)
    positions = [draws.uniform(0.01, 0.99) for _ in range(400)]
    counts = {"constant_type": 0, "poly3": 0, "exp": 0}
    for xi in positions:
        cls = classify_actuator(xi)
        assert not cls.poly_grid.passed and cls.poly_grid.note.startswith("refuted for every xi")
        poly3 = check_poly_grid(xi, 3.0).passed
        assert poly3 or not cls.constant_type, xi
        assert cls.exp_grid.passed or not poly3, xi
        counts["constant_type"] += cls.constant_type
        counts["poly3"] += poly3
        counts["exp"] += cls.exp_grid.passed
    assert counts == {"constant_type": 133, "poly3": 400, "exp": 400}


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


def test_grid_checks_need_a_finite_ordered_range():
    for args in ((3.0, 1.0), (1.0, math.nan), (math.nan, 5.0), (1.0, math.inf), (-math.inf, 5.0)):
        for check in (check_exp_grid, check_cos_grid):
            with pytest.raises(ValueError):
                check(0.3, *args)
        with pytest.raises(ValueError):
            check_poly_grid(0.3, 1.0, *args)
    with pytest.raises(ValueError):
        check_poly_grid(0.3, 1.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        check_exp_grid(0.3, k1=math.inf)
    with pytest.raises(ValueError):
        check_poly_grid(0.3, eps=math.nan)
    # a one-point range is one strip of one point
    rep = check_exp_grid(0.3, 2.0, 2.0)
    assert rep.witness == 2.0 and rep.note == "verified on the checked range only"


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
        values = np.array([phi(v) for v in m.tolist()])
        np.testing.assert_allclose(values, expected, rtol=1e-15)
        assert np.all(np.diff(values) >= 0)

