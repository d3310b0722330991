from types import SimpleNamespace

import numpy as np
import pytest

from pointdamp.decayfit import (
    ENERGY_FLOOR_FACTOR, MIN_SAMPLES, InsufficientData, fit_exp, fit_log, fit_poly, model_select,
)


def _samples(times, energies):
    # the fits read times and energies from any object
    return SimpleNamespace(times=np.asarray(times, float), energies=np.asarray(energies, float))


def _times(n=200, t_max=50.0):
    return np.linspace(0.0, t_max, n)


# ----------------------------------------------------------- exact recovery


def test_fit_log_exact():
    t = _times()
    trace = _samples(t, 4.0 / np.log(2.0 + t) ** 2)
    fit = fit_log(trace)
    assert fit.parameters["C"] == pytest.approx(4.0, rel=1e-12)
    assert fit.parameters["power"] == pytest.approx(2.0, rel=1e-12)
    assert fit.residual < 1e-12
    assert fit.n_samples == t.size
    assert fit.valid_range == (0.0, 50.0)


def test_fit_log_higher_order():
    t = _times()
    trace = _samples(t, 2.5 / np.log(2.0 + t) ** 6)
    fit = fit_log(trace)
    assert fit.parameters["C"] == pytest.approx(2.5, rel=1e-12)
    assert fit.parameters["power"] == pytest.approx(6.0, rel=1e-12)
    assert fit.residual < 1e-12


def test_fit_poly_exact():
    t = _times()
    trace = _samples(t, 2.0 / (1.0 + t))
    fit = fit_poly(trace)
    assert fit.parameters["C"] == pytest.approx(2.0, rel=1e-12)
    assert fit.parameters["power"] == pytest.approx(1.0, rel=1e-12)
    assert fit.residual < 1e-12


def test_fit_poly_eps_one():
    t = _times()
    trace = _samples(t, 2.0 / np.sqrt(1.0 + t))
    fit = fit_poly(trace)
    assert fit.parameters["C"] == pytest.approx(2.0, rel=1e-12)
    assert fit.parameters["power"] == pytest.approx(0.5, rel=1e-12)
    assert fit.residual < 1e-12


def test_fit_exp_exact():
    t = _times()
    trace = _samples(t, 3.0 * np.exp(-0.7 * t))
    fit = fit_exp(trace)
    assert fit.parameters["M"] == pytest.approx(3.0, rel=1e-10)
    assert fit.parameters["rate"] == pytest.approx(0.7, rel=1e-10)
    assert fit.residual < 1e-12


def test_fit_exp_growing_trace_reports_negative_rate():
    t = _times()
    trace = _samples(t, np.exp(0.1 * t))
    fit = fit_exp(trace)
    assert fit.parameters["rate"] == pytest.approx(-0.1, rel=1e-10)


# ----------------------------------------------------------------- noise


def test_fits_tolerate_multiplicative_noise():
    t = _times(400, 50.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noise = 1.0 + 0.01 * rng.standard_normal(t.size)
        fit = fit_exp(_samples(t, 3.0 * np.exp(-0.4 * t) * noise))
        assert abs(fit.parameters["M"] / 3.0 - 1.0) < 0.05
        assert abs(fit.parameters["rate"] / 0.4 - 1.0) < 0.05


# ------------------------------------------------------------ data hygiene


def test_insufficient_data_raises():
    t = np.linspace(0.0, 1.0, MIN_SAMPLES - 1)
    with pytest.raises(InsufficientData):
        fit_exp(_samples(t, np.exp(-t)))
    with pytest.raises(InsufficientData):
        fit_log(_samples([], []))


def test_floor_excludes_dead_samples():
    t = _times(100, 100.0)
    e = np.exp(-0.1 * t)  # stays far above the floor on its own
    e[50:] = 1e-16 * e[0] * ENERGY_FLOOR_FACTOR  # force these below it
    fit = fit_exp(_samples(t, e))
    assert fit.n_samples == 50
    assert fit.valid_range[1] == pytest.approx(t[49])
    assert fit.parameters["rate"] == pytest.approx(0.1, rel=1e-10)


def test_floor_triggers_insufficient_when_everything_dead():
    t = _times(50, 10.0)
    e = np.ones(50)
    e[1:] = 1e-20
    with pytest.raises(InsufficientData):
        fit_exp(_samples(t, e))


# -------------------------------------------------------------- invariance


def test_scale_equivariance():
    t = _times()
    e = 2.0 / np.log(2.0 + t) ** 2
    base = fit_log(_samples(t, e))
    scaled = fit_log(_samples(t, 10.0 * e))
    assert scaled.parameters["C"] == pytest.approx(10.0 * base.parameters["C"], rel=1e-12)
    assert scaled.residual == pytest.approx(base.residual, abs=1e-12)


def test_grid_refinement_invariance():
    # a noiseless model trace fits identically on coarse and fine grids
    for n in (100, 400, 1600):
        t = _times(n, 40.0)
        fit = fit_poly(_samples(t, 5.0 / (1.0 + t)))
        assert abs(fit.parameters["C"] - 5.0) < 1e-8
        assert fit.residual < 1e-8


# ------------------------------------------------------------ model choice


def test_model_select_identifies_each_family():
    t = _times(300, 60.0)
    cases = [
        (4.0 / np.log(2.0 + t) ** 4, "logarithmic", {"power": 4.0}),
        (2.0 / np.sqrt(1.0 + t), "polynomial", {"power": 0.5}),
        (1.5 * np.exp(-0.3 * t), "exponential", {}),
    ]
    for energies, kind, wanted in cases:
        ranked = model_select(_samples(t, energies))
        best = ranked[0]
        assert best.kind == kind
        for key, val in wanted.items():
            assert best.parameters[key] == pytest.approx(val, rel=1e-10)
        assert best.residual < 1e-10
        # one fit per family is returned, ranked
        assert len(ranked) == 3
        assert all(
            r1.residual <= r2.residual for r1, r2 in zip(ranked, ranked[1:])
        )


@pytest.mark.parametrize(
    "energies, kind, amplitude, power",
    [
        (lambda t: 5.0 * (1.0 + t) ** -2.0, "polynomial", 5.0, 2.0),
        (lambda t: 5.0 * (1.0 + t) ** -1.5, "polynomial", 5.0, 1.5),
        (lambda t: 3.0 * np.log(2.0 + t) ** -8.0, "logarithmic", 3.0, 8.0),
    ],
)
def test_model_select_fits_the_exponent(energies, kind, amplitude, power):
    # exponents off any fixed grid: the generating family ranks first with
    # both of its parameters recovered
    t = np.linspace(0.0, 200.0, 301)
    best = model_select(_samples(t, energies(t)))[0]
    assert best.kind == kind
    assert best.parameters["C"] == pytest.approx(amplitude, rel=1e-10)
    assert best.parameters["power"] == pytest.approx(power, rel=1e-10)
