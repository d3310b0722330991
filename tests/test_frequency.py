import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from forks import assert_reaped, record_forks
from oracles import (
    _BACKWARD5,
    _FORWARD5,
    interface_coefficients_quadrature,
    numerov_interface_solve,
    verify_interface_identity,
)
import pointdamp
from pointdamp import characteristic, frequency, processes
from pointdamp.inputs import default_mu_grid
from pointdamp.characteristic import (
    ContourThroughRoot, abscissa_of_roots, characteristic_function,
    find_eigenvalues,
)
from pointdamp.diophantine import GOLDEN_RATIO_CONJUGATE, check_exp_grid, resonance_indicator
from pointdamp.frequency import (
    ForcingData, ResonantDenominator, assemble_phi, random_forcing, resolvent_norm_lower_bound,
    resonant_forcing, scan_resolvent_growth, solve_resolvent, state_norm, winding_number,
)
from pointdamp.mesh import build_mesh

GOLDEN = GOLDEN_RATIO_CONJUGATE


def _zero_forcing(mesh):
    zl = np.zeros(mesh.n_left + 1, dtype=complex)
    zr = np.zeros(mesh.n_right + 1, dtype=complex)
    return ForcingData(mesh, zl, zr, zl.copy(), zr.copy(), zl.copy(), zr.copy())


def _hat_forcing(mesh, mu, phi1, phi2, f1x):
    """Forcing with Phi = (phi1, phi2) and f1(xi) = f1x: f is the hat through f1x at xi."""
    x1, x2 = mesh.split(mesh.nodes)
    f1 = f1x * (x1 / mesh.xi)
    f2 = f1x * ((1.0 - x2) / (1.0 - mesh.xi))
    fp1 = np.full(f1.shape, f1x / mesh.xi)
    fp2 = np.full(f2.shape, -f1x / (1.0 - mesh.xi))
    return ForcingData(mesh, f1, f2, phi1 - 1j * mu * f1, phi2 - 1j * mu * f2, fp1, fp2)


# ----------------------------------------------------------------- forcing


def test_assemble_phi_matches_definition(rng):
    mesh = build_mesh(GOLDEN, 64, 64)
    forcing = random_forcing(mesh, rng)
    mu = 7.3
    phi1, phi2 = assemble_phi(forcing, mu)
    np.testing.assert_allclose(phi1, forcing.g1 + 1j * mu * forcing.f1, atol=1e-14)
    np.testing.assert_allclose(phi2, forcing.g2 + 1j * mu * forcing.f2, atol=1e-14)


def test_assemble_phi_rejects_nonpositive_mu(rng):
    mesh = build_mesh(GOLDEN, 16, 16)
    forcing = random_forcing(mesh, rng)
    with pytest.raises(ValueError):
        assemble_phi(forcing, 0.0)


def test_forcing_validation(rng):
    mesh = build_mesh(GOLDEN, 64, 64)
    forcing = random_forcing(mesh, rng)
    forcing.validate()
    bad = ForcingData(
        mesh, forcing.f1 + 1.0, forcing.f2, forcing.g1, forcing.g2
    )
    with pytest.raises(ValueError):
        bad.validate()
    jumpy = ForcingData(
        mesh, forcing.f1, forcing.f2 + 0.5, forcing.g1, forcing.g2
    )
    with pytest.raises(ValueError):
        jumpy.validate()
    short = ForcingData(
        mesh, forcing.f1[:-1], forcing.f2, forcing.g1, forcing.g2
    )
    with pytest.raises(ValueError):
        short.validate()


def test_random_forcing_is_admissible(rng):
    mesh = build_mesh(0.3, 200, 300)
    forcing = random_forcing(mesh, rng)
    assert abs(forcing.f1[0]) < 1e-12
    assert abs(forcing.f2[-1]) < 1e-12
    assert abs(forcing.f1[-1] - forcing.f2[0]) < 1e-12
    # supplied derivative samples agree with finite differences
    fd = np.gradient(forcing.f1.real, mesh.split(mesh.nodes)[0])
    assert np.max(np.abs(fd[1:-1] - forcing.fp1.real[1:-1])) < 1e-2


def test_random_forcing_matches_naive_series():
    # the mode tables are built once per mesh; draws must still follow the seed
    meshes = [build_mesh(GOLDEN, 64, 40), build_mesh(0.3, 20, 30), build_mesh(GOLDEN, 64, 40)]
    for mesh in meshes:
        a = random_forcing(mesh, np.random.default_rng(9))
        b = random_forcing(mesh, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        k = np.arange(1, 9)
        af, ag, bg = (
            (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / k for _ in range(3)
        )
        for side, x in zip("12", mesh.split(mesh.nodes)):
            theta = [(j + 1) * (np.pi * x) for j in range(8)]
            f = sum(af[j] * np.sin(theta[j]) for j in range(8))
            fp = sum(af[j] * (j + 1) * np.pi * np.cos(theta[j]) for j in range(8))
            g = sum(ag[j] * np.cos(theta[j]) + bg[j] * np.sin(theta[j]) for j in range(8))
            for name, naive in (("f", f), ("fp", fp), ("g", g)):
                scale = 1.0 if name != "fp" else 8 * np.pi
                got = getattr(a, name + side)
                np.testing.assert_array_equal(got, getattr(b, name + side))
                np.testing.assert_allclose(got, naive, rtol=0, atol=1e-15 * scale)


def test_stacked_forcing_validation(rng):
    mesh = build_mesh(GOLDEN, 64, 64)
    stack = random_forcing(mesh, rng, count=3)
    stack.validate()
    assert stack.f1.shape == (3, 65)
    np.testing.assert_array_equal(stack.f1_at_xi, stack.f1[:, -1])
    f2 = stack.f2.copy()
    f2[1, 0] += 0.5  # one row jumps at the damped point
    with pytest.raises(ValueError):
        ForcingData(mesh, stack.f1, f2, stack.g1, stack.g2).validate()
    f1 = stack.f1.copy()
    f1[2, 0] = 1.0  # one row does not vanish at x = 0
    with pytest.raises(ValueError):
        ForcingData(mesh, f1, stack.f2, stack.g1, stack.g2).validate()
    with pytest.raises(ValueError):
        ForcingData(mesh, stack.f1, stack.f2, stack.g1[:2], stack.g2).validate()


def test_random_forcing_count_stacks_successive_draws():
    for mesh in (build_mesh(GOLDEN, 64, 40), build_mesh(0.3, 20, 30)):
        stack = random_forcing(mesh, np.random.default_rng(11), count=3)
        rng = np.random.default_rng(11)
        singles = [random_forcing(mesh, rng) for _ in range(3)]
        for name in ("f1", "f2", "g1", "g2", "fp1", "fp2"):
            assert getattr(stack, name).shape[0] == 3
            for j, single in enumerate(singles):
                np.testing.assert_array_equal(getattr(stack, name)[j], getattr(single, name))


def test_resonant_forcing_structure():
    mesh = build_mesh(0.5, 32, 32)
    probe = resonant_forcing(mesh, 11.0)
    assert np.all(probe.f1 == 0) and np.all(probe.f2 == 0)
    np.testing.assert_allclose(probe.g1, np.sin(11.0 * mesh.split(mesh.nodes)[0]), atol=1e-15)


# ------------------------------------------------------------ coefficients


def test_lambda_zero_forcing_is_zero():
    mesh = build_mesh(GOLDEN, 64, 64)
    sol = solve_resolvent(GOLDEN, 10.0, _zero_forcing(mesh))
    assert sol.lambda1 == 0j and sol.lambda2 == 0j


# 2000 cells a side give an odd sample count, 2001 an even one: the running
# integrals then end on their last-interval correction
ORACLE_CELLS = (2000, 2001)


def test_lambda_matches_quadrature_oracle():
    mu = 10.0

    def phi1f(t):
        return complex(np.exp(t) * np.sin(3 * t), 0.3 * t)

    def phi2f(t):
        return complex(np.cos(2 * t), t * t)

    f1x = 0.7 - 0.2j
    o1, o2 = interface_coefficients_quadrature(GOLDEN, mu, phi1f, phi2f, f1x)
    for cells in ORACLE_CELLS:
        mesh = build_mesh(GOLDEN, cells, cells)
        x1, x2 = mesh.split(mesh.nodes)
        p1 = np.array([phi1f(t) for t in x1])
        p2 = np.array([phi2f(t) for t in x2])
        sol = solve_resolvent(GOLDEN, mu, _hat_forcing(mesh, mu, p1, p2, f1x))
        assert abs(sol.lambda1 - o1) < 1e-8
        assert abs(sol.lambda2 - o2) < 1e-8


def test_lambda_constant_forcing_against_oracle():
    # piecewise-constant transformed forcing: phi1 = 1, phi2 = 0
    mu = 17.0
    o1, o2 = interface_coefficients_quadrature(
        GOLDEN, mu, lambda t: 1.0 + 0j, lambda t: 0j, 0j
    )
    for cells in ORACLE_CELLS:
        mesh = build_mesh(GOLDEN, cells, cells)
        p1 = np.ones(mesh.n_left + 1, dtype=complex)
        p2 = np.zeros(mesh.n_right + 1, dtype=complex)
        sol = solve_resolvent(GOLDEN, mu, _hat_forcing(mesh, mu, p1, p2, 0j))
        assert abs(sol.lambda1 - o1) < 1e-8
        assert abs(sol.lambda2 - o2) < 1e-8


def test_resonant_denominator_raises():
    mesh = build_mesh(0.5, 64, 64)
    with pytest.raises(ResonantDenominator):
        solve_resolvent(0.5, 2 * math.pi, _zero_forcing(mesh))


@pytest.mark.parametrize("q", [6765, 17711, 46368])
def test_golden_solves_at_its_strip_minima(q):
    # |D(mu)|^2 at golden's strip minimum near q pi is 1.9e-15, 4.0e-17 and
    # 8.6e-19, far above its rounding (eps mu)^2; the resolvent is bounded
    # there, and the resonant probe's response is 1 / (2 |D|)
    mu = check_exp_grid(GOLDEN, (q - 0.5) * math.pi, (q + 0.5) * math.pi, k1=0.0).witness
    mesh = build_mesh(GOLDEN, 2**15, 2**15)
    sol = solve_resolvent(GOLDEN, mu, resonant_forcing(mesh, mu))
    norm = state_norm(mesh, sol.u1, sol.u2, sol.v1, sol.v2, sol.up1, sol.up2)
    assert norm * abs(characteristic_function(GOLDEN, mu)) == pytest.approx(0.5, abs=1e-3)
    assert sol.jump_residual <= 1e-13


# ------------------------------------------------------------------- solve


def test_solve_zero_forcing_is_zero():
    mesh = build_mesh(GOLDEN, 64, 64)
    sol = solve_resolvent(GOLDEN, 12.0, _zero_forcing(mesh))
    assert np.max(np.abs(sol.u1)) == 0.0
    assert np.max(np.abs(sol.u2)) == 0.0


def test_solve_boundary_and_interface_residuals(rng):
    mesh = build_mesh(GOLDEN, 512, 512)
    forcing = random_forcing(mesh, rng)
    sol = solve_resolvent(GOLDEN, 23.0, forcing)
    assert abs(sol.u1[0]) < 1e-13 * np.max(np.abs(sol.u1))
    assert abs(sol.u2[-1]) < 1e-13 * np.max(np.abs(sol.u2))
    assert sol.continuity_residual < 1e-9
    assert sol.jump_residual < 1e-9


def test_solve_mesh_position_mismatch(rng):
    mesh = build_mesh(0.3, 64, 64)
    forcing = random_forcing(mesh, rng)
    with pytest.raises(ValueError):
        solve_resolvent(0.4, 10.0, forcing)


@pytest.mark.parametrize("defect", ["outer_ends", "jump_at_xi"])
def test_solve_refuses_a_forcing_outside_its_contract(defect):
    # f = 1 is non-zero at both outer ends; two hats of heights 1 and 1/2
    # jump at xi.  Solved regardless, both gave continuity and jump residuals
    # of ~1e-16
    mesh = build_mesh(GOLDEN, 64, 64)
    zero = _zero_forcing(mesh)
    if defect == "outer_ends":
        f1, f2 = np.ones_like(zero.f1), np.ones_like(zero.f2)
    else:
        x1, x2 = mesh.split(mesh.nodes)
        f1, f2 = x1 / mesh.xi, 0.5 * (1.0 - x2) / (1.0 - mesh.xi)
    forcing = ForcingData(mesh, f1 + 0j, f2 + 0j, zero.g1, zero.g2)
    with pytest.raises(ValueError, match="outer boundaries" if defect == "outer_ends" else
                       "continuous"):
        solve_resolvent(GOLDEN, 12.0, forcing)


def test_solve_matches_numerov_oracle(rng):
    mesh = build_mesh(GOLDEN, 1000, 1000)
    forcing = random_forcing(mesh, rng)
    mu = 20.0
    sol = solve_resolvent(GOLDEN, mu, forcing)
    phi1, phi2 = assemble_phi(forcing, mu)
    x1, x2 = mesh.split(mesh.nodes)
    o1, o2 = numerov_interface_solve(
        GOLDEN, mu, x1, phi1, x2, phi2, forcing.f1_at_xi
    )
    scale = max(np.abs(o1).max(), np.abs(o2).max())
    assert np.abs(sol.u1 - o1).max() / scale < 1e-6
    assert np.abs(sol.u2 - o2).max() / scale < 1e-6


def test_solve_ode_residual_second_order(rng):
    mu = 10.0
    errs = []
    for n in (128, 256, 512):
        mesh = build_mesh(GOLDEN, n, n)
        forcing = random_forcing(mesh, np.random.default_rng(5))
        sol = solve_resolvent(GOLDEN, mu, forcing)
        phi1, phi2 = assemble_phi(forcing, mu)
        h1, h2 = mesh.h_left, mesh.h_right
        r1 = (sol.u1[2:] - 2 * sol.u1[1:-1] + sol.u1[:-2]) / h1**2 \
            + mu**2 * sol.u1[1:-1] - phi1[1:-1]
        r2 = (sol.u2[2:] - 2 * sol.u2[1:-1] + sol.u2[:-2]) / h2**2 \
            + mu**2 * sol.u2[1:-1] - phi2[1:-1]
        scale = max(np.abs(phi1).max(), np.abs(phi2).max())
        errs.append(max(np.abs(r1).max(), np.abs(r2).max()) / scale)
    assert errs[0] > errs[1] > errs[2]
    # the dominant term is the checking stencil's own O(h^2) truncation
    assert 2.5 < errs[0] / errs[1] < 6.5
    assert 2.5 < errs[1] / errs[2] < 6.5


def test_stacked_solve_matches_single_solves():
    mesh = build_mesh(GOLDEN, 96, 80)
    stack = random_forcing(mesh, np.random.default_rng(4), count=3)
    rng = np.random.default_rng(4)
    singles = [random_forcing(mesh, rng) for _ in range(3)]
    for mu in (1.5, 23.0, 61.7):
        sol = solve_resolvent(GOLDEN, mu, stack)
        refs = [solve_resolvent(GOLDEN, mu, single) for single in singles]
        for j, ref in enumerate(refs):
            for name in ("u1", "u2", "v1", "v2", "up1", "up2"):
                np.testing.assert_allclose(getattr(sol, name)[j], getattr(ref, name), rtol=1e-15)
            for name in ("lambda1", "lambda2", "trace_u", "trace_up_left", "trace_up_right"):
                assert isinstance(getattr(ref, name), complex)
                np.testing.assert_allclose(getattr(sol, name)[j], getattr(ref, name), rtol=1e-15)
        # the residuals stay plain floats and report the worst row
        assert type(sol.continuity_residual) is float and type(sol.jump_residual) is float
        assert sol.continuity_residual == max(r.continuity_residual for r in refs)
        assert sol.jump_residual == max(r.jump_residual for r in refs)


def test_frequency_block_solve_matches_single_solves():
    # one frequency per slice of the forcing's first axis
    mesh = build_mesh(GOLDEN, 96, 80)
    mus = np.array([1.5, 23.0, 61.7])
    block = random_forcing(mesh, np.random.default_rng(4), count=6)
    names = ("f1", "f2", "g1", "g2")
    block = ForcingData(mesh, *(getattr(block, name).reshape(3, 2, -1) for name in names))
    sol = solve_resolvent(GOLDEN, mus, block)
    refs = []
    for b, mu in enumerate(mus):
        rows = ForcingData(mesh, block.f1[b], block.f2[b], block.g1[b], block.g2[b])
        ref = solve_resolvent(GOLDEN, float(mu), rows)
        refs.append(ref)
        for name in ("u1", "u2", "v1", "v2", "up1", "up2", "lambda1", "lambda2",
                     "trace_u", "trace_up_left", "trace_up_right"):
            np.testing.assert_allclose(getattr(sol, name)[b], getattr(ref, name), rtol=1e-15)
    assert sol.continuity_residual == max(r.continuity_residual for r in refs)
    assert sol.jump_residual == max(r.jump_residual for r in refs)


def test_frequency_block_solve_raises_on_a_resonant_slice():
    mesh = build_mesh(0.5, 64, 64)
    block = random_forcing(mesh, np.random.default_rng(1), count=2)
    with pytest.raises(ResonantDenominator) as caught:
        solve_resolvent(0.5, np.array([5.0, 2 * math.pi]), block)
    assert caught.value.mu == 2 * math.pi
    with pytest.raises(ValueError):
        solve_resolvent(0.5, np.array([5.0, 6.0]), random_forcing(mesh, np.random.default_rng(1)))


# ------------------------------------------------------------------ traces


def test_trace_derivatives_match_solution_arrays(rng):
    # u'(xi-) and u'(xi+) read off the solution arrays against the one-sided
    # 5-point derivatives of the Numerov solution
    mesh = build_mesh(GOLDEN, 1000, 1000)
    forcing = random_forcing(mesh, rng)
    mu = 20.0
    sol = solve_resolvent(GOLDEN, mu, forcing)
    phi1, phi2 = assemble_phi(forcing, mu)
    x1, x2 = mesh.split(mesh.nodes)
    o1, o2 = numerov_interface_solve(
        GOLDEN, mu, x1, phi1, x2, phi2, forcing.f1_at_xi
    )
    left = _BACKWARD5 @ o1[:-6:-1] / mesh.h_left
    right = _FORWARD5 @ o2[:5] / mesh.h_right
    scale = max(abs(left), abs(right), 1.0)
    assert abs(left - sol.trace_up_left) / scale < 1e-8
    assert abs(right - sol.trace_up_right) / scale < 1e-8


# ---------------------------------------------------------------- identity


def test_interface_identity_zero_forcing():
    mesh = build_mesh(GOLDEN, 64, 64)
    sol = solve_resolvent(GOLDEN, 9.0, _zero_forcing(mesh))
    report = verify_interface_identity(sol, _zero_forcing(mesh))
    assert report.identity_residual < 1e-14
    assert report.bound_holds


def test_interface_identity_random(rng):
    mesh = build_mesh(GOLDEN, 512, 512)
    forcing = random_forcing(mesh, rng)
    sol = solve_resolvent(GOLDEN, 20.0, forcing)
    report = verify_interface_identity(sol, forcing)
    assert report.relative_residual < 1e-7
    assert report.bound_holds


def test_interface_identity_refinement(rng):
    residuals = []
    for n in (128, 256, 512):
        mesh = build_mesh(GOLDEN, n, n)
        forcing = random_forcing(mesh, np.random.default_rng(3))
        sol = solve_resolvent(GOLDEN, 15.0, forcing)
        residuals.append(verify_interface_identity(sol, forcing).relative_residual)
    assert residuals[0] > residuals[2]
    assert residuals[2] < 1e-9


def test_trace_bound_holds_over_random_ensemble():
    # observed constant stays below 3 across frequencies and probes
    mesh = build_mesh(GOLDEN, 256, 256)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        mu = float(rng.uniform(10.0, 100.0))
        forcing = random_forcing(mesh, rng)
        sol = solve_resolvent(GOLDEN, mu, forcing)
        report = verify_interface_identity(sol, forcing, c_bound=3.0)
        worst = max(worst, report.bound_ratio)
        assert report.bound_holds
    assert worst <= 3.0


# ------------------------------------------------------------------- norms


def test_state_norm_known_value():
    mesh = build_mesh(0.5, 256, 256)
    x1, x2 = mesh.split(mesh.nodes)
    a1 = np.sin(np.pi * x1)
    a2 = np.sin(np.pi * x2)
    ap1 = np.pi * np.cos(np.pi * x1)
    ap2 = np.pi * np.cos(np.pi * x2)
    b1 = np.zeros_like(a1)
    b2 = np.zeros_like(a2)
    norm = state_norm(mesh, a1, a2, b1, b2, ap1, ap2)
    assert norm == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-8)


def test_state_norm_without_derivative_samples():
    mesh = build_mesh(0.5, 512, 512)
    a1, a2 = mesh.split(np.sin(np.pi * mesh.nodes))
    b1 = np.zeros_like(a1)
    b2 = np.zeros_like(a2)
    norm = state_norm(mesh, a1, a2, b1, b2)
    assert norm == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-4)


def test_state_norm_of_stack_matches_rows(rng):
    mesh = build_mesh(GOLDEN, 64, 48)
    stack = random_forcing(mesh, rng, count=3)
    norms = state_norm(mesh, stack.f1, stack.f2, stack.g1, stack.g2)
    assert norms.shape == (3,)
    for j in range(3):
        single = state_norm(mesh, stack.f1[j], stack.f2[j], stack.g1[j], stack.g2[j])
        assert type(single) is float
        assert norms[j] == pytest.approx(single, rel=1e-15)


# ------------------------------------------------------------------- scans


def test_lower_bound_hits_infinity_on_resonance():
    mesh = build_mesh(0.5, 64, 64)
    probes = [resonant_forcing(mesh, 2 * math.pi)]
    assert resolvent_norm_lower_bound(0.5, 2 * math.pi, probes) == math.inf


def test_lower_bound_monotone_in_probe_set(rng):
    mesh = build_mesh(GOLDEN, 128, 128)
    probes = [random_forcing(mesh, rng) for _ in range(4)]
    small = resolvent_norm_lower_bound(GOLDEN, 18.0, probes[:1])
    large = resolvent_norm_lower_bound(GOLDEN, 18.0, probes)
    assert 0.0 < small <= large


def test_lower_bound_same_for_singles_and_stack():
    mesh = build_mesh(GOLDEN, 128, 128)
    stack = random_forcing(mesh, np.random.default_rng(8), count=3)
    rng = np.random.default_rng(8)
    singles = [random_forcing(mesh, rng) for _ in range(3)]
    for mu in (7.0, 18.0, 44.5):
        resonant = resonant_forcing(mesh, mu)
        listed = resolvent_norm_lower_bound(GOLDEN, mu, [resonant] + singles)
        stacked = resolvent_norm_lower_bound(GOLDEN, mu, [resonant, stack])
        assert stacked == pytest.approx(listed, rel=1e-15)
        assert listed == max(resolvent_norm_lower_bound(GOLDEN, mu, [p]) for p in singles + [resonant])


def test_lower_bound_skips_zero_probes_and_fills_derivatives():
    mesh = build_mesh(GOLDEN, 128, 128)
    probe = random_forcing(mesh, np.random.default_rng(2))
    no_fp = ForcingData(mesh, probe.f1, probe.f2, probe.g1, probe.g2)
    zero = _zero_forcing(mesh)
    assert resolvent_norm_lower_bound(GOLDEN, 18.0, [zero]) == 0.0
    assert resolvent_norm_lower_bound(GOLDEN, 18.0, []) == 0.0
    with_zero = resolvent_norm_lower_bound(GOLDEN, 18.0, [zero, no_fp])
    alone = resolvent_norm_lower_bound(GOLDEN, 18.0, [no_fp])
    assert with_zero == alone > 0.0
    # the finite-difference derivative only approximates the exact one
    assert alone == pytest.approx(resolvent_norm_lower_bound(GOLDEN, 18.0, [probe]), rel=1e-3)


def test_lower_bound_refuses_a_probe_that_validate_refuses():
    # f lifted off zero at the outer boundaries: solve_resolvent refuses it,
    # and so does the bound, with the same error
    mesh = build_mesh(GOLDEN, 32, 32)
    probe = random_forcing(mesh, np.random.default_rng(3))
    lifted = ForcingData(mesh, probe.f1 + 1.0, probe.f2 + 1.0, probe.g1, probe.g2, probe.fp1,
                         probe.fp2)
    for solve in (lambda: solve_resolvent(GOLDEN, 18.0, lifted),
                  lambda: resolvent_norm_lower_bound(GOLDEN, 18.0, [probe, lifted])):
        with pytest.raises(ValueError, match="f must vanish at the outer boundaries"):
            solve()


def test_lower_bound_of_stack_is_infinite_on_resonance():
    mesh = build_mesh(0.5, 64, 64)
    stack = random_forcing(mesh, np.random.default_rng(1), count=3)
    assert resolvent_norm_lower_bound(0.5, 2 * math.pi, [stack]) == math.inf
    # an all-zero probe set never reaches the solve
    assert resolvent_norm_lower_bound(0.5, 2 * math.pi, [_zero_forcing(mesh)]) == 0.0


def test_norm_blows_up_approaching_resonance():
    mesh = build_mesh(0.5, 128, 128)
    values = []
    for j in range(5):
        mu = 2 * math.pi - 10.0 ** (-j)
        probes = [resonant_forcing(mesh, mu)]
        values.append(resolvent_norm_lower_bound(0.5, mu, probes))
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] > 1e3


def test_scan_growth_reproducible():
    grid = np.arange(1.0, 21.0)
    a = scan_resolvent_growth(GOLDEN, grid, probes_per_mu=2, seed=4, cells_per_side=128)
    b = scan_resolvent_growth(GOLDEN, grid, probes_per_mu=2, seed=4, cells_per_side=128)
    np.testing.assert_array_equal(a.norm_estimate, b.norm_estimate)
    assert a.n_resonant == 0
    assert np.all(np.isfinite(a.norm_estimate))
    assert a.growth_constant > 0.0


def test_scan_marks_resonant_points():
    grid = np.array([5.0, 2 * math.pi, 7.0, 8.0])
    result = scan_resolvent_growth(0.5, grid, probes_per_mu=2, seed=0, cells_per_side=64)
    assert result.n_resonant >= 1
    assert not np.isfinite(result.norm_estimate[1])


def _per_frequency_bounds(xi, grid, probes_per_mu, seed, cells):
    """The scan's estimates the slow way: one resolvent_norm_lower_bound per mu."""
    mesh = build_mesh(xi, cells, cells)
    bounds = []
    for i, mu in enumerate(grid):
        probes = [resonant_forcing(mesh, float(mu))]
        if probes_per_mu > 1:
            rng = np.random.default_rng([seed, i])
            probes.append(random_forcing(mesh, rng, count=probes_per_mu - 1))
        bounds.append(resolvent_norm_lower_bound(xi, float(mu), probes))
    return np.array(bounds)


@pytest.mark.parametrize("cells", [47, 48, 512])
def test_basis_norms_are_the_state_norms_of_the_samples(cells):
    # 48 samples a side (47 cells) put the last-interval Simpson weights into G
    mesh = build_mesh(GOLDEN, cells, cells)
    table, gram = frequency._probe_basis(GOLDEN, cells, cells)
    draws = frequency._probe_draws(np.random.default_rng(cells), 6)
    probes = random_forcing(mesh, np.random.default_rng(cells), count=6)
    expected = state_norm(mesh, probes.f1, probes.f2, probes.g1, probes.g2, probes.fp1, probes.fp2)
    coef = frequency._coefficients(draws)
    np.testing.assert_allclose(frequency._basis_norms(gram, coef), expected, rtol=1e-14)
    # the table's first 2 * nodes rows give the probes' samples of f and g
    samples = table[: 2 * mesh.nodes.size] @ coef
    f, g = np.split(samples[..., 0] + 1j * samples[..., 1], 2, axis=-1)
    np.testing.assert_allclose(f, np.concatenate([probes.f1, probes.f2[:, 1:]], axis=-1),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(g, np.concatenate([probes.g1, probes.g2[:, 1:]], axis=-1),
                               rtol=0, atol=1e-14)


def test_random_forcing_is_the_table_times_its_draws_coefficients():
    # all three rows of the table, in its order (f, g, f')
    mesh = build_mesh(0.3, 47, 47)
    table, _ = frequency._probe_basis(0.3, 47, 47)
    draws = frequency._probe_draws(np.random.default_rng(9), 5)
    probes = random_forcing(mesh, np.random.default_rng(9), count=5)
    samples = table @ frequency._coefficients(draws)
    parts = np.split(samples[..., 0] + 1j * samples[..., 1], 3, axis=-1)
    for part, names in zip(parts, (("f1", "f2"), ("g1", "g2"), ("fp1", "fp2"))):
        for side, name in zip(mesh.split(part), names):
            np.testing.assert_array_equal(getattr(probes, name), side)


def test_a_scan_and_random_forcing_on_one_mesh_share_one_probe_basis():
    frequency._probe_basis.cache_clear()
    scan_resolvent_growth(0.3, np.array([2.0, 3.0]), 2, cells_per_side=37)
    random_forcing(build_mesh(0.3, 37, 37), np.random.default_rng(0), count=2)
    info = frequency._probe_basis.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_scan_where_a_random_probe_carries_the_maximum():
    # golden at seed 2: at mu = 1 a random probe's ratio beats the
    # near-resonant probe's, so the estimate reads a basis input norm
    grid = np.array([1.0, 1.5, 40.0])
    scan = scan_resolvent_growth(GOLDEN, grid, 4, seed=2)
    mesh = build_mesh(GOLDEN, 512, 512)
    assert resolvent_norm_lower_bound(GOLDEN, 1.0, [resonant_forcing(mesh, 1.0)]) < (
        scan.norm_estimate[0]
    )
    expected = _per_frequency_bounds(GOLDEN, grid, 4, 2, 512)
    np.testing.assert_allclose(scan.norm_estimate, expected, rtol=1e-14)


@pytest.mark.parametrize("probes", [1, 4])
def test_scan_blocks_equal_per_frequency_bounds(monkeypatch, probes):
    # blocks of 3 frequencies over 8 grid points: the last block is short
    cells = 48
    monkeypatch.setattr(frequency, "_BLOCK_BYTES", 3 * 16 * probes * (2 * cells + 1))
    grid = np.linspace(2.0, 60.0, 8)
    scan = scan_resolvent_growth(GOLDEN, grid, probes, seed=3, cells_per_side=cells)
    expected = _per_frequency_bounds(GOLDEN, grid, probes, 3, cells)
    np.testing.assert_allclose(scan.norm_estimate, expected, rtol=1e-14)
    # the default block holds the whole grid
    monkeypatch.undo()
    whole = scan_resolvent_growth(GOLDEN, grid, probes, seed=3, cells_per_side=cells)
    np.testing.assert_allclose(whole.norm_estimate, expected, rtol=1e-14)


def test_scan_block_with_a_resonant_frequency(monkeypatch):
    # mu = 2 pi is resonant at xi = 1/2: its row alone is infinite
    cells = 32
    monkeypatch.setattr(frequency, "_BLOCK_BYTES", 3 * 16 * 4 * (2 * cells + 1))
    grid = np.array([5.0, 2 * math.pi, 7.0, 8.0, 9.5])
    scan = scan_resolvent_growth(0.5, grid, 4, seed=0, cells_per_side=cells)
    assert scan.n_resonant == 1
    assert scan.norm_estimate[1] == math.inf
    finite = np.delete(np.arange(grid.size), 1)
    assert np.all(np.isfinite(scan.norm_estimate[finite]))
    expected = _per_frequency_bounds(0.5, grid, 4, 0, cells)
    np.testing.assert_allclose(scan.norm_estimate, expected, rtol=1e-14)


def _block_bounds(xi, mus, block):
    """The scan's block function on (frequency, probe, grid) probes, state_norm's input norms."""
    in_norm = state_norm(block.mesh, block.f1, block.f2, block.g1, block.g2, block.fp1, block.fp2)
    return frequency._block_bounds(xi, mus, block, in_norm)


def test_lower_bound_over_a_frequency_block():
    mesh = build_mesh(0.5, 64, 64)
    mus = np.array([5.0, 2 * math.pi, 7.0])
    stack = random_forcing(mesh, np.random.default_rng(2), count=6)
    f1, f2, g1, g2, fp1, fp2 = (
        getattr(stack, name).reshape(3, 2, -1) for name in ("f1", "f2", "g1", "g2", "fp1", "fp2")
    )
    zero = np.zeros_like(f1[0])
    # the last frequency's probes are all zero
    f1[2], g1[2], fp1[2] = zero, zero, zero
    f2[2], g2[2], fp2[2] = 0.0, 0.0, 0.0
    block = ForcingData(mesh, f1, f2, g1, g2, fp1, fp2)
    bounds = _block_bounds(0.5, mus, block)
    assert bounds.shape == (3,)
    assert bounds[1] == math.inf and bounds[2] == 0.0
    single = ForcingData(mesh, f1[0], f2[0], g1[0], g2[0], fp1[0], fp2[0])
    assert bounds[0] == resolvent_norm_lower_bound(0.5, 5.0, [single])
    no_probe = ForcingData(mesh, *(a[:, :0] for a in (f1, f2, g1, g2, fp1, fp2)))
    assert np.array_equal(_block_bounds(0.5, mus, no_probe), np.zeros(3))


def _bound_from_the_solution(xi, mu, probe):
    """Each row's response over input norm, from solve_resolvent's arrays: the slow way."""
    mesh = probe.mesh
    in_norm = state_norm(mesh, probe.f1, probe.f2, probe.g1, probe.g2, probe.fp1, probe.fp2)
    sol = solve_resolvent(xi, mu, ForcingData(mesh, probe.f1, probe.f2, probe.g1, probe.g2))
    out_norm = state_norm(mesh, sol.u1, sol.u2, sol.v1, sol.v2, sol.up1, sol.up2)
    return np.divide(out_norm, in_norm, out=np.zeros_like(out_norm), where=in_norm != 0.0)


@pytest.mark.parametrize("cells", [47, 48])
def test_lower_bound_is_the_norm_ratio_of_the_solution(cells):
    # 48 samples a side (cells 47) take the last-interval Simpson weights
    mesh = build_mesh(GOLDEN, cells, cells)
    stack = random_forcing(mesh, np.random.default_rng(cells), count=3)
    single = random_forcing(mesh, np.random.default_rng(cells + 1))
    no_fp = ForcingData(mesh, single.f1, single.f2, single.g1, single.g2)
    for mu in (3.0, 18.0, 44.5):
        resonant = resonant_forcing(mesh, mu)
        probes = [resonant, stack, no_fp, _zero_forcing(mesh)]
        ratios = [np.atleast_1d(_bound_from_the_solution(GOLDEN, mu, p)) for p in probes]
        for probe, ratio in zip(probes, ratios):
            assert resolvent_norm_lower_bound(GOLDEN, mu, [probe]) == pytest.approx(
                ratio.max(), rel=1e-13, abs=0.0
            )
        expected = np.concatenate(ratios).max()
        assert resolvent_norm_lower_bound(GOLDEN, mu, probes) == pytest.approx(expected, rel=1e-13)
    assert ratios[-1].max() == 0.0 < ratios[2].max()


@pytest.mark.parametrize("cells", [47, 48])
def test_lower_bound_over_a_block_is_the_norm_ratio_of_the_solution(cells):
    # the middle frequency is resonant at xi = 1/2: inf for its row only
    mesh = build_mesh(0.5, cells, cells)
    mus = np.array([5.0, 2 * math.pi, 7.0])
    block = random_forcing(mesh, np.random.default_rng(4), count=12)
    names = ("f1", "f2", "g1", "g2", "fp1", "fp2")
    rows = [getattr(block, name).reshape(3, 4, -1) for name in names]
    bounds = _block_bounds(0.5, mus, ForcingData(mesh, *rows))
    assert bounds[1] == math.inf
    for k in (0, 2):
        expected = _bound_from_the_solution(0.5, mus[k], ForcingData(mesh, *(r[k] for r in rows)))
        assert bounds[k] == pytest.approx(expected.max(), rel=1e-13)


@pytest.mark.parametrize("cells", [47, 48, 4100])
def test_each_probe_bound_is_the_same_alone_in_a_stack_and_in_a_block(cells):
    # the bound of probe (k, j) of a 3-frequency, 4-probe block, with every
    # other probe zero, reads that probe's own ratio bit for bit.  At 4100
    # cells a side holds more than 8192 floats, where einsum's buffered
    # reduction splits a stacked row differently from a lone one
    mesh = build_mesh(GOLDEN, cells, cells)
    mus = np.array([3.0, 18.0, 44.5])
    block = random_forcing(mesh, np.random.default_rng(6), count=12)
    names = ("f1", "f2", "g1", "g2", "fp1", "fp2")
    rows = [getattr(block, name).reshape(3, 4, -1) for name in names]
    for k, mu in enumerate(mus):
        for j in range(4):
            probe = ForcingData(mesh, *(r[k, j] for r in rows))
            only = [np.zeros_like(r) for r in rows]
            for r, o in zip(rows, only):
                o[k, j] = r[k, j]
            alone = resolvent_norm_lower_bound(GOLDEN, mu, [probe])
            stack = ForcingData(mesh, *(o[k] for o in only))
            in_stack = resolvent_norm_lower_bound(GOLDEN, mu, [stack])
            in_block = _block_bounds(GOLDEN, mus, ForcingData(mesh, *only))
            assert alone > 0.0
            assert in_stack == alone
            assert in_block[k] == alone
            assert np.count_nonzero(in_block) == 1


def _scan_on_cpus(monkeypatch, cpus, xi, grid, seed, cells=32):
    """The scan in blocks of 3 frequencies, in as many processes as blocks, up to cpus."""
    monkeypatch.setattr(frequency, "_BLOCK_BYTES", 3 * 16 * 4 * (2 * cells + 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return scan_resolvent_growth(xi, grid, 4, seed=seed, cells_per_side=cells)


def test_split_scan_equals_the_serial_scan(monkeypatch):
    # 8 frequencies in blocks of 3, on 8 CPUs: a block in each of 3
    # processes, the last child's short
    grid = np.linspace(2.0, 60.0, 8)
    forked = record_forks(monkeypatch)
    split = _scan_on_cpus(monkeypatch, 8, GOLDEN, grid, seed=3)
    assert len(forked) == 2
    assert_reaped(forked)
    serial = _scan_on_cpus(monkeypatch, 1, GOLDEN, grid, seed=3)
    assert len(forked) == 2
    assert np.array_equal(split.norm_estimate, serial.norm_estimate)
    assert (split.growth_constant, split.growth_rate, split.log_residual) == (
        serial.growth_constant, serial.growth_rate, serial.log_residual
    )


def test_split_scan_with_a_resonant_frequency_in_a_child(monkeypatch):
    # mu = 2 pi, resonant at xi = 1/2, falls in the child's half; its last
    # block holds one frequency
    grid = np.array([5.0, 5.5, 6.0, 2 * math.pi, 7.0, 8.0, 9.5])
    forked = record_forks(monkeypatch)
    split = _scan_on_cpus(monkeypatch, 2, 0.5, grid, seed=0)
    assert len(forked) == 1
    assert split.n_resonant == 1
    assert split.norm_estimate[3] == math.inf
    assert np.all(np.isfinite(np.delete(split.norm_estimate, 3)))
    serial = _scan_on_cpus(monkeypatch, 1, 0.5, grid, seed=0)
    assert np.array_equal(split.norm_estimate, serial.norm_estimate)


def test_scan_on_one_cpu_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    scan = _scan_on_cpus(monkeypatch, 1, GOLDEN, np.linspace(2.0, 60.0, 8), seed=3)
    assert np.all(np.isfinite(scan.norm_estimate))


@pytest.mark.parametrize("probes", [0, -5])
def test_scan_refuses_fewer_than_one_probe(probes):
    with pytest.raises(ValueError, match="probes_per_mu"):
        scan_resolvent_growth(GOLDEN, [2.0, 3.0], probes, cells_per_side=16)


def test_when_a_scan_forks(monkeypatch):
    # the scan's parts are processes.divide's over its blocks: on 2 CPUs the
    # benchmark's golden scan (mu_max=200, 133 blocks of 3 frequencies)
    # splits 66/67
    divided = []
    divide = processes.divide

    def recording_divide(units):
        divided.append((units, divide(units)))
        return divided[-1][-1]

    monkeypatch.setattr(processes, "divide", recording_divide)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = record_forks(monkeypatch)
    scan = scan_resolvent_growth(GOLDEN, default_mu_grid(1.0, 200.0, 0.5), 4, seed=1)
    assert divided == [(133, [range(0, 66), range(66, 133)])]
    assert len(forked) == 1
    assert_reaped(forked)
    assert scan.norm_estimate.size == 399 and scan.n_resonant == 0


def test_the_scan_builds_its_shared_setup_before_it_forks():
    # in a fresh interpreter, where numpy.random is not yet loaded: when the
    # scan forks, numpy.random is loaded and the probe basis of the scan's
    # mesh is cached, so the child inherits both
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    probe = (
        "import os, sys\n"
        "import numpy as np\n"
        "from pointdamp import frequency\n"
        "from pointdamp.inputs import GOLDEN_RATIO_CONJUGATE as xi\n"
        "assert 'numpy.random' not in sys.modules\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "frequency._BLOCK_BYTES = 3 * 16 * 4 * 65\n"
        "seen, fork = [], os.fork\n"
        "def checking_fork():\n"
        "    misses = frequency._probe_basis.cache_info().misses\n"
        "    frequency._probe_basis(xi, 32, 32)\n"
        "    cached = frequency._probe_basis.cache_info().misses == misses\n"
        "    seen.append(('numpy.random' in sys.modules, cached))\n"
        "    return fork()\n"
        "os.fork = checking_fork\n"
        "frequency.scan_resolvent_growth(xi, np.linspace(2.0, 60.0, 8), 4, cells_per_side=32)\n"
        "print(seen)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[(True, True)]"


def test_scan_never_forks_while_another_thread_runs(monkeypatch):
    def no_fork():
        raise AssertionError("forked beside a running thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        scan = _scan_on_cpus(monkeypatch, 2, GOLDEN, np.linspace(2.0, 60.0, 8), seed=3)
    finally:
        release.set()
        waiting.join()
    assert np.all(np.isfinite(scan.norm_estimate))


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc/self/stat")
def test_the_scanning_process_has_one_thread_when_it_forks(monkeypatch):
    # Python 3.12 and later warn of a fork when /proc/self/stat counts more
    # than one thread in the parent just after it.  numpy's OpenBLAS pool is
    # such a thread until its fork handler stops it
    def threads():
        return int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[17])

    counts = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            counts.append(threads())
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    _scan_on_cpus(monkeypatch, 2, GOLDEN, np.linspace(2.0, 60.0, 8), seed=3)
    assert counts == [1]


def test_scan_memory_does_not_grow_with_the_grid():
    # the default golden scan (512 cells, 4 probes); a first call fills the
    # probe table and weight caches, which outlive the scan
    scan_resolvent_growth(GOLDEN, [1.0, 1.5], 4, seed=5)
    peaks = []
    for count in (40, 400):
        tracemalloc.start()
        try:
            scan_resolvent_growth(GOLDEN, 1.0 + 0.5 * np.arange(count), 4, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.95e6
    assert peaks[1] <= 1.05 * peaks[0]


# ---------------------------------------------------- characteristic roots


def test_characteristic_function_known_values():
    val = characteristic_function(0.5, math.pi / 2)
    assert val == pytest.approx(1.0 + 0.5j, abs=1e-15)
    assert abs(characteristic_function(0.5, 2 * math.pi)) < 1e-14
    # symmetric under reflection of the actuator position
    z = 3.1 + 0.7j
    assert characteristic_function(0.3, z) == pytest.approx(
        characteristic_function(0.7, z), abs=1e-13
    )


def test_characteristic_matches_indicator_on_real_axis(rng):
    xi = float(rng.uniform(0.1, 0.9))
    mu = rng.uniform(0.5, 200.0, size=256)
    lhs = np.abs(characteristic_function(xi, mu.astype(complex))) ** 2
    rhs = [resonance_indicator(xi, m) for m in mu.tolist()]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_characteristic_derivative_fd_check(rng):
    xi = 0.37
    for _ in range(5):
        z = complex(rng.uniform(1, 20), rng.uniform(-1, 2))
        h = 1e-6
        fd = (characteristic_function(xi, z + h) - characteristic_function(xi, z - h)) / (2 * h)
        assert abs(characteristic._values(xi, 1 - xi, z)[1] - fd) < 1e-5


def test_winding_counts():
    assert winding_number(0.5, (5.5, 7.0, -0.5, 0.5)) == 1
    assert winding_number(0.5, (1.0, 2.0, 0.1, 0.6)) == 0
    # contour squarely on top of the root still resolves by nudging
    assert winding_number(0.5, (2 * math.pi - 0.2, 2 * math.pi + 0.2, -0.1, 0.1)) == 1


def test_winding_rejects_degenerate_rect():
    with pytest.raises(ValueError):
        winding_number(0.5, (2.0, 1.0, 0.0, 1.0))


def test_eigenvalues_one_half_closed_form():
    # sin z = -i sin^2(z/2) factorizes: real roots 2k*pi and complex roots
    # (2k+1)*pi + i*ln 3
    roots = find_eigenvalues(0.5, (0.5, 16.0, -1.0, 3.0))
    expected = sorted(
        [2 * math.pi, 4 * math.pi,
         math.pi + 1j * math.log(3.0),
         3 * math.pi + 1j * math.log(3.0),
         5 * math.pi + 1j * math.log(3.0)],
        key=lambda w: complex(w).real,
    )
    assert len(roots) == len(expected)
    for root, ref in zip(roots, expected):
        assert abs(root.z - complex(ref)) < 1e-9
        assert root.multiplicity == 1
        assert root.residual < 1e-10


def test_eigenvalues_trivial_root_at_origin():
    roots = find_eigenvalues(GOLDEN, (-0.3, 0.3, -0.3, 0.3))
    assert len(roots) == 1
    assert abs(roots[0].z) < 1e-10
    assert roots[0].multiplicity == 1


def test_eigenvalues_golden_all_strictly_damped():
    roots = find_eigenvalues(GOLDEN, (0.5, 20.0, -1.0, 4.0))
    assert roots, "expected roots in the window"
    for root in roots:
        assert root.z.imag > 1e-4
        assert abs(characteristic_function(GOLDEN, root.z)) < 1e-9


def test_eigenvalues_reflection_symmetry():
    a = find_eigenvalues(0.3, (0.5, 15.0, -1.0, 4.0))
    b = find_eigenvalues(0.7, (0.5, 15.0, -1.0, 4.0))
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert abs(ra.z - rb.z) < 1e-9


def test_eigenvalues_seeded_rectangle_around_origin():
    # seeds at n pi for negative n and n = 0 too: the trivial root and the
    # mirror roots -conj(z) of every root z are found
    rect = (-20.0, 20.0, -1.0, 4.0)
    roots = find_eigenvalues(GOLDEN, rect)
    assert len(roots) == winding_number(GOLDEN, rect)
    assert all(r.multiplicity == 1 for r in roots)
    z = np.array([r.z for r in roots])
    assert np.min(np.abs(z)) < 1e-12
    for w in z:
        assert np.min(np.abs(z + np.conj(w))) < 1e-12


def test_eigenvalues_certificate_mismatch_raises(monkeypatch):
    # seeds one strip off: Newton from the seed of strip n settles on the root
    # of strip n + 1, whose disc lies outside the strip it has to certify
    honest = characteristic.closed_form_seed
    monkeypatch.setattr(characteristic, "closed_form_seed", lambda xi, n: honest(xi, n + 1))
    with pytest.raises(ContourThroughRoot, match="inside the strip"):
        find_eigenvalues(GOLDEN, (0.5, 30.0, -0.5, 3.0))


def test_eigenvalues_certificate_refuses_duplicate_roots(monkeypatch):
    # a double root at 5: |D'| vanishes with |D|, so h = K |D| / |D'|^2 stays
    # at K / 4 > 1/2 and no Kantorovich disc can be certified
    monkeypatch.setattr(
        characteristic, "_values", lambda xi, eta, z: ((z - 5.0) ** 2, 2.0 * (z - 5.0))
    )
    with pytest.raises(ContourThroughRoot, match="radius inf"):
        find_eigenvalues(GOLDEN, (4.0, 6.0, -1.0, 1.0))


def test_eigenvalues_refuse_a_root_on_the_widened_edge():
    # the right edge plus its slack of 1e-9 * 3.5 lands on the root near 2 pi,
    # within the root's certified radius of a few 1e-15
    root = find_eigenvalues(GOLDEN, (5.0, 7.5, -0.5, 3.0))[0].z
    rect = (5.0, root.real - 3.5e-9, -0.5, 3.0)
    with pytest.raises(ContourThroughRoot, match="edge"):
        find_eigenvalues(GOLDEN, rect)
    # an edge a millionth further out, or further in, decides cleanly
    assert len(find_eigenvalues(GOLDEN, (5.0, root.real + 1e-6, -0.5, 3.0))) == 1
    assert find_eigenvalues(GOLDEN, (5.0, root.real - 1e-6, -0.5, 3.0)) == []


@pytest.mark.parametrize("n", [144, 233, 377])
def test_root_imaginary_part_matches_arithmetic(n):
    # near z = n pi, D(n pi + d) ~ (-1)^n [d - i sin^2(n pi xi)]: the damping
    # of the n-th root is read off the distance of n xi to the integers
    roots = find_eigenvalues(GOLDEN, (n * math.pi - 1.0, n * math.pi + 1.0, -0.5, 3.0))
    assert len(roots) == 1
    assert abs(roots[0].z.imag / math.sin(n * math.pi * GOLDEN) ** 2 - 1.0) < 1e-3


def test_spectral_abscissa_values():
    # the abscissa is -min(Im z): exactly 0.0 with a real root, -inf with none
    def abscissa(xi, horizon, rational):
        return abscissa_of_roots(find_eigenvalues(xi, (0.5, horizon, -0.5, 3.0)), rational)

    assert abscissa(0.5, 10.0, (1, 2)) == 0.0
    golden = find_eigenvalues(GOLDEN, (0.5, 30.0, -0.5, 3.0))
    assert abscissa(GOLDEN, 30.0, None) == -min(r.z.imag for r in golden) < 0.0
    assert abscissa_of_roots([], None) == -math.inf
    with pytest.raises(ValueError):
        find_eigenvalues(0.5, (0.5, -1.0, -0.5, 3.0))


def test_eigenvalues_far_out_terminate():
    # near z = 8557 the rounding of D(z) (about eps*|z|) exceeds the default
    # Newton tolerance; the polish must stop at that floor instead of
    # subdividing forever, so run it in a child that can be timed out
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    probe = (
        "from pointdamp.characteristic import find_eigenvalues; "
        "from pointdamp.diophantine import GOLDEN_RATIO_CONJUGATE; "
        "print(len(find_eigenvalues(GOLDEN_RATIO_CONJUGATE, (8550.0, 8565.0, -0.5, 3.0))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 5  # (8565 - 8550) / pi = 4.8 roots expected
