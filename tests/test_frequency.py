import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import interface_coefficients_quadrature, numerov_interface_solve
import pointdamp
from pointdamp import (
    GOLDEN_RATIO_CONJUGATE,
    ContourThroughRoot,
    ForcingData,
    ResolventSolution,
    ResonantDenominator,
    assemble_phi,
    build_mesh,
    characteristic_derivative,
    characteristic_function,
    find_eigenvalues,
    lambda_coefficients,
    random_forcing,
    resolvent_norm_lower_bound,
    resonance_indicator,
    resonant_forcing,
    scan_resolvent_growth,
    solve_resolvent,
    spectral_abscissa,
    state_norm,
    trace_derivatives,
    verify_interface_identity,
    winding_number,
)

GOLDEN = GOLDEN_RATIO_CONJUGATE


def _zero_forcing(mesh):
    zl = np.zeros(mesh.n_left + 1, dtype=complex)
    zr = np.zeros(mesh.n_right + 1, dtype=complex)
    return ForcingData(mesh, zl, zr, zl.copy(), zr.copy(), zl.copy(), zr.copy())


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
    fd = np.gradient(forcing.f1.real, mesh.left)
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
        for side, x in (("1", mesh.left), ("2", mesh.right)):
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
    np.testing.assert_allclose(probe.g1, np.sin(11.0 * mesh.left), atol=1e-15)


# ------------------------------------------------------------ coefficients


def test_lambda_zero_forcing_is_zero():
    mesh = build_mesh(GOLDEN, 64, 64)
    z1 = np.zeros(65, dtype=complex)
    lam1, lam2 = lambda_coefficients(GOLDEN, 10.0, z1, z1.copy(), 0j, mesh)
    assert lam1 == 0j and lam2 == 0j


def test_lambda_matches_quadrature_oracle():
    mesh = build_mesh(GOLDEN, 2000, 2000)
    mu = 10.0

    def phi1f(t):
        return complex(np.exp(t) * np.sin(3 * t), 0.3 * t)

    def phi2f(t):
        return complex(np.cos(2 * t), t * t)

    f1x = 0.7 - 0.2j
    p1 = np.array([phi1f(t) for t in mesh.left])
    p2 = np.array([phi2f(t) for t in mesh.right])
    lam1, lam2 = lambda_coefficients(GOLDEN, mu, p1, p2, f1x, mesh)
    o1, o2 = interface_coefficients_quadrature(GOLDEN, mu, phi1f, phi2f, f1x)
    assert abs(lam1 - o1) < 1e-8
    assert abs(lam2 - o2) < 1e-8


def test_lambda_constant_forcing_against_oracle():
    # piecewise-constant transformed forcing: phi1 = 1, phi2 = 0
    mesh = build_mesh(GOLDEN, 2000, 2000)
    mu = 17.0
    p1 = np.ones(mesh.n_left + 1, dtype=complex)
    p2 = np.zeros(mesh.n_right + 1, dtype=complex)
    lam1, lam2 = lambda_coefficients(GOLDEN, mu, p1, p2, 0j, mesh)
    o1, o2 = interface_coefficients_quadrature(
        GOLDEN, mu, lambda t: 1.0 + 0j, lambda t: 0j, 0j
    )
    assert abs(lam1 - o1) < 1e-8
    assert abs(lam2 - o2) < 1e-8


def test_resonant_denominator_raises():
    mesh = build_mesh(0.5, 64, 64)
    z = np.zeros(65, dtype=complex)
    with pytest.raises(ResonantDenominator):
        lambda_coefficients(0.5, 2 * math.pi, z, z.copy(), 0j, mesh)


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


def test_solve_matches_numerov_oracle(rng):
    mesh = build_mesh(GOLDEN, 1000, 1000)
    forcing = random_forcing(mesh, rng)
    mu = 20.0
    sol = solve_resolvent(GOLDEN, mu, forcing)
    phi1, phi2 = assemble_phi(forcing, mu)
    o1, o2 = numerov_interface_solve(
        GOLDEN, mu, mesh.left, phi1, mesh.right, phi2, forcing.f1_at_xi
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


def test_verbatim_kernel_breaks_jump_condition(rng):
    # the alternative second-coefficient kernel is kept for comparison; it
    # violates the derivative jump at order one while the default satisfies
    # it to quadrature accuracy
    mesh = build_mesh(GOLDEN, 512, 512)
    forcing = random_forcing(mesh, rng)
    consistent = solve_resolvent(GOLDEN, 23.0, forcing, kernel="consistent")
    verbatim = solve_resolvent(GOLDEN, 23.0, forcing, kernel="verbatim")
    assert consistent.jump_residual < 1e-9
    assert verbatim.jump_residual > 1e-3
    assert abs(consistent.lambda2 - verbatim.lambda2) > 1e-8


def test_solve_rejects_unknown_kernel(rng):
    mesh = build_mesh(GOLDEN, 32, 32)
    forcing = random_forcing(mesh, rng)
    with pytest.raises(ValueError):
        solve_resolvent(GOLDEN, 10.0, forcing, kernel="other")


@pytest.mark.parametrize("kernel", ["consistent", "verbatim"])
def test_stacked_solve_matches_single_solves(kernel):
    mesh = build_mesh(GOLDEN, 96, 80)
    stack = random_forcing(mesh, np.random.default_rng(4), count=3)
    rng = np.random.default_rng(4)
    singles = [random_forcing(mesh, rng) for _ in range(3)]
    for mu in (1.5, 23.0, 61.7):
        sol = solve_resolvent(GOLDEN, mu, stack, kernel)
        refs = [solve_resolvent(GOLDEN, mu, single, kernel) for single in singles]
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


# ------------------------------------------------------------------ traces


def test_trace_derivatives_closed_form():
    # pure homogeneous left mode: u1 = sin(mu x), so u1'(xi) = mu cos(mu xi)
    mesh = build_mesh(0.5, 16, 16)
    mu = math.pi / 2
    zeros_l = np.zeros(17, dtype=complex)
    zeros_r = np.zeros(17, dtype=complex)
    sol = ResolventSolution(
        mesh=mesh, mu=mu, lambda1=1.0 + 0j, lambda2=0j,
        u1=zeros_l, u2=zeros_r, v1=zeros_l, v2=zeros_r,
        up1=zeros_l, up2=zeros_r,
    )
    left, right = trace_derivatives(sol, zeros_l, zeros_r)
    assert left == pytest.approx(mu * math.cos(mu * 0.5), abs=1e-14)
    assert right == pytest.approx(0.0, abs=1e-14)


def test_trace_derivatives_match_solution_arrays(rng):
    mesh = build_mesh(GOLDEN, 512, 512)
    forcing = random_forcing(mesh, rng)
    mu = 14.0
    sol = solve_resolvent(GOLDEN, mu, forcing)
    phi1, phi2 = assemble_phi(forcing, mu)
    left, right = trace_derivatives(sol, phi1, phi2)
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
    a1 = np.sin(np.pi * mesh.left)
    a2 = np.sin(np.pi * mesh.right)
    ap1 = np.pi * np.cos(np.pi * mesh.left)
    ap2 = np.pi * np.cos(np.pi * mesh.right)
    b1 = np.zeros_like(a1)
    b2 = np.zeros_like(a2)
    norm = state_norm(mesh, a1, a2, b1, b2, ap1, ap2)
    assert norm == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-8)


def test_state_norm_without_derivative_samples():
    mesh = build_mesh(0.5, 512, 512)
    a1 = np.sin(np.pi * mesh.left)
    a2 = np.sin(np.pi * mesh.right)
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
    np.testing.assert_allclose(lhs, resonance_indicator(xi, mu), atol=1e-12)


def test_characteristic_derivative_fd_check(rng):
    xi = 0.37
    for _ in range(5):
        z = complex(rng.uniform(1, 20), rng.uniform(-1, 2))
        h = 1e-6
        fd = (characteristic_function(xi, z + h) - characteristic_function(xi, z - h)) / (2 * h)
        assert abs(characteristic_derivative(xi, z) - fd) < 1e-5


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


def test_spectral_abscissa_values():
    assert spectral_abscissa(0.5, 10.0) == 0.0
    golden = spectral_abscissa(GOLDEN, 30.0)
    assert golden < 0.0
    assert spectral_abscissa(0.3, 0.4) == -math.inf
    with pytest.raises(ValueError):
        spectral_abscissa(0.5, -1.0)


def test_eigenvalues_far_out_terminate():
    # near z = 8557 the rounding of D(z) (about eps*|z|) exceeds the default
    # Newton tolerance; the polish must stop at that floor instead of
    # subdividing forever, so run it in a child that can be timed out
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    probe = (
        "from pointdamp import GOLDEN_RATIO_CONJUGATE, find_eigenvalues; "
        "print(len(find_eigenvalues(GOLDEN_RATIO_CONJUGATE, (8550.0, 8565.0, -0.5, 3.0))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 5  # (8565 - 8550) / pi = 4.8 roots expected
