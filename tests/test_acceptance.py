"""End-to-end checks of the package's advertised guarantees.

Each test prints one [criterion N] PASS/FAIL line (visible even under
capture) and then asserts, so `pytest tests/test_acceptance.py` doubles as a
human-readable checklist.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from pointdamp import carleman, decayfit, diophantine, frequency, simulator
from pointdamp.mesh import build_mesh
from pointdamp.tasks.carleman_verify import identity_check_coefficients

from oracles import grid_square_expansion_residual, numerov_interface_solve, random_test_function

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_1_resolvent_matches_independent_bvp(capsys):
    """Closed-form resolvent vs a fourth-order finite-difference solve."""
    rng = np.random.default_rng(101)
    mesh = build_mesh(GOLDEN, 1000, 1000)
    x1, x2 = mesh.split(mesh.nodes)
    started = time.monotonic()
    worst = 0.0
    for _ in range(20):
        mu = float(rng.uniform(5.0, 100.0))
        forcing = frequency.random_forcing(mesh, rng)
        sol = frequency.solve_resolvent(GOLDEN, mu, forcing)
        phi1, phi2 = frequency.assemble_phi(forcing, mu)
        ref1, ref2 = numerov_interface_solve(
            GOLDEN, mu, x1, phi1, x2, phi2, forcing.f1_at_xi
        )
        num = np.sum(np.abs(sol.u1 - ref1) ** 2) + np.sum(np.abs(sol.u2 - ref2) ** 2)
        den = np.sum(np.abs(ref1) ** 2) + np.sum(np.abs(ref2) ** 2)
        worst = max(worst, math.sqrt(num / den))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report(
        capsys, 1, ok,
        f"20 random frequencies: worst relative error {worst:.2e} "
        f"(allowed 1e-06) in {elapsed:.1f}s (allowed 30s)",
    )


def test_criterion_2_characteristic_modulus_identity(capsys):
    """|D(mu)|^2 equals the resonance indicator on the real axis."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for xi in rng.uniform(0.01, 0.99, 100):
        mu = rng.uniform(0.5, 100.0, 100)
        lhs = np.abs(frequency.characteristic_function(float(xi), mu)) ** 2
        rhs = np.array([diophantine.resonance_indicator(float(xi), m) for m in mu.tolist()])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    _report(
        capsys, 2, ok,
        f"10^4 random (xi, mu) pairs: worst absolute gap {worst:.2e} (allowed 1e-12)",
    )


def test_criterion_3_exact_resonance_at_one_half(capsys):
    """xi = 1/2 has a real characteristic root at 2*pi, which the strip check finds."""
    roots = frequency.find_eigenvalues(0.5, (6.0, 6.6, -0.2, 0.2))
    gap = min(abs(r.z - 2.0 * math.pi) for r in roots)
    rep = diophantine.check_exp_grid(0.5, 1.0, 10.0, 1.0, 10.0)
    witness_ok = rep.witness is not None and abs(rep.witness - 2.0 * math.pi) <= 1e-12
    ok = gap <= 1e-10 and rep.verdict == "fail" and witness_ok
    _report(
        capsys, 3, ok,
        f"root gap |z - 2pi| = {gap:.2e} (allowed 1e-10); strip check verdict "
        f"{rep.verdict!r} with witness {rep.witness}",
    )


def test_criterion_4_spectrum_is_dissipative(capsys):
    """Every root lies in the closed upper half-plane; counts match windings."""
    rng = np.random.default_rng(404)
    rect = (-0.317, 50.077, -1.111, 5.093)  # covers [0,50] x [-1,5] with margin
    worst_im = math.inf
    matches = 0
    n_xis = 20
    for _ in range(n_xis):
        xi = float(rng.uniform(0.05, 0.95))
        wind = frequency.winding_number(xi, rect)
        roots = frequency.find_eigenvalues(xi, rect)
        worst_im = min(worst_im, min(r.z.imag for r in roots))
        matches += int(sum(r.multiplicity for r in roots) == wind)
    ok = worst_im >= -1e-8 and matches == n_xis
    _report(
        capsys, 4, ok,
        f"{n_xis} random positions: min Im(z) = {worst_im:.2e} (allowed -1e-08); "
        f"count/winding agreement {matches}/{n_xis}",
    )


def test_criterion_5_discrete_dissipation_identity(capsys):
    """Energy drop equals integrated interface power; invisible mode conserves."""
    mesh = build_mesh(GOLDEN, 300, 300)
    state = simulator.initial_data(mesh, "smooth_bump", center=0.3, width=0.12)
    _, trace = simulator.simulate(state, 10.0, dt=1e-3)
    e0 = float(trace.energies[0])
    resid = simulator.dissipation_residual(trace)

    mesh2 = build_mesh(0.5, 200, 200)
    state2 = simulator.initial_data(mesh2, "fourier_mode", mode=2)
    _, trace2 = simulator.simulate(state2, 100.0, dt=5e-3)
    drift = abs(float(trace2.energies[-1] / trace2.energies[0]) - 1.0)
    ok = resid <= 1e-6 * e0 and drift <= 1e-10
    _report(
        capsys, 5, ok,
        f"dissipation residual {resid:.2e} vs E(0) = {e0:.3f} (allowed 1e-06*E(0)); "
        f"invisible-mode drift |E(100)/E(0) - 1| = {drift:.2e} (allowed 1e-10)",
    )


def test_criterion_6_stability_dichotomy(capsys):
    """Irrational position drains a smooth bump; rational keeps a mode alive."""
    mesh = build_mesh(GOLDEN, 300, 300)
    state = simulator.initial_data(mesh, "smooth_bump")
    _, trace = simulator.simulate(state, 200.0, dt=1e-3)
    ratio_irr = float(trace.energies[-1] / trace.energies[0])

    mesh2 = build_mesh(0.5, 200, 200)
    state2 = simulator.initial_data(mesh2, "fourier_mode", mode=2)
    _, trace2 = simulator.simulate(state2, 200.0, dt=5e-3)
    ratio_rat = float(trace2.energies[-1] / trace2.energies[0])
    ok = ratio_irr < 0.9 and abs(ratio_rat - 1.0) <= 1e-9
    _report(
        capsys, 6, ok,
        f"golden position: E(200)/E(0) = {ratio_irr:.2e} (needs < 0.9); "
        f"half position, mode 2: |E(200)/E(0) - 1| = {abs(ratio_rat - 1.0):.2e}",
    )


def test_criterion_7_weighted_inequality_checks(capsys):
    """Dual-route and grid square-expansion residuals converge at second order;
    the package's identities on Gauss nodes are exact to rounding; inequality
    ratio sup is finite and stable between Gauss node counts."""
    sides = {
        "left": carleman.default_left_weight(GOLDEN),
        "right": carleman.default_right_weight(GOLDEN),
    }
    h_ref = 0.05
    min_order = math.inf
    for weight in sides.values():
        interval = (weight.a, weight.b)
        errs_route, errs_sq = [], []
        for n in (250, 500, 1000, 2000):
            x = weight.grid(n)
            w = random_test_function(interval, n, np.random.default_rng(707), 6)
            gap = carleman.conjugation_route(weight, h_ref, w, x) - \
                carleman.apply_conjugated_operator(weight, h_ref, w, x)
            errs_route.append(float(np.max(np.abs(gap))))
            rep, _ = grid_square_expansion_residual(weight, h_ref, w, x)
            errs_sq.append(rep.relative_residual)
        for errs in (errs_route, errs_sq):
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
            min_order = min(min_order, min(orders))
    # the package's own checks, on the node count at which the forms settle:
    # exact for the quadratic weights, so rounding, (2m + 4)^2 eps at most
    w_coefficients, v_coefficients = identity_check_coefficients(8)
    worst_exact = 0.0
    for weight in sides.values():
        ibp = carleman.ibp_residuals(weight, h_ref, v_coefficients, w_coefficients, 22)
        rep, _ = carleman.square_expansion_residual(weight, h_ref, w_coefficients, 22)
        worst_exact = max(worst_exact, *ibp, rep.relative_residual)
    exact_bound = 20**2 * np.finfo(float).eps

    # the span maximum on 8 rows from the forms on 11 and 22 Gauss nodes, the
    # first count of the node rule and its first doubling
    h_grid = np.geomspace(1e-3, 1e-1, 13)
    sups = {}
    for nodes in (11, 22):
        sup = 0.0
        for side, weight in sides.items():
            lhs_forms, rhs_forms = carleman._gauss_forms(weight, 8, h_grid, side, nodes)
            for lhs, rhs in zip(lhs_forms, rhs_forms):
                sup = max(sup, float(scipy.linalg.eigh(lhs, rhs, eigvals_only=True)[-1]))
        sups[nodes] = sup
    variation = abs(sups[11] / sups[22] - 1.0)
    ok = (
        min_order >= 1.9
        and worst_exact <= exact_bound
        and all(math.isfinite(s) and s > 0 for s in sups.values())
        and variation <= 1e-12
    )
    _report(
        capsys, 7, ok,
        f"min observed order {min_order:.2f} (needs >= 1.9); Gauss identity residuals "
        f"{worst_exact:.1e} (allowed {exact_bound:.1e}); ratio sup "
        f"{sups[11]:.4e} vs {sups[22]:.4e}, variation {variation:.2e} (allowed 1e-12)",
    )


def test_criterion_8_decay_fit_inversion(capsys):
    """Noiseless traces invert exactly; 1% noise stays within 5%."""
    t = np.linspace(0.0, 400.0, 2500)
    families = [
        ("logarithmic", 3.7 / np.log(2.0 + t) ** 4, decayfit.fit_log, {"C": 3.7, "power": 4.0}),
        ("polynomial", 2.2 / (1.0 + t) ** (1.0 / 1.5), decayfit.fit_poly,
         {"C": 2.2, "power": 1.0 / 1.5}),
        ("exponential", 1.9 * np.exp(-0.05 * t), decayfit.fit_exp,
         {"M": 1.9, "rate": 0.05}),
    ]
    worst_clean = 0.0
    for _, energies, fit, truth in families:
        result = fit(SimpleNamespace(times=t, energies=energies))
        for key, ref in truth.items():
            worst_clean = max(worst_clean, abs(result.parameters[key] / ref - 1.0))

    worst_noisy = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for _, energies, fit, truth in families:
            noisy = energies * np.exp(0.01 * rng.standard_normal(t.size))
            result = fit(SimpleNamespace(times=t, energies=noisy))
            for key, ref in truth.items():
                worst_noisy = max(worst_noisy, abs(result.parameters[key] / ref - 1.0))
    ok = worst_clean <= 1e-6 and worst_noisy <= 0.05
    _report(
        capsys, 8, ok,
        f"noiseless worst relative parameter error {worst_clean:.2e} (allowed 1e-06); "
        f"1%-noise worst over 100 seeds {worst_noisy:.2e} (allowed 0.05)",
    )


def test_criterion_9_diophantine_oracle(capsys):
    """Convergents are best approximations; a near-Liouville number fails the scan."""
    rng = np.random.default_rng(909)
    n_checked = 0
    n_beat = 0
    for _ in range(20):
        xi = float(rng.uniform(0.02, 0.98))
        cf = diophantine.expand_continued_fraction(xi)
        for _, q in cf.convergents:
            if not 2 <= q <= 1000:
                continue
            best_smaller = min(abs(m * xi - round(m * xi)) for m in range(1, q))
            own = abs(q * xi - round(q * xi))
            n_checked += 1
            n_beat += int(own < best_smaller)

    # 0.110001... with 1-digits at factorial positions: approximated far too
    # well by its convergents for any linear growth function to compensate
    digits = ["0"] * 730
    for k in (1, 2, 6, 24, 120, 720):
        digits[k - 1] = "1"
    xi_str = "0." + "".join(digits)
    xi = float(xi_str)
    phi = diophantine.GrowthFunction.identity()
    rep = diophantine.check_liouville_type(xi, phi, kappa=0.2, m_max=10**6)
    string_qs = {q for _, q in diophantine.expand_continued_fraction(xi_str).convergents}
    witness = rep.witness
    witness_violates = (
        witness is not None
        and phi.evaluate(witness) * abs(witness * xi - round(witness * xi)) < 0.2
    )
    witness_is_convergent = witness is not None and int(witness) in string_qs
    ok = (
        n_checked >= 40
        and n_beat == n_checked
        and rep.verdict == "fail"
        and witness_violates
        and witness_is_convergent
    )
    _report(
        capsys, 9, ok,
        f"best-approximation checks {n_beat}/{n_checked} (q <= 1000, 20 positions); "
        f"near-Liouville scan verdict {rep.verdict!r}, witness m = {witness:g} "
        f"is a convergent denominator: {witness_is_convergent}",
    )
