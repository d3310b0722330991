import math

import numpy as np
import pytest

from pointdamp import (
    GOLDEN_RATIO_CONJUGATE,
    build_mesh,
    dissipation_residual,
    energy,
    initial_data,
    simulate,
)

GOLDEN = GOLDEN_RATIO_CONJUGATE


# ------------------------------------------------------------ initial data


def test_fourier_mode_data():
    mesh = build_mesh(0.5, 100, 100)
    state = initial_data(mesh, "fourier_mode", mode=2)
    np.testing.assert_allclose(state.u, np.sin(2 * np.pi * mesh.nodes), atol=1e-12)
    assert np.all(state.v == 0.0)
    assert state.t == 0.0


def test_smooth_bump_data():
    mesh = build_mesh(GOLDEN, 400, 400)
    state = initial_data(mesh, "smooth_bump", center=0.45, width=0.2)
    assert state.u[0] == 0.0 and state.u[-1] == 0.0
    x = mesh.nodes
    inside = np.abs(x - 0.45) < 0.2
    assert np.all(state.u[~inside] == 0.0)
    assert np.max(state.u) == pytest.approx(1.0, abs=1e-3)
    # C^1 at the support edge: numerical slope stays small there
    du = np.gradient(state.u, x)
    edge = np.argmin(np.abs(x - (0.45 + 0.2)))
    assert abs(du[edge]) < 0.1


def test_custom_data_sampling():
    mesh = build_mesh(0.5, 50, 50)
    state = initial_data(
        mesh,
        "custom",
        displacement=lambda x: x * (1 - x),
        velocity=lambda x: np.sin(np.pi * x),
    )
    inner = slice(1, -1)
    np.testing.assert_allclose(
        state.u[inner], (mesh.nodes * (1 - mesh.nodes))[inner], atol=1e-14
    )
    np.testing.assert_allclose(
        state.v[inner], np.sin(np.pi * mesh.nodes)[inner], atol=1e-14
    )
    # boundary values are clamped
    assert state.v[0] == 0.0 and state.v[-1] == 0.0


def test_initial_data_validation():
    mesh = build_mesh(0.5, 16, 16)
    with pytest.raises(ValueError):
        initial_data(mesh, "fourier_mode", mode=0)
    with pytest.raises(ValueError):
        initial_data(mesh, "something_else")


# ----------------------------------------------------------------- energy


def test_energy_zero_state():
    mesh = build_mesh(0.5, 32, 32)
    state = initial_data(mesh, "custom")
    assert energy(state) == 0.0


def test_energy_fourier_mode_value():
    # u = sin(pi x), v = 0: E = (1/2) int |u'|^2 = pi^2 / 4
    errs = []
    for n in (250, 500):
        mesh = build_mesh(0.5, n, n)
        state = initial_data(mesh, "fourier_mode", mode=1)
        errs.append(abs(energy(state) - math.pi**2 / 4.0))
    assert errs[0] < 1e-4
    assert 3.0 < errs[0] / errs[1] < 5.0  # second-order quadrature


# --------------------------------------------------------------- stepping


def test_zero_state_stays_zero():
    mesh = build_mesh(GOLDEN, 64, 64)
    state = initial_data(mesh, "custom")
    out, _ = simulate(state, 0.01, dt=0.01)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)
    assert out.t == pytest.approx(0.01)


def test_simulate_zero_span_returns_single_sample():
    mesh = build_mesh(GOLDEN, 64, 64)
    state = initial_data(mesh, "smooth_bump")
    final, trace = simulate(state, 0.0)
    assert trace.times.shape == (1,)
    assert trace.energies[0] == pytest.approx(energy(state))
    assert trace.damping_power.size == 0
    np.testing.assert_array_equal(final.u, state.u)


def test_simulate_validates_inputs():
    mesh = build_mesh(GOLDEN, 64, 64)
    state = initial_data(mesh, "smooth_bump")
    with pytest.raises(ValueError):
        simulate(state, -1.0)
    with pytest.raises(ValueError):
        simulate(state, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        simulate(state, 1.0, dt=0.1, sample_every=0)


def test_simulate_lands_exactly_on_final_time():
    mesh = build_mesh(GOLDEN, 64, 64)
    state = initial_data(mesh, "smooth_bump")
    final, trace = simulate(state, 1.0, dt=0.3)  # does not divide the span
    assert final.t == pytest.approx(1.0, abs=1e-14)
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-14)


def test_simulate_step_longer_than_span_takes_one_step():
    mesh = build_mesh(GOLDEN, 16, 16)
    state = initial_data(mesh, "smooth_bump")
    final, trace = simulate(state, 1.0, dt=1e12)
    assert trace.damping_power.size == 1
    assert trace.dt == 1.0 and final.t == 1.0


# ------------------------------------------------------------- dissipation


def test_per_step_energy_balance():
    mesh = build_mesh(GOLDEN, 200, 200)
    state = initial_data(mesh, "smooth_bump", center=0.5, width=0.2)
    _, trace = simulate(state, 2.0, dt=1e-3, sample_every=1)
    e0 = trace.energies[0]
    # every sampled step satisfies E_{k+1} - E_k = -dt * power_k
    drops = np.diff(trace.energies)
    flows = -trace.dt * trace.damping_power
    assert np.max(np.abs(drops - flows)) < 1e-12 * e0
    assert dissipation_residual(trace) < 1e-10 * e0


def test_energy_monotone_under_damping():
    mesh = build_mesh(GOLDEN, 200, 200)
    state = initial_data(mesh, "smooth_bump", center=0.4, width=0.2)
    _, trace = simulate(state, 5.0, dt=2e-3, sample_every=10)
    assert np.all(np.diff(trace.energies) <= 1e-12 * trace.energies[0])


def test_dissipation_residual_windowed():
    mesh = build_mesh(GOLDEN, 150, 150)
    state = initial_data(mesh, "smooth_bump", center=0.5, width=0.25)
    _, trace = simulate(state, 3.0, dt=1e-3, sample_every=7)
    e0 = trace.energies[0]
    assert dissipation_residual(trace, 0.5, 2.5) < 1e-11 * e0
    assert dissipation_residual(trace, 2.5, 0.5) < 1e-11 * e0  # order-free
    assert dissipation_residual(trace, None, 1.5) < 1e-11 * e0


def test_dissipated_energy_accumulates():
    mesh = build_mesh(GOLDEN, 100, 100)
    state = initial_data(mesh, "smooth_bump", center=0.5, width=0.3)
    _, trace = simulate(state, 1.0, dt=1e-3)
    dissipated = trace.dissipated_at_samples()
    total, half = dissipated[-1], dissipated[dissipated.size // 2]
    assert 0.0 < half < total
    assert total == pytest.approx(trace.energies[0] - trace.energies[-1], rel=1e-9)


def test_undamped_run_conserves_energy():
    mesh = build_mesh(0.5, 200, 200)
    state = initial_data(mesh, "fourier_mode", mode=3)
    _, trace = simulate(state, 10.0, dt=2e-3, damped=False)
    e0 = trace.energies[0]
    assert np.max(np.abs(trace.energies - e0)) < 1e-11 * e0
    assert np.all(trace.damping_power == 0.0)


def test_invisible_mode_not_damped():
    # sin(3 pi x) vanishes at xi = 1/3: the damper never sees the motion
    mesh = build_mesh(1.0 / 3.0, 200, 400)
    state = initial_data(mesh, "fourier_mode", mode=3)
    _, trace = simulate(state, 10.0, dt=2e-3, damped=True)
    e0 = trace.energies[0]
    assert abs(trace.energies[-1] / e0 - 1.0) < 1e-10


def test_generic_bump_decays_at_golden_position():
    mesh = build_mesh(GOLDEN, 200, 200)
    state = initial_data(mesh, "smooth_bump", center=0.45, width=0.2)
    _, trace = simulate(state, 30.0, dt=2e-3, sample_every=100)
    assert trace.energies[-1] < 0.9 * trace.energies[0]


def test_reflection_symmetry():
    # mirroring the actuator and the data mirrors the run
    xi = 0.3
    mesh_a = build_mesh(xi, 150, 350)
    mesh_b = build_mesh(1.0 - xi, 350, 150)
    state_a = initial_data(mesh_a, "smooth_bump", center=0.45, width=0.15)
    state_b = initial_data(mesh_b, "smooth_bump", center=0.55, width=0.15)
    final_a, trace_a = simulate(state_a, 4.0, dt=2e-3, sample_every=50)
    final_b, trace_b = simulate(state_b, 4.0, dt=2e-3, sample_every=50)
    np.testing.assert_allclose(trace_a.energies, trace_b.energies, rtol=1e-10)
    np.testing.assert_allclose(final_a.u, final_b.u[::-1], atol=1e-10)


def test_final_energy_converges_under_refinement():
    # fixed dt, refined meshes: E(T) settles at second order
    energies = []
    for n in (100, 200, 400):
        mesh = build_mesh(GOLDEN, n, n)
        state = initial_data(mesh, "smooth_bump", center=0.5, width=0.25)
        final, _ = simulate(state, 2.0, dt=1e-3)
        energies.append(energy(final))
    e_fine = energies[-1]
    err = [abs(e - e_fine) for e in energies[:-1]]
    assert err[0] > err[1]
    assert err[0] / err[1] > 3.0


def test_dissipation_residual_dt_independent():
    # the balance is exact per step, so shrinking dt must not degrade it
    mesh = build_mesh(GOLDEN, 100, 100)
    state = initial_data(mesh, "smooth_bump", center=0.5, width=0.3)
    for dt in (5e-3, 1e-3):
        _, trace = simulate(state, 1.0, dt=dt)
        assert dissipation_residual(trace) < 1e-11 * trace.energies[0]


# ----------------------------------------------------------------- oracle


def _banded_midpoint_march(state, n_steps, dt, damped):
    """Implicit midpoint march assembled element by element, one banded solve a step.

    With y the midpoint velocity, u' = v and M v' = -S u - B v give
    (2M/dt + dt S/2 + B) y = 2M v/dt - S u; then u += dt y, v = 2y - v.
    """
    from scipy.linalg import solve_banded

    x = state.mesh.nodes
    n = x.size
    mass = np.zeros(n)
    stiff = np.zeros((3, n))  # rows: super-diagonal, diagonal, sub-diagonal
    for i in range(n - 1):
        h = x[i + 1] - x[i]
        mass[i] += h / 2.0
        mass[i + 1] += h / 2.0
        stiff[1, i] += 1.0 / h
        stiff[1, i + 1] += 1.0 / h
        stiff[0, i + 1] -= 1.0 / h
        stiff[2, i] -= 1.0 / h
    inner = slice(1, n - 1)
    mass, stiff = mass[inner], stiff[:, inner]
    step_matrix = dt / 2.0 * stiff
    step_matrix[1] += 2.0 * mass / dt
    if damped:
        step_matrix[1, state.mesh.i_xi - 1] += 1.0
    u, v = state.u[inner].copy(), state.v[inner].copy()
    for _ in range(n_steps):
        s_u = stiff[1] * u
        s_u[:-1] += stiff[0, 1:] * u[1:]
        s_u[1:] += stiff[2, :-1] * u[:-1]
        y = solve_banded((1, 1), step_matrix, 2.0 * mass * v / dt - s_u)
        u = u + dt * y
        v = 2.0 * y - v
    return u, v


def _banded_case(cells, damped, sample_every):
    # the 40/30 mesh keeps its plain ids at sample_every 1
    if cells != (40, 30):
        name = f"{cells[0]}x{cells[1]}-{damped}"
    else:
        name = str(damped) if sample_every == 1 else f"{damped}-every{sample_every}"
    return pytest.param(cells, damped, sample_every, id=name)


@pytest.mark.parametrize("cells, damped, sample_every", [
    # (2, n) leaves one interior node, hence one sine mode, on the left.  The
    # 215 steps run in blocks of 64: sampling every 7, 64, 65 or 1000 steps
    # puts samples inside blocks, on block ends, or on the last step only
    _banded_case(cells, damped, every)
    for cells, every in [((40, 30), 1), ((2, 2), 1), ((2, 7), 1)]
    + [((40, 30), every) for every in (7, 64, 65, 1000)]
    for damped in [True, False]
])
def test_simulate_matches_banded_oracle(cells, damped, sample_every):
    mesh = build_mesh(GOLDEN, *cells)
    state = initial_data(mesh, "smooth_bump", center=0.55, width=0.3)
    final, trace = simulate(state, 1.5, dt=7e-3, damped=damped, sample_every=sample_every)
    u, v = _banded_midpoint_march(state, trace.damping_power.size, trace.dt, damped)
    assert trace.damping_power.size == 215
    np.testing.assert_allclose(final.u[1:-1], u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(final.v[1:-1], v, rtol=0, atol=1e-12)
    # samples fall every sample_every steps and on the last one, with the
    # energies of an every-step run at those steps
    expected = list(range(0, 216, sample_every)) + ([215] if 215 % sample_every else [])
    np.testing.assert_array_equal(trace.sample_steps, expected)
    _, dense = simulate(state, 1.5, dt=7e-3, damped=damped)
    np.testing.assert_allclose(
        trace.energies, dense.energies[expected], rtol=0, atol=1e-14 * dense.energies[0]
    )
    # sampled energies are read from the stepper's own coordinates
    assert abs(trace.energies[-1] - energy(final)) <= 1e-14 * trace.energies[0]
