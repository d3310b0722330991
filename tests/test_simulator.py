import math

import numpy as np
import pytest

from oracles import midpoint_march_long_double
from pointdamp import simulator
from pointdamp.diophantine import GOLDEN_RATIO_CONJUGATE
from pointdamp.mesh import build_mesh
from pointdamp.simulator import WaveState, dissipation_residual, energy, initial_data, simulate

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


def test_smooth_bump_past_an_end_is_refused():
    # the clamped ends would cut it; one that reaches an end exactly fits
    mesh = build_mesh(0.05, 20, 20)
    for center, width in ((None, 0.1), (0.95, 0.1), (0.5, 0.6)):
        with pytest.raises(ValueError, match="past an end"):
            initial_data(mesh, "smooth_bump", center=center, width=width)
    u = initial_data(mesh, "smooth_bump", width=0.05).u
    assert u[0] == 0.0 and u[1] > 0.0


@pytest.mark.parametrize("width", [math.nan, 0.0, -0.1])
def test_smooth_bump_of_no_positive_width_is_refused(width):
    # unrefused, nan builds zero data, 0 zero data with two warnings and -0.1 a 0.1 bump
    with pytest.raises(ValueError, match="width > 0"):
        initial_data(build_mesh(0.5, 16, 16), "smooth_bump", width=width)


def test_initial_data_validation():
    mesh = build_mesh(0.5, 16, 16)
    with pytest.raises(ValueError):
        initial_data(mesh, "fourier_mode", mode=0)
    with pytest.raises(ValueError):
        initial_data(mesh, "something_else")
    with pytest.raises(ValueError):
        initial_data(mesh, "custom")  # other data is a WaveState of its own


# ----------------------------------------------------------------- energy


def test_energy_zero_state():
    mesh = build_mesh(0.5, 32, 32)
    state = WaveState(mesh, 0.0, np.zeros_like(mesh.nodes), np.zeros_like(mesh.nodes))
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
    state = WaveState(mesh, 0.0, np.zeros_like(mesh.nodes), np.zeros_like(mesh.nodes))
    out, _ = simulate(state, 0.01, dt=0.01)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)
    assert out.t == pytest.approx(0.01)


def test_simulate_zero_span_returns_single_sample():
    mesh = build_mesh(GOLDEN, 64, 64)
    state = initial_data(mesh, "smooth_bump")
    final, trace = simulate(state, 0.0, dt=0.01)
    assert trace.times.shape == (1,)
    assert trace.energies[0] == pytest.approx(energy(state))
    assert trace.damping_power.size == 0
    np.testing.assert_array_equal(final.u, state.u)


def test_simulate_validates_inputs():
    mesh = build_mesh(GOLDEN, 64, 64)
    state = initial_data(mesh, "smooth_bump")
    with pytest.raises(ValueError):
        simulate(state, -1.0, dt=0.1)
    with pytest.raises(TypeError):
        simulate(state, 1.0)  # dt has no default
    with pytest.raises(ValueError):
        simulate(state, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        simulate(state, 1.0, dt=0.1, sample_every=0)


@pytest.mark.parametrize("array, index", [("u", 0), ("u", -1), ("v", 0), ("v", -1)])
def test_simulate_refuses_data_off_zero_at_an_end(array, index):
    # energy() counts the ends, which the clamped step would drop unrecorded
    mesh = build_mesh(GOLDEN, 50, 50)
    state = initial_data(mesh, "smooth_bump")
    getattr(state, array)[index] = 0.1
    with pytest.raises(ValueError, match="both ends"):
        simulate(state, 1.0, dt=0.01)


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


def _banded_case(cells, damped, sample_every, table_steps=None):
    # the 40/30 mesh keeps its plain ids at sample_every 1
    if table_steps is not None:
        name = f"table{table_steps}-{damped}"
    elif cells != (40, 30):
        name = f"{cells[0]}x{cells[1]}-{damped}"
    else:
        name = str(damped) if sample_every == 1 else f"{damped}-every{sample_every}"
    return pytest.param(cells, damped, sample_every, table_steps, id=name)


@pytest.mark.parametrize("cells, damped, sample_every, table_steps", [
    # (2, n) leaves one interior node, hence one sine mode, on the left.  The
    # 215 steps run in blocks of 64: sampling every 7, 64, 65 or 1000 steps
    # puts samples inside blocks, on block ends, or on the last step only.
    # With table_steps, the table of powers is sized for that many steps of
    # the mesh's modes, so the table, not _BLOCK_STEPS, sets the block length
    # (as on meshes of over 1,024 modes, where the float64 oracle itself
    # drifts by ~2e-12 in v within 10 steps)
    _banded_case(cells, damped, every, table_steps)
    for cells, every, table_steps in [((40, 30), 1, None), ((2, 2), 1, None),
                                      ((2, 7), 1, None), ((40, 30), 7, 23)]
    + [((40, 30), every, None) for every in (7, 64, 65, 1000)]
    for damped in [True, False]
])
def test_simulate_matches_banded_oracle(cells, damped, sample_every, table_steps, monkeypatch):
    if table_steps is not None:
        modes = cells[0] + cells[1] - 2
        monkeypatch.setattr(simulator, "_TABLE_BYTES", 16 * modes * table_steps)
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


@pytest.mark.parametrize("damped", [True, False])
def test_table_limited_stepper_matches_long_double_march(damped):
    # 514 cells a side give 1,026 sine modes, of which the table holds 63
    # steps, fewer than _BLOCK_STEPS: the 215 steps run in blocks of 63, 63,
    # 63 and 26.  The float64 banded march drifts from the scheme by more
    # than 1e-12 in v on such a mesh, so the reference is the same scheme
    # marched in long double, whose own rounding is ~2,000 times smaller.
    #
    # Tolerance, argued from the 40/30 test above.  There v is held to
    # 1e-12 with smallest cell h_ref = (1 - xi)/30.  The stepper and the
    # march differ by the stepper's rounding alone: a relative eps in a
    # mode's amplitude, which shows in u as eps |u| and, since v = u_t, in v
    # as up to w eps |u| for a mode of frequency w.  The lumped P1
    # Laplacian's top frequency is w_max = 2/h_min, so the bound in u holds
    # on any mesh and the bound in v grows like 1/h_min:
    # atol_v = 1e-12 * h_ref / h_min, here 1e-12 * 514/30 = 1.7e-11.
    cells = (514, 514)
    modes = cells[0] + cells[1] - 2
    assert modes >= 1024
    assert simulator._TABLE_BYTES // (16 * modes) == 63 < simulator._BLOCK_STEPS
    mesh = build_mesh(GOLDEN, *cells)
    state = initial_data(mesh, "smooth_bump", center=0.55, width=0.3)
    final, trace = simulate(state, 1.5, dt=7e-3, damped=damped)
    assert trace.damping_power.size == 215
    u, v = midpoint_march_long_double(mesh.nodes, mesh.i_xi, state.u, state.v, 215, trace.dt,
                                      damped)
    h_ref = (1.0 - GOLDEN) / 30
    h_min = float(np.min(np.diff(mesh.nodes)))
    np.testing.assert_allclose(final.u[1:-1], u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(final.v[1:-1], v, rtol=0, atol=1e-12 * h_ref / h_min)


# 700 cells a side give 1,398 sine modes, more than a table of _BLOCK_STEPS
# powers holds within _TABLE_BYTES: the table sets the block length there
TABLE_LIMITED = (700, 700)


@pytest.mark.parametrize("cells", [(40, 30), TABLE_LIMITED], ids=["40x30", "table-limited"])
def test_final_state_ignores_sample_every(cells):
    # samples never move the carry of the modes: the final state and the
    # damping record are the same bit for bit wherever the samples fall
    modes = cells[0] + cells[1] - 2
    table_steps = simulator._TABLE_BYTES // (16 * modes)
    assert (table_steps < simulator._BLOCK_STEPS) == (cells == TABLE_LIMITED)
    mesh = build_mesh(GOLDEN, *cells)
    state = initial_data(mesh, "smooth_bump", center=0.55, width=0.3)
    runs = [simulate(state, 1.5, dt=7e-3, sample_every=every) for every in (1, 7, 64, 65, 1000)]
    final, trace = runs[0]
    assert trace.damping_power.size == 215
    for other, other_trace in runs[1:]:
        np.testing.assert_array_equal(other.u, final.u)
        np.testing.assert_array_equal(other.v, final.v)
        np.testing.assert_array_equal(other_trace.damping_power, trace.damping_power)
