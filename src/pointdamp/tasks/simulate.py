"""The simulate task: one energy-exact run of the damped string, and its decay fits.

Computes with pointdamp.simulator, pointdamp.decayfit and numpy, imported
after its configuration checks.
"""

from __future__ import annotations

import math

from ..cli import (
    MAX_CELLS, MAX_SIM_STEPS, ConfigError, Position, all_of, at_least, at_most,
    finite_nonnegative, one_of, positive,
)

SCHEMA = {
    "cells": (1000, all_of(at_least(2), at_most(MAX_CELLS))),
    "t_final": (200.0, positive),
    "dt": (0.0, finite_nonnegative),  # 0 means the default, min spacing / 2
    "sample_every": (100, at_least(1)),
    "damped": (True, None),
    "initial": ("smooth_bump", one_of("smooth_bump", "fourier_mode")),
    "mode": (2, at_least(1)),
    "center": (math.nan, None),  # NaN means the damped point
    "width": (0.1, positive),
    "fit": (True, None),
    "save_state": (True, None),
}
# lighter than the defaults, so a default sweep finishes at desk scale, from the
# widest bump that stays inside [0, 1] at every default grid point
SWEEP_DEFAULTS = {"cells": "300", "t_final": "50", "dt": "0.002", "save_state": "false",
                  "fit": "false", "width": "0.05"}
USES_NUMPY = True


def _holds_a_node(xi: float, cells: int, center: float, width: float) -> bool:
    """Whether the bump's open support holds an interior node of the run's mesh.

    The interior nodes are j * (xi / cells) and xi + j * ((1 - xi) / cells)
    for 0 < j < cells, and xi (the rule in Mesh's docstring); initial_data
    puts a nonzero value at a node x exactly when abs((x - center) / width)
    < 1.  On each side only the nodes next to the centre are tried.
    """
    if abs((xi - center) / width) < 1.0:
        return True
    for origin, h in ((0.0, xi / cells), (xi, (1.0 - xi) / cells)):
        near = round(min(max((center - origin) / h, 1.0), cells - 1.0))
        for j in range(max(near - 1, 1), min(near + 1, cells - 1) + 1):
            if abs((origin + j * h - center) / width) < 1.0:
                return True
    return False


def check(cfg: dict, xi: Position) -> float:
    """The time step, refused when the run would take over MAX_SIM_STEPS steps.

    A smooth bump that reaches past 0 or 1, where the clamped end would cut
    it, or whose support holds no interior mesh node, which would start the
    run from zero data, is refused too.
    """
    center, width = cfg["center"], cfg["width"]
    if cfg["initial"] == "smooth_bump":
        c = xi.value if math.isnan(center) else center
        if c - width < 0.0 or c + width > 1.0:
            fits = f"the widest that fits is {min(c, 1.0 - c)!r}" if 0 < c < 1 else "none fits"
            raise ConfigError(f"width={width!r} carries the smooth bump at center={c!r} past"
                              f" the end x={0 if c < width else 1}; {fits}")
        if not math.isnan(center) and not _holds_a_node(xi.value, cfg["cells"], center, width):
            raise ConfigError(
                f"center and width put the bump's support ({center - width:g}, {center + width:g})"
                f" on no interior node of the {cfg['cells']}-cell sides, so the run would start"
                " from zero data"
            )
    # dt = 0 means half the smaller mesh spacing
    dt = cfg["dt"] or min(xi.value, 1.0 - xi.value) / cfg["cells"] / 2.0
    if cfg["t_final"] / dt > MAX_SIM_STEPS:
        raise ConfigError(f"t_final / dt would exceed {MAX_SIM_STEPS} steps")
    return dt


def run(cfg: dict, xi: Position, plan: float):
    """Returns (final state, energy trace, fits), stepping at check's time step.

    fits is None when fitting is off, and the InsufficientData raised when the
    trace has too few usable samples.
    """
    from .. import decayfit, simulator
    from ..mesh import build_mesh

    mesh = build_mesh(xi.value, cfg["cells"], cfg["cells"])
    center = None if math.isnan(cfg["center"]) else cfg["center"]
    state = simulator.initial_data(
        mesh, cfg["initial"], mode=cfg["mode"], center=center, width=cfg["width"]
    )
    final, trace = simulator.simulate(
        state, cfg["t_final"], dt=plan, damped=cfg["damped"], sample_every=cfg["sample_every"]
    )
    fits = None
    if cfg["fit"]:
        try:
            fits = decayfit.model_select(trace)
        except decayfit.InsufficientData as exc:
            fits = exc
    return final, trace, fits


def files(cfg: dict, result) -> tuple:
    from .. import decayfit

    final, trace, fits = result
    tables = [
        ("energy_trace.csv", "energy-trace", ["t", "energy", "dissipated"],
         zip(trace.times, trace.energies, trace.dissipated_at_samples()), 1),
        # one row per step k, at its midpoint t = (k + 1/2) dt with the report's dt
        ("damping_record.csv", "damping-record", ["power"], zip(trace.damping_power), 2),
    ]
    # one row per mesh node, in node order: build_mesh(result.xi, cells, cells) gives
    # the nodes bit for bit, by the rule in the Mesh docstring
    if cfg["save_state"]:
        tables.append(("final_state.csv", "state-snapshot", ["u", "v"], zip(final.u, final.v), 2))

    report = {
        "dt": trace.dt,
        "n_steps": int(trace.damping_power.size),
        "xi": final.mesh.xi,
        **row(result),
    }
    if isinstance(fits, decayfit.InsufficientData):
        report["fits"] = None
        report["fit_note"] = str(fits)
    elif fits is not None:
        report["fits"] = [vars(f) for f in fits]
    return "simulate_report.json", report, tables


def row(result) -> dict:
    from .. import simulator

    trace = result[1]
    e0 = float(trace.energies[0])
    return {
        "energy_initial": e0,
        "energy_final": float(trace.energies[-1]),
        "energy_ratio": float(trace.energies[-1] / e0) if e0 > 0 else math.nan,
        "dissipation_residual": simulator.dissipation_residual(trace),
    }
