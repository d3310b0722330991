"""The simulate task: one energy-exact run of the damped string, and its decay fits.

Computes with pointdamp.simulator, pointdamp.decayfit and numpy, imported
after its configuration checks.
"""

from __future__ import annotations

import math
from pathlib import Path

from .. import cli  # cli.write_csv and cli.write_json_report are looked up at each call
from ..cli import (
    MAX_CELLS, MAX_SIM_STEPS, ConfigError, Position, _report_skeleton, all_of, at_least,
    at_most, finite_nonnegative, one_of, positive,
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
# lighter than the defaults, so a default sweep finishes at desk scale
SWEEP_DEFAULTS = {"cells": "300", "t_final": "50", "dt": "0.002", "save_state": "false",
                  "fit": "false"}
USES_NUMPY = True


def check(cfg: dict, xi: Position) -> float:
    """The time step, refused when the run would take over MAX_SIM_STEPS steps."""
    # dt = 0 means half the smaller mesh spacing, the simulator's default
    dt = cfg["dt"] or min(xi.value, 1.0 - xi.value) / cfg["cells"] / 2.0
    if cfg["t_final"] / dt > MAX_SIM_STEPS:
        raise ConfigError(f"t_final / dt would exceed {MAX_SIM_STEPS} steps")
    return dt


def run(cfg: dict, xi: Position):
    """Returns (final state, energy trace, fits).

    fits is None when fitting is off, and the InsufficientData raised when the
    trace has too few usable samples.
    """
    dt = check(cfg, xi)
    from .. import decayfit, simulator
    from ..mesh import build_mesh

    mesh = build_mesh(xi.value, cfg["cells"], cfg["cells"])
    center = None if math.isnan(cfg["center"]) else cfg["center"]
    state = simulator.initial_data(
        mesh, cfg["initial"], mode=cfg["mode"], center=center, width=cfg["width"]
    )
    final, trace = simulator.simulate(
        state, cfg["t_final"], dt=dt, damped=cfg["damped"], sample_every=cfg["sample_every"]
    )
    fits = None
    if cfg["fit"]:
        try:
            fits = decayfit.model_select(trace)
        except decayfit.InsufficientData as exc:
            fits = exc
    return final, trace, fits


def write(cfg: dict, result) -> list[Path]:
    from .. import decayfit

    final, trace, fits = result
    out = Path(cfg["out"])
    paths = []

    p = out / "energy_trace.csv"
    cli.write_csv(
        p,
        "energy-trace",
        ["t", "energy", "dissipated"],
        zip(trace.times, trace.energies, trace.dissipated_at_samples()),
    )
    paths.append(p)
    # one row per step k, at its midpoint t = (k + 1/2) dt with the report's dt
    p = out / "damping_record.csv"
    cli.write_csv(p, "damping-record", ["power"], zip(trace.damping_power), version=2)
    paths.append(p)
    if cfg["save_state"]:
        p = out / "final_state.csv"
        cli.write_csv(
            p, "state-snapshot", ["x", "u", "v"], zip(final.mesh.nodes, final.u, final.v)
        )
        paths.append(p)

    payload = _report_skeleton("simulate", cfg, USES_NUMPY)
    payload["result"] = {
        "dt": trace.dt,
        "n_steps": int(trace.damping_power.size),
        **row(result),
    }
    if isinstance(fits, decayfit.InsufficientData):
        payload["result"]["fits"] = None
        payload["result"]["fit_note"] = str(fits)
    elif fits is not None:
        payload["result"]["fits"] = [
            {
                "kind": f.kind,
                "parameters": f.parameters,
                "residual": f.residual,
                "valid_range": list(f.valid_range),
                "n_samples": f.n_samples,
            }
            for f in fits
        ]
    p = out / "simulate_report.json"
    cli.write_json_report(p, payload)
    paths.append(p)
    return paths


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
