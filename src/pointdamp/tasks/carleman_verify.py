"""The carleman-verify task: identity checks and the sampled Carleman constant per side.

Computes with pointdamp.carleman and numpy, imported after its configuration
checks.
"""

from __future__ import annotations

import math
from pathlib import Path

from .. import cli  # cli.write_csv and cli.write_json_report are looked up at each call
from ..cli import (
    MAX_CELLS, ConfigError, Position, _check_sizes, _report_skeleton, all_of, at_least,
    at_most, finite_positive, one_of,
)

SCHEMA = {
    "side": ("both", one_of("both", "left", "right")),
    "weight": ("default", None),
    # the coarsest identity-check grid has cells // 4 cells, and its
    # one-sided second-derivative stencil needs at least 3 of them
    "cells": (2048, all_of(at_least(12), at_most(MAX_CELLS))),
    "n_samples": (50, at_least(1)),
    "n_modes": (8, at_least(1)),
    "h_min": (1e-3, finite_positive),
    "h_max": (1e-1, finite_positive),
    "h_count": (13, at_least(1)),
    "check_h": (0.05, finite_positive),
}
SWEEP_DEFAULTS = {"cells": "1024", "n_samples": "10"}
USES_NUMPY = True


def check(cfg: dict, xi: Position) -> float | None:
    """beta of a weight=exp:<beta> config, None for the default weights."""
    # the basis on the grid, the forms of every h once paired into real
    # 2m x 2m blocks, and the (n_samples, h_count) results and CSV rows
    _check_sizes({
        "n_modes * (cells + 1)": cfg["n_modes"] * (cfg["cells"] + 1),
        "h_count * (2 * n_modes)**2": cfg["h_count"] * (2 * cfg["n_modes"]) ** 2,
        "n_samples * h_count": cfg["n_samples"] * cfg["h_count"],
    })
    choice = cfg["weight"]
    if choice == "default":
        return None
    if not choice.startswith("exp:"):
        raise ConfigError(f"unknown weight {choice!r}")
    try:
        beta = float(choice.partition(":")[2])
    except ValueError:
        raise ConfigError("weight exp:<beta> needs a numeric beta") from None
    if not math.isfinite(beta):
        raise ConfigError(f"weight exp:<beta> needs a finite beta, got {choice!r}")
    return beta


def _carleman_weights(
    cfg: dict, xi: float, beta: float | None
) -> dict[str, carleman.WeightFunction]:
    from .. import carleman

    sides = ("left", "right") if cfg["side"] == "both" else (cfg["side"],)
    weights = {}
    for side in sides:
        interval = (0.0, xi) if side == "left" else (xi, 1.0)
        if beta is None:
            weights[side] = (
                carleman.default_left_weight(xi)
                if side == "left"
                else carleman.default_right_weight(xi)
            )
        else:
            signed = beta if side == "left" else -beta
            weights[side] = carleman.WeightFunction.exponential(signed, interval)
    return weights


def _verify_carleman_side(
    cfg: dict, side: str, weight: carleman.WeightFunction
) -> tuple[dict, carleman.ConstantEstimate]:
    """Returns (the identity checks, the constant estimate) for one side."""
    import numpy as np

    from .. import carleman

    admissible = carleman.validate_weight(weight, side)
    if not admissible.ok:
        raise ValueError(f"{side} weight inadmissible: {'; '.join(admissible.violations)}")
    interval = (weight.a, weight.b)
    cells = cfg["cells"]
    h_ref = cfg["check_h"]

    # dual-route convergence over 3 refinements
    route_errors = []
    for n in (cells // 4, cells // 2, cells):
        x = weight.grid(n)
        rng = np.random.default_rng([cfg["seed"], 7])
        w = carleman.random_test_function(interval, n, rng, cfg["n_modes"])
        diff = carleman.conjugation_route(weight, h_ref, w, x) - carleman.apply_conjugated_operator(
            weight, h_ref, w, x
        )
        route_errors.append(float(np.max(np.abs(diff))))
    orders = [
        math.log2(route_errors[i] / route_errors[i + 1]) for i in range(len(route_errors) - 1)
    ]

    x = weight.grid(cells)
    rng = np.random.default_rng([cfg["seed"], 11])
    w = carleman.random_test_function(interval, cells, rng, cfg["n_modes"])
    v = carleman.random_test_function(interval, cells, rng, cfg["n_modes"])
    ibp1, ibp2 = carleman.ibp_residuals(weight, h_ref, v, w, x)
    sq_curv = carleman.square_expansion_residual(weight, h_ref, w, x, "curvature")
    sq_plain = carleman.square_expansion_residual(weight, h_ref, w, x, "plain")

    h_grid = np.geomspace(cfg["h_min"], cfg["h_max"], cfg["h_count"])
    basis = carleman.sample_basis(
        interval, cells, cfg["n_modes"], pin_left=(side == "left"), pin_right=(side == "right")
    )
    coefficients = np.array([
        carleman.random_coefficients(
            np.random.default_rng([cfg["seed"], 0 if side == "left" else 1, i]), cfg["n_modes"]
        )
        for i in range(cfg["n_samples"])
    ])
    estimate = carleman.estimate_carleman_constant(weight, coefficients, basis, h_grid, side)

    checks = {
        "weight": weight.kind,
        "interval": [weight.a, weight.b],
        "dual_route_errors": route_errors,
        "dual_route_orders": orders,
        "ibp_residuals": [ibp1, ibp2],
        "square_identity_residual_curvature": sq_curv.relative_residual,
        "square_identity_residual_plain": sq_plain.relative_residual,
    }
    return checks, estimate


def run(cfg: dict, xi: Position) -> dict[str, tuple[dict, carleman.ConstantEstimate]]:
    """Returns side -> (identity checks, constant estimate)."""
    beta = check(cfg, xi)
    return {
        side: _verify_carleman_side(cfg, side, weight)
        for side, weight in _carleman_weights(cfg, xi.value, beta).items()
    }


def write(cfg: dict, sides: dict) -> list[Path]:
    payload = _report_skeleton("carleman-verify", cfg, USES_NUMPY)
    payload["result"] = {}
    rows: list[tuple] = []
    for side, (checks, estimate) in sides.items():
        payload["result"][side] = dict(
            checks,
            c_hat=estimate.c_hat,
            h0_hat=estimate.h0_hat,
            sup_ratio_by_h={
                f"{h:.6g}": float(r) for h, r in zip(estimate.h, estimate.sup_ratio)
            },
        )
        sweep = estimate.sweep
        for i, sample in enumerate(zip(sweep.lhs, sweep.rhs, sweep.ratio)):
            for h, lhs, rhs, ratio in zip(sweep.h, *sample):
                rows.append((side, i, h, lhs, rhs, ratio))
    out = Path(cfg["out"])
    csv_path = out / "carleman_sweep.csv"
    cli.write_csv(csv_path, "carleman-sweep", ["side", "sample", "h", "lhs", "rhs", "ratio"], rows)
    json_path = out / "carleman_report.json"
    cli.write_json_report(json_path, payload)
    return [csv_path, json_path]


def row(sides: dict) -> dict:
    summary: dict = {}
    for side, (_, estimate) in sides.items():
        summary[f"c_hat_{side}"] = estimate.c_hat
        summary[f"h0_hat_{side}"] = estimate.h0_hat
    return summary
