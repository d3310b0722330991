"""The carleman-verify task: identity checks and the Carleman constant per side.

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
    # the dual route's coarsest grid has cells // 4 cells, and its
    # one-sided second-derivative stencil needs at least 3 of them
    "cells": (2048, all_of(at_least(12), at_most(MAX_CELLS))),
    "n_modes": (8, at_least(1)),
    "h_min": (1e-3, finite_positive),
    "h_max": (1e-1, finite_positive),
    "h_count": (13, at_least(1)),
    "check_h": (0.05, finite_positive),
}
SWEEP_DEFAULTS = {"cells": "1024"}
USES_NUMPY = True


def check(cfg: dict, xi: Position) -> float | None:
    """beta of a weight=exp:<beta> config, None for the default weights."""
    if not cfg["h_min"] <= cfg["h_max"]:
        raise ConfigError("need h_min <= h_max")
    # the dual route's basis on its grid, each side's forms of every h, and the
    # rows on the most Gauss nodes: n_modes + 3 doubled carleman._NODE_DOUBLINGS times
    _check_sizes({
        "n_modes * (cells + 1)": cfg["n_modes"] * (cfg["cells"] + 1),
        "h_count * n_modes**2": cfg["h_count"] * cfg["n_modes"] ** 2,
        "n_modes * (n_modes + 3) * 2**6": cfg["n_modes"] * (cfg["n_modes"] + 3) * 2**6,
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


def identity_check_coefficients(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The two fixed test functions of the identity checks, as coefficients.

    Mode k of w is exp(i theta k^2) / k and of v exp(2 i theta k^2) / k, with
    theta = pi (3 - sqrt(5)) the golden angle: the 1/k decay of the random
    family in tests/oracles.py, and every mode complex and non-zero, since
    theta k^2 is never a multiple of pi, so Im(w conj(w')) at the free ends,
    which tells the square expansion's two boundary readings apart, is not
    zero.  On the Legendre modes at the defaults the plain reading's
    residual is 6.0e-5 to 2.2e-4 at golden, sqrt(2) - 1 and 1/2, and the
    curvature one's is rounding, at most 2.0e-15.
    """
    import numpy as np

    k = np.arange(1, n_modes + 1)
    phase = math.pi * (3.0 - math.sqrt(5.0)) * k**2
    return np.exp(1j * phase) / k, np.exp(2j * phase) / k


def _verify_carleman_side(
    cfg: dict, side: str, weight: carleman.WeightFunction
) -> tuple[dict, carleman.ConstantEstimate]:
    """Returns (the identity checks, the constant estimate) for one side."""
    import numpy as np

    from .. import carleman

    admissible = carleman.validate_weight(weight, side)
    if not admissible.ok:
        raise ValueError(f"{side} weight inadmissible: {'; '.join(admissible.violations)}")
    cells, h_ref = cfg["cells"], cfg["check_h"]
    w_coefficients, v_coefficients = identity_check_coefficients(cfg["n_modes"])

    # dual-route convergence over 3 refinements of the grid, sampling the modes
    # as carleman.sample_basis' cosines
    route_errors = []
    for n in (cells // 4, cells // 2, cells):
        x = weight.grid(n)
        w = w_coefficients @ carleman.sample_basis((weight.a, weight.b), n, cfg["n_modes"])
        try:
            route = carleman.conjugation_route(weight, h_ref, w, x)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"{exc}. The dual route's grid of {n} cells cannot hold exp(+-phi/h) across "
                f"one stencil at check_h = {h_ref:g}: a larger check_h or cells lifts the limit"
            ) from None
        diff = route - carleman.apply_conjugated_operator(weight, h_ref, w, x)
        route_errors.append(float(np.max(np.abs(diff))))
    orders = [
        math.log2(route_errors[i] / route_errors[i + 1]) for i in range(len(route_errors) - 1)
    ]

    h_grid = np.geomspace(cfg["h_min"], cfg["h_max"], cfg["h_count"])
    estimate = carleman.estimate_carleman_constant(weight, cfg["n_modes"], h_grid, side)
    # the other identities on the Legendre series, on the constant's nodes
    ibp = carleman.ibp_residuals(weight, h_ref, v_coefficients, w_coefficients, estimate.nodes)
    curvature, plain = carleman.square_expansion_residual(
        weight, h_ref, w_coefficients, estimate.nodes)

    checks = {
        "weight": weight.kind,
        "interval": [weight.a, weight.b],
        "dual_route_errors": route_errors,
        "dual_route_orders": orders,
        "gauss_nodes": estimate.nodes,
        "ibp_residuals": list(ibp),
        "square_identity_residual_curvature": curvature.relative_residual,
        "square_identity_residual_plain": plain.relative_residual,
    }
    return checks, estimate


def run(
    cfg: dict, xi: Position, plan: float | None
) -> dict[str, tuple[dict, carleman.ConstantEstimate]]:
    """Returns side -> (identity checks, constant estimate), weighted by check's beta."""
    return {
        side: _verify_carleman_side(cfg, side, weight)
        for side, weight in _carleman_weights(cfg, xi.value, plan).items()
    }


def write(cfg: dict, sides: dict) -> list[Path]:
    payload = _report_skeleton("carleman-verify", cfg, USES_NUMPY)
    payload["result"] = {}
    rows: list[tuple] = []
    for side, (checks, estimate) in sides.items():
        per_h = zip(estimate.h, estimate.sup_ratio, estimate.sup_ratio_half_modes,
                    estimate.outer_share)
        payload["result"][side] = dict(
            checks,
            c_hat=estimate.c_hat,
            c_hat_half_modes=float(estimate.sup_ratio_half_modes.max()),
        )
        rows.extend((side, *values) for values in per_h)
    out = Path(cfg["out"])
    csv_path = out / "carleman_sweep.csv"
    columns = ["side", "h", "sup_ratio", "sup_ratio_half_modes", "outer_share"]
    cli.write_csv(csv_path, "carleman-sweep", columns, rows, version=3)
    json_path = out / "carleman_report.json"
    cli.write_json_report(json_path, payload)
    return [csv_path, json_path]


def row(sides: dict) -> dict:
    return {f"c_hat_{side}": estimate.c_hat for side, (_, estimate) in sides.items()}
