"""The carleman-verify task: identity checks and the Carleman constant per side.

Computes with pointdamp.carleman and numpy, imported after its configuration
checks.
"""

from __future__ import annotations

import math

from ..cli import (
    MAX_CELLS, ConfigError, Position, _check_sizes, at_least, finite_positive, one_of,
)

SCHEMA = {
    "side": ("both", one_of("both", "left", "right")),
    "weight": ("default", None),
    "n_modes": (8, at_least(1)),
    "h_min": (1e-3, finite_positive),
    "h_max": (1e-1, finite_positive),
    "h_count": (13, at_least(1)),
    "check_h": (0.05, finite_positive),
}
SWEEP_DEFAULTS: dict[str, str] = {}
USES_NUMPY = True
_ROUTE_MODES = 8  # the dual route's test function has these modes at every n_modes


def check(cfg: dict, xi: Position) -> float | None:
    """beta of a weight=exp:<beta> config, None for the default weights."""
    if not cfg["h_min"] <= cfg["h_max"]:
        raise ConfigError("need h_min <= h_max")
    # each side's forms of every h, and the rows on the most Gauss nodes:
    # n_modes + 3 doubled carleman._NODE_DOUBLINGS times (run sizes the dual route)
    _check_sizes({
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
) -> dict[str, tuple[carleman.WeightFunction, int]]:
    """side -> (its admissible weight, its dual route's cells), every side before any runs."""
    from .. import carleman

    sides = ("left", "right") if cfg["side"] == "both" else (cfg["side"],)
    weights = {}
    for side in sides:
        if beta is None:
            weight = (carleman.default_left_weight if side == "left"
                      else carleman.default_right_weight)(xi)
        else:
            interval = (0.0, xi) if side == "left" else (xi, 1.0)
            weight = carleman.WeightFunction.exponential(
                beta if side == "left" else -beta, interval)
        admissible = carleman.validate_weight(weight, side)
        if not admissible.ok:
            raise ValueError(f"{side} weight inadmissible: {'; '.join(admissible.violations)}")
        weights[side] = weight, _dual_route_cells(cfg, side, weight)
    return weights


def _dual_route_cells(cfg: dict, side: str, weight: carleman.WeightFunction) -> int:
    """The fewest cells n with dx * max(max|phi'| / check_h, the route modes' top
    frequency) <= 0.08, phi' largest at an end since phi'' > 0: 4n against 2n then reads
    second order.  The dual route runs n, 2n and 4n; a 4n past MAX_CELLS is refused."""
    slope = max(abs(float(weight.d1(end))) for end in (weight.a, weight.b)) / cfg["check_h"]
    top = (_ROUTE_MODES + 0.37) * math.pi / (weight.b - weight.a)
    coarse = (weight.b - weight.a) * max(slope, top) / 0.08
    cells = math.ceil(min(coarse, MAX_CELLS))
    if 4 * cells > MAX_CELLS:
        raise ValueError(f"the {side} dual route needs {4 * coarse:.3g} cells at check_h = "
                         f"{cfg['check_h']:g}, past {MAX_CELLS} cells: a larger check_h "
                         "lifts the limit")
    return cells


# the dual route's finest error, predicted from its coarsest, must lie this
# many times above the finest grid's rounding floor (_verify_carleman_side).
# Over default and exp:3 weights and routes of 4 to 32 modes, which cover the
# one 8-mode route run at every n_modes, every side whose orders left [1.9, 2.2]
# was predicted at most 8.5 times its floor (a 1.06e-6 long side among them),
# and every side predicted 8.8 times or more read orders in [1.9, 2.2]; the
# 1e-5 long right side at xi = 0.99999 is predicted 80 times its floor
_ROUTE_NOISE_MARGIN = 16


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
    cfg: dict, side: str, weight: carleman.WeightFunction, cells: int
) -> tuple[dict, carleman.ConstantEstimate]:
    """Returns (the identity checks, the constant estimate) for one side."""
    import numpy as np

    from .. import carleman

    h_ref = cfg["check_h"]
    w_coefficients, v_coefficients = identity_check_coefficients(cfg["n_modes"])

    # dual-route convergence over 3 refinements of the grid, on sample_basis'
    # cosines under the _ROUTE_MODES-mode w; a grid so fine that the route
    # divides by an underflowed dx**2 gives a non-finite error, refused below
    route_errors = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n in (cells, 2 * cells, 4 * cells):
            x = weight.grid(n)
            w = identity_check_coefficients(_ROUTE_MODES)[0] @ carleman.sample_basis(
                (weight.a, weight.b), n, _ROUTE_MODES)
            route = carleman.conjugation_route(weight, h_ref, w, x)
            diff = route - carleman.apply_conjugated_operator(weight, h_ref, w, x)
            route_errors.append(float(np.max(np.abs(diff))))
        # the route reads phi_j - phi_k, which cancels between values near
        # max|phi|: its rounding, amplified by h / dx**2, on the finest grid
        floor = float(np.finfo(float).eps * np.max(np.abs(weight.d0(x))) * h_ref
                      * np.max(np.abs(w)) / (x[1] - x[0]) ** 2)
    # second order predicts the coarsest error / 16 on the finest grid
    if not (all(map(math.isfinite, route_errors))
            and route_errors[0] / 16 >= _ROUTE_NOISE_MARGIN * floor):
        raise ValueError(
            f"the {side} side, {weight.b - weight.a:.3g} long, is too short for the dual "
            f"route: its finest grid's rounding, {floor:.3g}, is not {_ROUTE_NOISE_MARGIN}x "
            f"below the error {route_errors[0] / 16:.3g} that second order predicts there")
    orders = [math.log2(coarse / fine) for coarse, fine in zip(route_errors, route_errors[1:])]

    h_grid = np.geomspace(cfg["h_min"], cfg["h_max"], cfg["h_count"])
    estimate = carleman.estimate_carleman_constant(weight, cfg["n_modes"], h_grid, side)
    # the other identities on the Legendre series, on the constant's nodes
    ibp = carleman.ibp_residuals(weight, h_ref, v_coefficients, w_coefficients, estimate.nodes)
    curvature, plain = carleman.square_expansion_residual(
        weight, h_ref, w_coefficients, estimate.nodes)

    residuals = [*ibp, curvature.relative_residual, plain.relative_residual]
    if not all(map(math.isfinite, [*orders, *residuals])):
        raise ValueError(f"the {side} side's dual-route orders or identity residuals are not "
                         "finite")
    checks = {
        "weight": weight.kind,
        "interval": [weight.a, weight.b],
        "dual_route_cells": cells,
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
        side: _verify_carleman_side(cfg, side, weight, cells)
        for side, (weight, cells) in _carleman_weights(cfg, xi.value, plan).items()
    }


def files(cfg: dict, sides: dict) -> tuple:
    report = {}
    rows: list[tuple] = []
    for side, (checks, estimate) in sides.items():
        per_h = zip(estimate.h, estimate.sup_ratio, estimate.sup_ratio_half_modes,
                    estimate.outer_share)
        report[side] = dict(
            checks,
            c_hat=estimate.c_hat,
            c_hat_half_modes=float(estimate.sup_ratio_half_modes.max()),
        )
        rows.extend((side, *values) for values in per_h)
    columns = ["side", "h", "sup_ratio", "sup_ratio_half_modes", "outer_share"]
    return "carleman_report.json", report, [("carleman_sweep.csv", "carleman-sweep", columns,
                                              rows, 3)]


def row(sides: dict) -> dict:
    return {f"c_hat_{side}": estimate.c_hat for side, (_, estimate) in sides.items()}
