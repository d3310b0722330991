"""The classify task: the continued fraction of xi and its resonance conditions.

Computes with the arithmetic layer alone (pointdamp.diophantine), which it
imports after its configuration checks; no numpy.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

# write_csv and write_json_report are looked up on cli at each call, so a
# replacement there sees every file the task writes
from .. import cli
from ..cli import MAX_GRID_POINTS, ConfigError, _parse_xi, _report_skeleton


def _condition_dict(report: diophantine.ConditionReport) -> dict:
    return {
        "condition_id": report.condition_id,
        "xi": report.xi,
        "verdict": report.verdict,
        "witness": report.witness,
        "fitted_constants": report.fitted_constants,
        "note": report.note,
    }


def _growth_from_text(text: str) -> diophantine.GrowthFunction:
    from .. import diophantine

    name, _, params = text.partition(":")
    name = name.strip().lower()
    if name == "identity":
        return diophantine.GrowthFunction.identity()
    if name == "power_log":
        try:
            alpha, eps = (float(p) for p in params.split(","))
        except ValueError:
            raise ConfigError("power_log needs parameters alpha,eps") from None
        return _growth(diophantine.GrowthFunction.power_log, alpha, eps)
    if name == "exponential":
        try:
            beta = float(params)
        except ValueError:
            raise ConfigError("exponential needs a parameter beta") from None
        return _growth(diophantine.GrowthFunction.exponential, beta)
    raise ConfigError(f"unknown growth function {text!r}")


def _growth(make: Callable, *params: float) -> diophantine.GrowthFunction:
    """make(*params), a parameter that would make phi decrease being a configuration error."""
    try:
        return make(*params)
    except ValueError as exc:
        raise ConfigError(f"liouville_phi: {exc}") from None


def _check_classify(cfg: dict, xi: float) -> diophantine.GrowthFunction:
    """The Liouville weight phi, once the mu range is known to be admissible."""
    if not cfg["mu_min"] <= cfg["mu_max"]:
        raise ConfigError("need mu_min <= mu_max")
    # one pi-strip per pi of the range, plus a part-strip at each end
    if (cfg["mu_max"] - cfg["mu_min"]) / math.pi + 2 > MAX_GRID_POINTS:
        raise ConfigError(f"the mu range would span over {MAX_GRID_POINTS} pi-strips")
    return _growth_from_text(cfg["liouville_phi"])


def run_classify(cfg: dict):
    """Returns (classification, cos-grid report, Liouville report, exact xi or None)."""
    value, exact = _parse_xi(cfg["xi"])
    phi = _check_classify(cfg, value)
    from .. import diophantine

    settings = diophantine.ClassifySettings(
        **{k: cfg[k] for k in diophantine.ClassifySettings.__dataclass_fields__}
    )
    keep = cfg["keep_trace"]
    classification = diophantine.classify_actuator(
        exact if exact is not None else value, settings, keep
    )
    cos_rep = diophantine.check_cos_grid(
        value, cfg["mu_min"], cfg["mu_max"], cfg["k1"], cfg["trend_factor"], keep
    )
    liou_rep = diophantine.check_liouville_type(
        value, phi, cfg["liouville_kappa"], cfg["liouville_m_max"], keep
    )
    return classification, cos_rep, liou_rep, exact


def write_classify(cfg: dict, result) -> list[Path]:
    classification, cos_rep, liou_rep, exact = result
    out = Path(cfg["out"])
    cf = classification.continued_fraction
    grid_reps = {"exp": classification.exp_grid, "poly": classification.poly_grid, "cos": cos_rep}
    payload = _report_skeleton("classify", cfg)
    payload["result"] = {
        "xi": classification.xi,
        "exact_form": exact,
        "is_rational": classification.is_rational,
        "strongly_stable": classification.strongly_stable,
        "constant_type": classification.constant_type,
        "max_partial_quotient": classification.max_partial_quotient,
        "partial_quotients": cf.partial_quotients,
        "convergents": [[p, q] for p, q in cf.convergents],
        "truncated_by_precision": cf.truncated_by_precision,
        "conditions": {
            **{f"{name}_grid": _condition_dict(rep) for name, rep in grid_reps.items()},
            "liouville": _condition_dict(liou_rep),
        },
    }
    paths = [out / "classify_report.json"]
    cli.write_json_report(paths[0], payload)
    if cfg["keep_trace"]:
        for name, rep in grid_reps.items():
            p = out / f"classify_trace_{name}.csv"
            cli.write_csv(
                p, "classify-trace", ["mu", "expression", "weighted_expression"], rep.trace
            )
            paths.append(p)
        p = out / "classify_trace_liouville.csv"
        cli.write_csv(p, "liouville-trace", ["m", "product"], liou_rep.trace)
        paths.append(p)
    return paths


def _classify_row(result) -> dict:
    cls = result[0]
    return {
        "is_rational": cls.is_rational,
        "constant_type": cls.constant_type,
        "max_partial_quotient": cls.max_partial_quotient,
        "exp_grid_verdict": cls.exp_grid.verdict,
        "poly_grid_verdict": cls.poly_grid.verdict,
    }
