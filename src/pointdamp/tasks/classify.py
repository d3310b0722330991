"""The classify task: the continued fraction of xi and its resonance conditions.

Computes with the arithmetic layer alone (pointdamp.diophantine), which it
imports after its configuration checks; no numpy.
"""

from __future__ import annotations

import math

from ..cli import (
    MAX_GRID_POINTS, ConfigError, Position, all_of, at_least, at_most, finite,
    finite_nonnegative, positive,
)

# lowest classify frequency: the exp_grid and poly_grid indicators share the
# trivial zero D(0) = 0, so below about one their infimum is the lobe around
# mu = 0, whatever xi is (golden exp_grid: 1e-16 at mu_min = 1e-8, 0.011 at
# 0.1, 0.38 at 0.5, 2.05 at 1)
MU_MIN = 1.0

SCHEMA = {
    "depth": (40, at_least(1)),
    "quotient_overflow": (1e12, all_of(finite, at_least(1))),
    "constant_type_bound": (20, at_least(1)),
    "mu_min": (1.0, all_of(finite, at_least(MU_MIN))),
    "mu_max": (500.0, None),
    "k1": (1.0, finite_nonnegative),
    "poly_eps": (1.0, finite),
    "liouville_kappa": (0.2, positive),
    "liouville_m_max": (1000, all_of(at_least(1), at_most(MAX_GRID_POINTS))),
    "liouville_phi": ("identity", None),
    "keep_trace": (False, None),
}
SWEEP_DEFAULTS = {"mu_max": "200"}
USES_NUMPY = False


def _condition_dict(report: diophantine.ConditionReport) -> dict:
    """The report's fields, its trace (written as a table) excepted."""
    return {name: value for name, value in vars(report).items() if name != "trace"}


def _growth_from_text(text: str) -> diophantine.GrowthFunction:
    """The growth function liouville_phi names, read before the arithmetic layer loads."""
    name, colon, params = text.partition(":")
    name = name.strip().lower()
    if name == "identity":
        if colon:
            raise ConfigError(f"identity takes no parameters, got {text!r}")
        args = ()
    elif name == "power_log":
        try:
            alpha, eps = (float(p) for p in params.split(","))
        except ValueError:
            raise ConfigError("power_log needs parameters alpha,eps") from None
        args = (alpha, eps)
    elif name == "exponential":
        try:
            args = (float(params),)
        except ValueError:
            raise ConfigError("exponential needs a parameter beta") from None
    else:
        raise ConfigError(f"unknown growth function {text!r}")
    from .. import diophantine

    # a parameter that would make phi decrease is a configuration error
    try:
        return getattr(diophantine.GrowthFunction, name)(*args)
    except ValueError as exc:
        raise ConfigError(f"liouville_phi: {exc}") from None


def check(cfg: dict, xi: Position) -> diophantine.GrowthFunction:
    """The Liouville weight phi, once the mu range is known to be admissible."""
    if not cfg["mu_min"] <= cfg["mu_max"]:
        raise ConfigError("need mu_min <= mu_max")
    # one pi-strip per pi of the range, plus a part-strip at each end
    if (cfg["mu_max"] - cfg["mu_min"]) / math.pi + 2 > MAX_GRID_POINTS:
        raise ConfigError(f"the mu range would span over {MAX_GRID_POINTS} pi-strips")
    return _growth_from_text(cfg["liouville_phi"])


def run(cfg: dict, xi: Position, plan: diophantine.GrowthFunction):
    """Returns (classification, cos-grid report, Liouville report, exact xi or None).

    plan is check's Liouville weight phi.
    """
    from .. import diophantine

    settings = diophantine.ClassifySettings(
        **{k: cfg[k] for k in diophantine.ClassifySettings.__dataclass_fields__}
    )
    keep = cfg["keep_trace"]
    classification = diophantine.classify_actuator(xi, settings, keep)
    # the one exact number that classify_actuator's checks read
    number = diophantine.settle(xi, settings.quotient_overflow)
    cos_rep = diophantine.check_cos_grid(number, cfg["mu_min"], cfg["mu_max"], cfg["k1"], keep)
    liou_rep = diophantine.check_liouville_type(
        number, plan, cfg["liouville_kappa"], cfg["liouville_m_max"], keep
    )
    return classification, cos_rep, liou_rep, xi.exact


def files(cfg: dict, result) -> tuple:
    classification, cos_rep, liou_rep, exact = result
    cf = classification.continued_fraction
    grid_reps = {"exp": classification.exp_grid, "poly": classification.poly_grid, "cos": cos_rep}
    report = {
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
    tables = []
    if cfg["keep_trace"]:
        tables = [(f"classify_trace_{name}.csv", "classify-trace",
                   ["mu", "expression", "weighted_expression"], rep.trace, 1)
                  for name, rep in grid_reps.items()]
        tables.append(("classify_trace_liouville.csv", "liouville-trace", ["m", "product"],
                       liou_rep.trace, 1))
    return "classify_report.json", report, tables


def row(result) -> dict:
    cls = result[0]
    return {
        "is_rational": cls.is_rational,
        "constant_type": cls.constant_type,
        "max_partial_quotient": cls.max_partial_quotient,
        "exp_grid_verdict": cls.exp_grid.verdict,
        "poly_grid_verdict": cls.poly_grid.verdict,
    }
