"""The benchmark's workloads: CLI invocations and the invariants their outputs must meet.

Each workload is a list of ``Invocation``s.  An invocation is the argument list
of one ``python -m pointdamp.cli`` run (``--out`` and ``--seed`` are added by
the runner) plus a check that reads what the run wrote and returns the
problems it found.  The checks test invariants, not snapshots, so they hold at
any seed; they import ``pointdamp`` from ``src`` to recompute values.

A problem is a ``(key, message)`` pair.  Keys listed in ``KNOWN_DEFECTS`` are
program defects on record: the invocation still counts as failed, but the run
as a whole stays correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pointdamp import diophantine, frequency
from pointdamp.mesh import build_mesh

GOLDEN = "golden"
SQRT2_M1 = "0.41421356237309515"  # sqrt(2) - 1, partial quotients all 2
HALF = "1/2"
POSITIONS = (GOLDEN, SQRT2_M1, HALF)
RATIONAL = {GOLDEN: False, SQRT2_M1: False, HALF: True}
MAX_PARTIAL_QUOTIENT = {GOLDEN: 1, SQRT2_M1: 2}

KNOWN_DEFECTS = {
    "classify-verdict-rational": (
        "classify re-runs the grid checks without the injected resonance points, "
        "so a rational xi reports 'pass' where classify_actuator returns 'fail'"
    ),
}

# simulate: relative tolerances on the energy identity and on monotone decay
DISSIPATION_REL_TOL = 1e-9
ENERGY_RISE_REL_TOL = 1e-12
ENERGY_FINAL_REL_TOL = 1e-8
# resolvent-scan: residuals of the closed-form solve, and the recomputation match
RESOLVENT_RESIDUAL_TOL = 1e-12
RESOLVENT_MATCH_RTOL = 1e-9
# spectrum: |D(z)| at each reported root
CHARACTERISTIC_TOL = 1e-9
# carleman-verify: dual-route convergence order of the second-order scheme
CARLEMAN_ORDER = (1.7, 2.3)

Problems = list[tuple[str, str]]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[Path, int], "Outcome"]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    problems: Problems = field(default_factory=list)
    steps: int = 0  # simulation steps reported by `simulate`
    solves: int = 0  # resolvent solves of `resolvent-scan` (frequencies x probes)

    def require(self, ok: bool, key: str, message: str) -> bool:
        if not ok:
            self.problems.append((key, message))
        return ok


def _result(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def _table(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=2, dtype=float))


def _data_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# outputs of `simulate --xi golden --set t_final=5` at all other defaults
SIM_GOLDEN_T_FINAL = 5
SIM_GOLDEN_STEPS = 26181
SIM_GOLDEN_ENERGY_FINAL = 0.3487092031272777


def check_sim_golden(out: Path, seed: int) -> Outcome:
    outcome = Outcome()
    result = _result(out / "simulate_report.json")
    steps = int(result["n_steps"])
    outcome.steps = steps
    outcome.require(steps == SIM_GOLDEN_STEPS, "simulate-steps",
                    f"n_steps {steps}, recorded {SIM_GOLDEN_STEPS}")
    outcome.require(_data_rows(out / "damping_record.csv") == steps, "simulate-damping-rows",
                    "damping_record.csv does not hold one row per step")

    trace = _table(out / "energy_trace.csv")
    energies, dissipated = trace[:, 1], trace[:, 2]
    e0 = energies[0]
    residual = float(np.max(np.abs(energies - e0 + dissipated)))
    outcome.require(residual <= DISSIPATION_REL_TOL * e0, "simulate-dissipation",
                    f"energy identity residual {residual / e0:.3g} E0")
    outcome.require(abs(result["dissipation_residual"]) <= DISSIPATION_REL_TOL * e0,
                    "simulate-dissipation", "reported dissipation residual too large")
    rise = float(np.max(np.diff(energies), initial=0.0))
    outcome.require(rise <= ENERGY_RISE_REL_TOL * e0, "simulate-monotone",
                    f"energy rises by {rise / e0:.3g} E0")
    final = result["energy_final"]
    outcome.require(
        abs(final - SIM_GOLDEN_ENERGY_FINAL) <= ENERGY_FINAL_REL_TOL * SIM_GOLDEN_ENERGY_FINAL,
        "simulate-energy-final", f"energy_final {final!r}, recorded {SIM_GOLDEN_ENERGY_FINAL!r}",
    )
    return outcome


# ---------------------------------------------------------------------------
# resolvent-scan
# ---------------------------------------------------------------------------

SCAN_MU = (1.0, 200.0, 0.5)  # mu_min, mu_max, mu_step
SCAN_CELLS = 512
SCAN_PROBES = 4
SCAN_RECHECKS = 3  # frequencies recomputed per run, besides the last one


def check_scan_golden(out: Path, seed: int) -> Outcome:
    outcome = Outcome()
    mu_min, mu_max, mu_step = SCAN_MU
    grid = np.arange(mu_min, mu_max + 0.5 * mu_step, mu_step)
    table = _table(out / "resolvent_scan.csv")
    result = _result(out / "resolvent_scan.json")
    if not outcome.require(table.shape == (grid.size, 2) and np.array_equal(table[:, 0], grid),
                           "scan-rows", f"expected one row per frequency, {grid.size} in all"):
        return outcome
    outcome.solves = grid.size * SCAN_PROBES
    norms = table[:, 1]
    outcome.require(result["n_resonant"] == 0, "scan-resonant",
                    f"n_resonant {result['n_resonant']}")
    outcome.require(bool(np.all(np.isfinite(norms) & (norms > 0))), "scan-finite",
                    "a norm estimate is not finite and positive")

    xi, _ = diophantine.parse_actuator_position(GOLDEN)
    mesh = build_mesh(xi, SCAN_CELLS, SCAN_CELLS)
    picks = random.Random(seed).sample(range(grid.size - 1), SCAN_RECHECKS) + [grid.size - 1]
    for i in picks:
        mu = float(grid[i])
        rng = np.random.default_rng([seed, i])
        probes = [frequency.resonant_forcing(mesh, mu)]
        probes += [frequency.random_forcing(mesh, rng) for _ in range(SCAN_PROBES - 1)]
        norm = frequency.resolvent_norm_lower_bound(xi, mu, probes)
        outcome.require(math.isclose(norm, norms[i], rel_tol=RESOLVENT_MATCH_RTOL),
                        "scan-recompute", f"mu={mu}: CSV {norms[i]!r}, recomputed {norm!r}")
        for probe in probes:
            sol = frequency.solve_resolvent(xi, mu, probe)
            worst = max(sol.continuity_residual, sol.jump_residual)
            outcome.require(worst <= RESOLVENT_RESIDUAL_TOL, "scan-residual",
                            f"mu={mu}: interface residual {worst:.3g}")
    return outcome


# ---------------------------------------------------------------------------
# cold survey: classify, spectrum, carleman-verify, sweep
# ---------------------------------------------------------------------------


def _check_classify(position: str) -> Callable[[Path, int], Outcome]:
    def check(out: Path, seed: int) -> Outcome:
        outcome = Outcome()
        payload = json.loads((out / "classify_report.json").read_text(encoding="utf-8"))
        result, cfg = payload["result"], payload["config"]
        rational = RATIONAL[position]
        outcome.require(result["is_rational"] == rational, "classify-rational",
                        f"is_rational {result['is_rational']}")
        if not rational:
            mpq = result["max_partial_quotient"]
            outcome.require(mpq == MAX_PARTIAL_QUOTIENT[position], "classify-quotient",
                            f"max_partial_quotient {mpq}")

        value, exact = diophantine.parse_actuator_position(position)
        settings = diophantine.ClassifySettings(
            **{k: cfg[k] for k in diophantine.ClassifySettings.__dataclass_fields__}
        )
        library = diophantine.classify_actuator(exact if exact is not None else value, settings)
        key = "classify-verdict-rational" if rational else "classify-verdict"
        for name, expected in (("exp_grid", library.exp_grid), ("poly_grid", library.poly_grid)):
            reported = result["conditions"][name]["verdict"]
            outcome.require(reported == expected.verdict, key,
                            f"{name}: report '{reported}', classify_actuator "
                            f"'{expected.verdict}' (witness {expected.witness:.6g})")
        return outcome

    return check


SPECTRUM_RE = (0.5, 2000.0)


def _check_spectrum(position: str) -> Callable[[Path, int], Outcome]:
    def check(out: Path, seed: int) -> Outcome:
        outcome = Outcome()
        result = _result(out / "spectrum.json")
        roots = _table(out / "spectrum.csv")
        re_min, re_max = SPECTRUM_RE
        expected = (re_max - re_min) / math.pi
        total = result["total_multiplicity"]
        outcome.require(abs(total - expected) <= 1.0, "spectrum-count",
                        f"total multiplicity {total}, expected {expected:.2f} +- 1")
        outcome.require(int(roots[:, 3].sum()) == total, "spectrum-rows",
                        "CSV multiplicities do not add up to the report")
        xi, _ = diophantine.parse_actuator_position(position)
        d = np.abs(frequency.characteristic_function(xi, roots[:, 0] + 1j * roots[:, 1]))
        worst = float(np.max(d, initial=0.0))
        outcome.require(worst <= CHARACTERISTIC_TOL, "spectrum-residual",
                        f"|D(z)| up to {worst:.3g} at a reported root")
        outcome.require(result["has_real_root"] == RATIONAL[position], "spectrum-real-root",
                        f"has_real_root {result['has_real_root']}")
        return outcome

    return check


def check_carleman(out: Path, seed: int) -> Outcome:
    outcome = Outcome()
    result = _result(out / "carleman_report.json")
    lo, hi = CARLEMAN_ORDER
    for side in ("left", "right"):
        orders = result[side]["dual_route_orders"]
        outcome.require(all(lo <= o <= hi for o in orders), "carleman-order",
                        f"{side} dual-route orders {orders}")
        c_hat = result[side]["c_hat"]
        outcome.require(c_hat is not None and math.isfinite(c_hat) and c_hat > 0,
                        "carleman-constant", f"{side} c_hat {c_hat}")
    return outcome


def check_sweep(out: Path, seed: int) -> Outcome:
    outcome = Outcome()
    rows = _result(out / "sweep_simulate.json")["rows"]
    expected = sorted(diophantine.parse_actuator_position(p)[0] for p in POSITIONS)
    if not outcome.require([r["xi"] for r in rows] == expected, "sweep-rows",
                           f"rows for xi {[r['xi'] for r in rows]}"):
        return outcome
    for row in rows:
        outcome.require(row["energy_ratio"] < 1.0, "sweep-decay",
                        f"xi={row['xi']}: energy_ratio {row['energy_ratio']}")
        outcome.require(
            abs(row["dissipation_residual"]) <= DISSIPATION_REL_TOL * row["energy_initial"],
            "sweep-dissipation", f"xi={row['xi']}: dissipation residual too large",
        )
    return outcome


# Seconds one round of each workload takes on the baseline machine (NOTES.md);
# a run repeats the round as often as fits into --seconds at this pace.
ROUND_S = {"golden": 7.5, "cold-survey": 14.5}

WORKLOADS: dict[str, list[Invocation]] = {
    "golden": [
        Invocation(("simulate", "--xi", GOLDEN, "--set", f"t_final={SIM_GOLDEN_T_FINAL}"),
                   check_sim_golden),
        Invocation(("resolvent-scan", "--xi", GOLDEN, "--set", f"mu_max={SCAN_MU[1]:g}"),
                   check_scan_golden),
    ],
    "cold-survey": (
        [Invocation(("classify", "--xi", p), _check_classify(p)) for p in POSITIONS]
        + [Invocation(("spectrum", "--xi", p, "--set", f"re_max={SPECTRUM_RE[1]:g}"),
                      _check_spectrum(p)) for p in POSITIONS]
        + [Invocation(("carleman-verify", "--xi", p), check_carleman) for p in POSITIONS]
        + [Invocation(("sweep", "--set", "task=simulate",
                       "--set", "xi_list=" + ",".join(POSITIONS)), check_sweep)]
    ),
}
