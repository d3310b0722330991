"""Span tracing of one pointdamp CLI invocation, and the per-layer metrics.

Run as a script, it starts the CLI the way ``python -m pointdamp.cli`` does,
but first times ``import pointdamp.cli``, then replaces the public functions
in ``TRACED`` on their modules with span wrappers, runs ``cli.main(argv)`` and
writes every span to a JSON file when the CLI returns:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json INVOCATION_ID simulate --xi golden

The CLI and ``frequency`` call these functions through their module globals,
so replacing the module attribute catches every call.  A span is
``[name, start, end, parent, invocation, attrs]``; ``parent`` is the index of
the enclosing span or -1.

Imported, the module gives ``invocation_totals``, which reduces one
invocation's spans to layer totals, and ``layer_metrics``, which turns the
totals of a workload pass into the per-layer metrics in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# metric name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.import_s": ("s", "setup_s on all workloads; wall_s on cold-survey"),
    "cli.write_s": ("s", "wall_s, out_mb, peak_rss_mb on golden"),
    "cli.write_mb": ("MB", "wall_s, out_mb, peak_rss_mb on golden"),
    "simulator.steps": ("count", "steps_per_s, wall_s on golden; wall_s on cold-survey"),
    "simulator.self_s": ("s", "steps_per_s, wall_s on golden; wall_s on cold-survey"),
    "simulator.us_per_step": ("us", "steps_per_s, wall_s on golden; wall_s on cold-survey"),
    "simulator.energy_calls": ("count", "wall_s on golden"),
    "simulator.energy_s": ("s", "wall_s on golden"),
    "simulator.dissipation_rel": ("ratio", "quality: none (largest |residual| / E0)"),
    "decayfit.self_s": ("s", "wall_s on golden (predicted: no change)"),
    "decayfit.samples": ("count", "wall_s on golden (predicted: no change)"),
    "frequency.solves": ("count", "solves_per_s, wall_s on golden"),
    "frequency.ms_per_solve": ("ms", "solves_per_s, wall_s on golden"),
    "frequency.quadrature_calls": ("count", "solves_per_s, wall_s on golden"),
    "frequency.quadrature_s": ("s", "solves_per_s, wall_s on golden"),
    "frequency.forcing_s": ("s", "solves_per_s, wall_s on golden"),
    "frequency.norm_s": ("s", "solves_per_s, wall_s on golden"),
    "frequency.jump_residual_max": ("ratio", "quality: none"),
    "frequency.roots": ("count", "wall_s on cold-survey"),
    "frequency.find_s": ("s", "wall_s on cold-survey"),
    "frequency.winding_calls": ("count", "wall_s on cold-survey"),
    "frequency.char_points": ("count", "wall_s on cold-survey"),
    "frequency.char_points_per_root": ("count", "wall_s on cold-survey"),
    "diophantine.classify_s": ("s", "wall_s on cold-survey"),
    "diophantine.grid_checks": ("count", "wall_s on cold-survey"),
    "diophantine.grid_points": ("count", "wall_s on cold-survey"),
    "carleman.evaluate_calls": ("count", "wall_s on cold-survey"),
    "carleman.evaluate_s": ("s", "wall_s on cold-survey"),
    "carleman.us_per_sample_h": ("us", "wall_s on cold-survey"),
    "carleman.estimate_s": ("s", "wall_s on cold-survey"),
    "trace.overhead_s": ("s", "none (traced minus untraced wall_s)"),
}


_signature = functools.cache(inspect.signature)


def _bound(fn, args, kwargs, name):
    return _signature(fn).bind(*args, **kwargs).arguments.get(name)


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs, "path"))}


def _simulate_attrs(fn, args, kwargs, result):
    # pointdamp is imported inside functions only: main() times its first import
    from pointdamp import simulator

    trace = result[1]
    e0 = float(trace.energies[0])
    residual = simulator.dissipation_residual(trace)
    return {"steps": int(trace.damping_power.size), "dissipation_rel": abs(residual) / e0}


def _grid_points(fn, args, kwargs, result):
    grid = _bound(fn, args, kwargs, "mu_grid")
    if grid is None:
        from pointdamp import diophantine

        grid = diophantine.default_mu_grid()
    return {"points": len(grid)}


def _char_points(fn, args, kwargs, result):
    import numpy as np

    return {"points": int(np.size(_bound(fn, args, kwargs, "z")))}


# (module, function, span name, attrs from (fn, args, kwargs, result) or None)
TRACED = [
    ("cli", "write_csv", "cli.write", _file_bytes),
    ("cli", "write_json_report", "cli.write", _file_bytes),
    ("simulator", "simulate", "simulator.simulate", _simulate_attrs),
    ("simulator", "energy", "simulator.energy", None),
    ("decayfit", "model_select", "decayfit.model_select",
     lambda fn, a, k, r: {"samples": r[0].n_samples if r else 0}),
    ("frequency", "solve_resolvent", "frequency.solve",
     lambda fn, a, k, r: {"jump": r.jump_residual}),
    ("frequency", "simpson", "frequency.quadrature", None),
    ("frequency", "cumulative_simpson", "frequency.quadrature", None),
    ("frequency", "random_forcing", "frequency.forcing", None),
    ("frequency", "resonant_forcing", "frequency.forcing", None),
    ("frequency", "state_norm", "frequency.norm", None),
    ("frequency", "find_eigenvalues", "frequency.find", lambda fn, a, k, r: {"roots": len(r)}),
    ("frequency", "winding_number", "frequency.winding", None),
    ("frequency", "characteristic_function", "frequency.char", _char_points),
    ("diophantine", "classify_actuator", "diophantine.classify", None),
    ("diophantine", "check_exp_grid", "diophantine.grid_check", _grid_points),
    ("diophantine", "check_poly_grid", "diophantine.grid_check", _grid_points),
    ("diophantine", "check_cos_grid", "diophantine.grid_check", _grid_points),
    ("diophantine", "check_liouville_type", "diophantine.liouville", None),
    ("carleman", "evaluate_carleman_inequality", "carleman.evaluate",
     lambda fn, a, k, r: {"h": int(r.h.size)}),
    ("carleman", "estimate_carleman_constant", "carleman.estimate", None),
]


class Tracer:
    """Collects spans in memory for one invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, attrs):
        spans, open_ = self.spans, self._open
        invocation = self.invocation

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, invocation, None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_.pop()
            if attrs is not None:
                record[5] = attrs(fn, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module, attr, name, attrs in TRACED:
            target = modules[module]
            setattr(target, attr, self.wrap(getattr(target, attr), name, attrs))


def invocation_totals(spans: list[list], import_s: float) -> dict[str, float]:
    """Layer totals of one invocation: counts, summed times and worst residuals."""
    self_s = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    t = dict.fromkeys(TOTAL_KEYS, 0)
    t["import_s"] = import_s
    for (name, start, end, parent, _, attrs), own in zip(spans, self_s):
        dur = end - start
        attrs = attrs or {}
        if name == "cli.write":
            t["write_s"] += dur
            t["write_bytes"] += attrs["bytes"]
        elif name == "simulator.simulate":
            t["sim_steps"] += attrs["steps"]
            t["sim_self_s"] += own
            t["dissipation_rel"] = max(t["dissipation_rel"], attrs["dissipation_rel"])
        elif name == "simulator.energy":
            t["energy_calls"] += 1
            t["energy_s"] += dur
        elif name == "decayfit.model_select":
            t["decay_self_s"] += own
            t["decay_samples"] += attrs["samples"]
        elif name == "frequency.solve":
            t["solves"] += 1
            t["solve_s"] += dur
            t["jump_max"] = max(t["jump_max"], attrs["jump"])
        elif name == "frequency.quadrature":
            t["quad_calls"] += 1
            t["quad_s"] += dur
        elif name == "frequency.forcing":
            t["forcing_s"] += dur
        elif name == "frequency.norm":
            t["norm_s"] += dur
        elif name == "frequency.find":
            t["roots"] += attrs["roots"]
            t["find_s"] += dur
        elif name == "frequency.winding":
            t["winding_calls"] += 1
        elif name == "frequency.char":
            t["char_points"] += attrs["points"]
        elif name == "carleman.evaluate":
            t["eval_calls"] += 1
            t["eval_s"] += dur
            t["eval_h"] += attrs["h"]
        elif name == "carleman.estimate":
            t["estimate_s"] += dur
        if name.startswith("diophantine."):
            if parent < 0 or not spans[parent][0].startswith("diophantine."):
                t["classify_s"] += dur
            if name == "diophantine.grid_check":
                t["grid_checks"] += 1
                t["grid_points"] += attrs["points"]
    return t


TOTAL_KEYS = (
    "import_s", "write_s", "write_bytes", "sim_steps", "sim_self_s", "energy_calls",
    "energy_s", "dissipation_rel", "decay_self_s", "decay_samples", "solves", "solve_s",
    "jump_max", "quad_calls", "quad_s", "forcing_s", "norm_s", "roots", "find_s",
    "winding_calls", "char_points", "classify_s", "grid_checks", "grid_points",
    "eval_calls", "eval_s", "eval_h", "estimate_s",
)
MAX_KEYS = ("dissipation_rel", "jump_max")


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(totals: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one workload pass from the totals of its invocations."""
    t = {
        key: (max if key in MAX_KEYS else sum)(inv[key] for inv in totals)
        for key in TOTAL_KEYS
    }
    return {
        "cli.import_s": t["import_s"],
        "cli.write_s": t["write_s"],
        "cli.write_mb": t["write_bytes"] / 1e6,
        "simulator.steps": t["sim_steps"],
        "simulator.self_s": t["sim_self_s"],
        "simulator.us_per_step": _ratio(t["sim_self_s"], t["sim_steps"], 1e6),
        "simulator.energy_calls": t["energy_calls"],
        "simulator.energy_s": t["energy_s"],
        "simulator.dissipation_rel": t["dissipation_rel"],
        "decayfit.self_s": t["decay_self_s"],
        "decayfit.samples": t["decay_samples"],
        "frequency.solves": t["solves"],
        "frequency.ms_per_solve": _ratio(t["solve_s"], t["solves"], 1e3),
        "frequency.quadrature_calls": t["quad_calls"],
        "frequency.quadrature_s": t["quad_s"],
        "frequency.forcing_s": t["forcing_s"],
        "frequency.norm_s": t["norm_s"],
        "frequency.jump_residual_max": t["jump_max"],
        "frequency.roots": t["roots"],
        "frequency.find_s": t["find_s"],
        "frequency.winding_calls": t["winding_calls"],
        "frequency.char_points": t["char_points"],
        "frequency.char_points_per_root": _ratio(t["char_points"], t["roots"], 1.0),
        "diophantine.classify_s": t["classify_s"],
        "diophantine.grid_checks": t["grid_checks"],
        "diophantine.grid_points": t["grid_points"],
        "carleman.evaluate_calls": t["eval_calls"],
        "carleman.evaluate_s": t["eval_s"],
        "carleman.us_per_sample_h": _ratio(t["eval_s"], t["eval_h"], 1e6),
        "carleman.estimate_s": t["estimate_s"],
        "trace.overhead_s": overhead_s,
    }


def main(argv: list[str]) -> int:
    spans_path, invocation, cli_argv = argv[0], argv[1], argv[2:]
    started = time.perf_counter()
    import pointdamp.cli as cli
    from pointdamp import carleman, decayfit, diophantine, frequency, simulator

    import_s = time.perf_counter() - started
    tracer = Tracer(invocation)
    tracer.install({
        "cli": cli, "simulator": simulator, "decayfit": decayfit, "frequency": frequency,
        "diophantine": diophantine, "carleman": carleman,
    })
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": invocation, "import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
