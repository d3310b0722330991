"""Numerical laboratory for a vibrating string damped at one interior point.

The position xi of the damped point decides everything: rational positions
leave undamped modes, irrational ones stabilize every state, and how fast is
a question of Diophantine approximation.  The subpackages cover the
arithmetic side (continued fractions and resonance conditions), the
characteristic roots, the frequency side (closed-form resolvent and
resolvent-norm scans), the semiclassical Carleman machinery behind the
resolvent bound, an energy-exact time-domain simulator, and decay-law
fitting.

Submodules and their public names load on first access, so a command that
needs one of them does not pay for the others.
"""

import sys

__version__ = "0.1.0"

# each submodule's __all__, in the order that makes up the package's __all__;
# a name is resolved here without importing anything
_EXPORTS = {
    "mesh": ("Mesh", "build_mesh"),
    "diophantine": (
        "ContinuedFraction", "ConditionReport", "GrowthFunction", "ActuatorClassification",
        "ClassifySettings", "GOLDEN_RATIO_CONJUGATE", "parse_actuator_position",
        "dist_nearest_integer", "expand_continued_fraction", "resonance_indicator",
        "cos_resonance_indicator", "check_exp_grid", "check_poly_grid", "check_cos_grid",
        "check_liouville_type", "classify_actuator", "default_mu_grid",
    ),
    "characteristic": (
        "CharacteristicRoot", "ContourThroughRoot", "characteristic_function",
        "characteristic_derivative", "closed_form_seed", "height_bound", "strip_count",
        "find_eigenvalues", "abscissa_of_roots",
    ),
    "frequency": (
        "ForcingData", "ResolventSolution", "ScanResult", "ResonantDenominator",
        "assemble_phi", "solve_resolvent", "state_norm", "random_forcing", "resonant_forcing",
        "resolvent_norm_lower_bound", "scan_resolvent_growth", "winding_number",
    ),
    "carleman": (
        "WeightFunction", "WeightCheck", "SquareExpansionReport", "InequalitySweep",
        "ConstantEstimate", "default_left_weight", "default_right_weight", "validate_weight",
        "apply_helmholtz", "apply_conjugated_operator", "conjugation_route",
        "split_conjugated_operator", "ibp_residuals", "square_expansion_residual",
        "evaluate_carleman_inequality", "inequality_forms", "estimate_carleman_constant",
        "sample_basis", "random_coefficients", "random_test_function",
    ),
    "simulator": (
        "WaveState", "EnergyTrace", "initial_data", "energy", "simulate",
        "dissipation_residual",
    ),
    "decayfit": (
        "InsufficientData", "FitResult", "DecaySamples", "ENERGY_FLOOR_FACTOR", "MIN_SAMPLES",
        "fit_log", "fit_poly", "fit_exp", "model_select",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}


def _submodule(name: str):
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """A submodule, a submodule's public name, or __all__, loaded on first access."""
    if name in _EXPORTS:
        return _submodule(name)
    if name == "__all__":
        value = ["__version__"] + [public for names in _EXPORTS.values() for public in names]
    elif name in _OWNERS:
        value = getattr(_submodule(_OWNERS[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
