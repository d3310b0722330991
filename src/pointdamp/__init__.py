"""Numerical laboratory for a vibrating string damped at one interior point.

The position xi of the damped point decides everything: rational positions
leave undamped modes, irrational ones stabilize every state, and how fast is
a question of Diophantine approximation.  The subpackages cover the
arithmetic side (continued fractions and resonance conditions), the
characteristic roots, the frequency side (closed-form resolvent, interface
identity), the semiclassical Carleman machinery behind the resolvent bound, an
energy-exact time-domain simulator, and decay-law fitting.

Submodules and their public names load on first access, so a command that
needs one of them does not pay for the others.
"""

import sys

__version__ = "0.1.0"

# the submodules, in the order their public names make up __all__
_SUBMODULES = (
    "mesh", "diophantine", "characteristic", "frequency", "carleman", "simulator", "decayfit",
)


def _submodule(name: str):
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """A submodule, a submodule's public name, or __all__, loaded on first access."""
    if name in _SUBMODULES:
        return _submodule(name)
    modules = [_submodule(sub) for sub in _SUBMODULES]
    if name == "__all__":
        value = ["__version__"] + [public for module in modules for public in module.__all__]
    else:
        owner = next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
