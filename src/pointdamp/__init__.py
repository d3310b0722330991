"""Numerical laboratory for a vibrating string damped at one interior point.

The position xi of the damped point decides everything: rational positions
leave undamped modes, irrational ones stabilize every state, and how fast is
a question of Diophantine approximation.  The subpackages cover the
arithmetic side (continued fractions and resonance conditions), the
frequency side (closed-form resolvent, interface identity, characteristic
roots), the semiclassical Carleman machinery behind the resolvent bound, an
energy-exact time-domain simulator, and decay-law fitting.
"""

from . import carleman, decayfit, diophantine, frequency, mesh, simulator
from .carleman import *
from .decayfit import *
from .diophantine import *
from .frequency import *
from .mesh import *
from .simulator import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (mesh, diophantine, frequency, carleman, simulator, decayfit)
    for name in module.__all__
]
