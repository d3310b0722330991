"""Numerical laboratory for a vibrating string damped at one interior point.

The position xi of the damped point decides everything: rational positions
leave undamped modes, irrational ones stabilize every state, and how fast is
a question of Diophantine approximation.  The subpackages cover the
arithmetic side (continued fractions and resonance conditions), the
characteristic roots, the frequency side (closed-form resolvent and
resolvent-norm scans), the semiclassical Carleman machinery behind the
resolvent bound, an energy-exact time-domain simulator, and decay-law
fitting.

Each public name lives in its own submodule, which lists it in its __all__
(from pointdamp.simulator import simulate); importing the package loads no
submodule, so a command pays only for the layers it imports.
"""

__version__ = "0.1.0"
