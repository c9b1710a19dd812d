"""Quantify sub-Planck phase-space structure by distilling squeezing.

Works entirely on one-dimensional quadrature probability densities in units
where the ground-state variance is 1/2.  A density is distilled through
virtual interference layers and a transmissivity-optimized ground-state
filter; variance below 1/2 anywhere in that pipeline certifies nonclassical
structure of the input.
"""

from . import density, depth, distill, errors, oracle, phonon, states
from .density import *  # noqa: F401,F403
from .depth import *  # noqa: F401,F403
from .distill import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .phonon import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (density, states, distill, depth, phonon, oracle, errors)
    for name in module.__all__
]
