"""Certified arbitrary-precision evaluation of the degree-25 ascent for the
elliptic singular modulus: solve K(k')/K(k) = sqrt(r) at exact rational r,
then climb r -> 25r -> 625r -> ... in closed form, certifying every rung
against independent solves.

The package exports every name its modules publish in their __all__.
"""

from . import bigmath_kernel, certify, modular_core, quintic_ladder, report
from .bigmath_kernel import *  # noqa: F401,F403
from .certify import *  # noqa: F401,F403
from .modular_core import *  # noqa: F401,F403
from .quintic_ladder import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (bigmath_kernel, modular_core, quintic_ladder, certify, report)
__all__ = ["__version__"] + [name for mod in _MODULES for name in mod.__all__]
