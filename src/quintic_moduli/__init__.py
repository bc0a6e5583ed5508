"""Certified arbitrary-precision evaluation of the degree-25 ascent for the
elliptic singular modulus: solve K(k')/K(k) = sqrt(r) at exact rational r,
then climb r -> 25r -> 625r -> ... in closed form, certifying every rung
against independent solves.

The package exports every name its modules publish in their __all__.
bigmath_kernel and report load with the package; modular_core,
quintic_ladder and certify are registered by importlib's LazyLoader and
run their body on the first attribute anyone reads from them, so a caller
that needs only the solver never compiles the rest.  A name of a deferred
module resolves through __getattr__ from the modules' own __all__.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import bigmath_kernel, report
from .bigmath_kernel import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule ``name``, in sys.modules, its body not yet run."""
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


modular_core = _lazy("modular_core")
quintic_ladder = _lazy("quintic_ladder")
certify = _lazy("certify")

# a deferred module imports the modules before it here, so __getattr__'s
# search in this order loads none that the name's home would not load
_MODULES = (bigmath_kernel, modular_core, quintic_ladder, certify, report)


def __getattr__(name: str):
    if name == "__all__":
        names = dict.fromkeys(n for mod in _MODULES for n in mod.__all__)
        value = globals()["__all__"] = ["__version__", *names]
        return value
    if not name.startswith("_"):
        for mod in _MODULES:
            if name in mod.__all__:
                return getattr(mod, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
