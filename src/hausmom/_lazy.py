"""numpy, bound at import but executed at the first read of one of its
attributes, and QUADPACK's extension, loaded without ``scipy.integrate``.

The float layers import ``numpy`` from here, so importing them (as
``hausmom.cli`` does) costs nothing until a numpy operation runs, and the
exact commands and ``pointvalue`` never run numpy's import.  After that
first read the module is an ordinary ``ModuleType`` again, so later
``np.`` lookups pay nothing.

``quadpack()`` is the package's one import of scipy.  It loads the
compiled ``scipy.integrate._quadpack`` alone: the package ``__init__`` of
``scipy.integrate`` would also import ``scipy.special``,
``scipy.optimize`` and ``scipy.sparse.linalg``, about 0.5 s, for two C
entry points.  The loader therefore relies on the private signatures of
``_qagse`` and ``_qagpe``, which ``scipy.integrate.quad`` itself calls
(``moment_ops._quad`` replicates its dispatch); CI runs the tests at the
floor versions of numpy and scipy as well.  ROADMAP item 8, which drops
scipy, deletes this loader.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder


def _lazy_import(name):
    """The standard library's LazyLoader recipe; an already imported module is returned as is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


numpy = _lazy_import("numpy")

_QUADPACK = "scipy.integrate._quadpack"


def quadpack():
    """scipy's compiled QUADPACK module, loaded from ``scipy/integrate``
    without running ``scipy/integrate/__init__.py``.

    The module is registered under its own name, so a later
    ``import scipy.integrate`` reuses it, and a module already loaded by
    that import is returned as is.
    """
    if _QUADPACK in sys.modules:
        return sys.modules[_QUADPACK]
    import scipy

    spec = PathFinder.find_spec(_QUADPACK, [os.path.join(scipy.__path__[0], "integrate")])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {_QUADPACK!r}", name=_QUADPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_QUADPACK] = module
    return module
