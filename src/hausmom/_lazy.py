"""numpy, bound at import but executed at the first read of one of its attributes.

The float layers import ``numpy`` from here, so importing them (as
``hausmom.cli`` does) costs nothing until a numpy operation runs, and the
exact commands never run numpy's import.  After that first read the module
is an ordinary ``ModuleType`` again, so later ``np.`` lookups pay nothing.
"""

import importlib.util
import sys


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
