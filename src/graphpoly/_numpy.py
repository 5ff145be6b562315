"""numpy, loaded on first attribute access, so that importing graphpoly and running a command
whose work is pure Python loads no numpy and starts no BLAS thread.

It follows the LazyLoader recipe of the importlib docs.  Once loaded, ``np`` is a plain module
again, so an attribute lookup costs what it costs on ``import numpy as np``.  If numpy is
already imported, ``np`` is that module.  A missing numpy, or ``sys.modules["numpy"]`` set to
None, still raises ImportError here, when graphpoly is imported, and not on first use.

The first attribute access runs numpy's import, and on Python 3.11 that step is not
thread-safe; graphpoly itself starts no threads.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:  # imported already, or blocked by None: the import system answers
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
