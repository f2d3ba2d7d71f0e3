"""No `twotower` module binds a numpy array at module level.

`retrieval._encode_all` runs encodes on several threads of one process, and
threads share every module's globals: a module-level array is scratch two
threads could write at once, as the one erf scratch set once was.
"""

import importlib
import pkgutil

import numpy as np

import twotower


def test_no_module_binds_an_array():
    bound = []
    for info in pkgutil.iter_modules(twotower.__path__):
        module = importlib.import_module(f"twotower.{info.name}")
        bound += [f"{info.name}.{name}" for name, value in vars(module).items() if isinstance(value, np.ndarray)]
    assert bound == []
