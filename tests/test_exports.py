"""Every name that a package module exports in ``__all__`` must resolve.

A name moved out of a module but left in its ``__all__`` breaks
``from module import *`` and misleads readers; this catches it.
"""

import importlib
import pkgutil

import pytest

import msmtrend

# importing __main__ runs the command line
MODULES = sorted(f"msmtrend.{m.name}" for m in pkgutil.iter_modules(msmtrend.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_every_module_is_listed():
    assert {"msmtrend.estimator", "msmtrend.markov", "msmtrend.numdiff"} <= set(MODULES)
