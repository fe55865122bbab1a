"""Every exported name resolves.

Tools that wrap a module's public functions (``perfbench/tracing.py``) look
up each entry of its ``__all__``; a stale entry would break them.
"""

import importlib
import pkgutil

import pytest

import fluxnet

MODULES = ["fluxnet"] + [f"fluxnet.{info.name}"
                         for info in pkgutil.iter_modules(fluxnet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_layers_declare_exports():
    for layer in ("network", "solvers", "cgf", "ldp", "simulate"):
        assert importlib.import_module(f"fluxnet.{layer}").__all__
