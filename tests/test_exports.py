"""The declared API: every name a submodule lists in ``__all__`` exists, and
the package re-exports only such names, each as the submodule's object, so a
name left behind by a removal fails here and not at a caller's import."""

import importlib
import types

import pytest

import bargmann

SUBMODULES = ("special", "quadrature", "kernels", "transforms", "operators",
              "verify", "cli")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"bargmann.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_resolve():
    declared = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"bargmann.{name}")
        declared.update((n, getattr(module, n)) for n in module.__all__)
    reexported = {n: v for n, v in vars(bargmann).items()
                  if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    stray = sorted(n for n, v in reexported.items()
                   if n not in declared or declared[n] is not v)
    assert not stray, stray
