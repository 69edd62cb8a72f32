"""Every name a package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    assert package.__all__
    missing = [export for export in package.__all__
               if not hasattr(package, export)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_star_import():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
