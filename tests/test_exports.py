"""Every name a ``repro`` package exports in ``__all__`` resolves.

A deleted class that stays listed in an ``__all__`` breaks
``from repro.x import *`` only for the user who tries it; this catches the
stale entry as soon as the deletion lands.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], "{}.__all__ lists missing names {}".format(package, missing)
    assert len(set(exported)) == len(exported), "{}.__all__ repeats a name".format(package)
