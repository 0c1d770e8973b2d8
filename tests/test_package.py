"""Package surface: the re-exports of each submodule's public names."""

from importlib import import_module

import crhls

_SUBMODULES = ("core", "heisenberg", "sphere", "discretization", "functional", "solver",
               "experiments")


def test_exports_match_submodule_all():
    owners = {}
    for name in _SUBMODULES:
        for export in import_module(f"crhls.{name}").__all__:
            owners[export] = name
    assert sorted(crhls.__all__) == sorted(["__version__", *owners])
    for export, name in owners.items():
        assert getattr(crhls, export) is getattr(import_module(f"crhls.{name}"), export)
