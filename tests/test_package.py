"""Package surface: the lazy re-exports and the numpy-free import path."""

import subprocess
import sys
from importlib import import_module

import crhls

_SUBMODULES = ("core", "heisenberg", "sphere", "discretization", "functional", "solver",
               "experiments")


def test_exports_match_submodule_all():
    owners = {}
    for name in _SUBMODULES:
        for export in import_module(f"crhls.{name}").__all__:
            owners[export] = name
    assert crhls._EXPORTS == owners
    for export, name in owners.items():
        assert getattr(crhls, export) is getattr(import_module(f"crhls.{name}"), export)


def test_cli_import_path_leaves_numpy_unloaded():
    # --threads pins the BLAS variables after these imports, so none of
    # them may load numpy
    code = (
        "import sys, crhls; crhls.make_params; from crhls import cli; "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
