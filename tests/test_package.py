"""Package surface: the re-exports of each submodule's public names, and who reads a kernel."""

import ast
from importlib import import_module
from pathlib import Path

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


def test_only_discretization_reads_kernel_entries():
    # KernelMatrix.matvec and row_power_sums are the only readers of the
    # entries, so a new storage or product changes one module, not every caller
    found = []
    for path in sorted(Path(crhls.__file__).parent.glob("*.py")):
        if path.name == "discretization.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "_tiles"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "_tiles" for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports _tiles")
    assert found == []
