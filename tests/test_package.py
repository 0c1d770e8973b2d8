"""Package surface: the re-exports of each submodule's public names, who reads a kernel,
who writes a file, who prints, and that every import is used."""

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


def test_kernel_users_only_pass_grid_on():
    # where a function takes the kernel K, its grid argument is only checked against
    # K.grid: passed to a call, never read, so weights and nodes come from K.grid alone
    found = []
    for name in ("solver", "functional", "experiments"):
        path = Path(import_module(f"crhls.{name}").__file__)
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, ast.FunctionDef):
                continue
            names = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
            if not {"K", "grid"} <= names:
                continue
            passed = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and not (
                    isinstance(node.func, ast.Name) and node.func.id == "len"
                ):
                    passed.update(map(id, [*node.args, *(k.value for k in node.keywords)]))
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and node.id == "grid" and id(node) not in passed:
                    found.append(f"{path.name}:{node.lineno} {func.name} reads grid")
    assert found == []


def test_discretization_uses_no_point_class():
    # grids hold node arrays and every formula they need takes rows of points, so
    # nothing in the discretization builds an HPoint or SpherePoint
    path = Path(import_module("crhls.discretization").__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert names & {"HPoint", "SpherePoint"} == set()


def test_discretization_imports_only_the_metrics():
    # grids carry nodes and their metric; the formulas evaluated at the nodes
    # (the extremals, the gauge norm) are called on the node arrays by their users
    path = Path(import_module("crhls.discretization").__file__)
    imported = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("heisenberg", "sphere"):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert imported == {"heisenberg": {"gauge_dist_sq"}, "sphere": {"sphere_dist_sq"}}


def _writes_a_file(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        # a mode that is not a literal could write
        return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax")
                   for m in modes)
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes", "tofile"):
            return True
        return (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
                and func.attr.startswith("save"))
    return False


def test_only_cli_writes_files():
    # cli.main is the one writer of artifacts; every other module computes and
    # returns values. Reads stay allowed (_mem_available opens /proc/meminfo)
    found = []
    for path in sorted(Path(crhls.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _writes_a_file(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_cli_main_prints():
    # cli.main prints every result and error; the other prints are the warnings
    # of _blas.blas_threads on stderr. Each print is named by its innermost function
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "print"):
                found.add(f"{path.name}:{where}")
            visit(child, where)

    for path in sorted(Path(crhls.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    assert found == {"cli.py:main", "_blas.py:blas_threads"}


def test_every_import_is_used():
    # no linter runs offline, so this keeps deletions from leaving dead imports behind,
    # in the package and in its tests; a name listed in __all__ is a re-export and
    # counts as used
    unused = []
    paths = [*Path(crhls.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        unused += [f"{path.parent.name}/{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
