"""The package's lazy re-exports name attributes that exist, and each of
its modules imports only the layers below it."""

import ast
import importlib
import pathlib

import caginalp_control

# Dependency order of the package's modules, lowest first.
LAYERS = ("errors", "grid", "model", "linsolve", "state", "linearized",
          "adjoint", "control", "oracle", "verification", "config", "cli")
# (module, function, imported module) of the one upward import:
# reduced_gradient stays in adjoint and reads the gradient from control.
ALLOWED_UPWARD = {("adjoint", "reduced_gradient", "control")}


def test_every_lazy_export_resolves_in_its_module():
    # A stale entry fails only when someone reads it, never on import.
    missing = []
    for name, module_name in caginalp_control._EXPORTS.items():
        module = importlib.import_module(f"caginalp_control.{module_name}")
        if not hasattr(module, name):
            missing.append(f"{module_name}.{name}")
            continue
        assert getattr(caginalp_control, name) is getattr(module, name)
    assert not missing, f"exported names without an attribute: {missing}"


def _relative_imports(node, function=None):
    """(line, enclosing function, imported module) of each relative import
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _relative_imports(child, child.name)
            continue
        if isinstance(child, ast.ImportFrom) and child.level:
            targets = ([child.module] if child.module
                       else [alias.name for alias in child.names])
            for target in targets:
                yield child.lineno, function, target.split(".")[0]
        yield from _relative_imports(child, function)


def test_modules_import_only_earlier_layers():
    package = pathlib.Path(caginalp_control.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")
               if not path.stem.startswith("__")}
    assert set(modules) == set(LAYERS)
    upward = []
    for stem, path in sorted(modules.items()):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, function, target in _relative_imports(tree):
            if (LAYERS.index(target) > LAYERS.index(stem)
                    and (stem, function, target) not in ALLOWED_UPWARD):
                upward.append(f"{path.name}:{line} imports {target}")
    assert not upward, f"imports of a later layer: {upward}"
