"""Each of the package's modules imports only the layers below it, and only
the block solves raise a SolverError."""

import ast
import pathlib

import caginalp_control

# Dependency order of the package's modules, lowest first.
LAYERS = ("errors", "grid", "model", "linsolve", "state", "linearized",
          "adjoint", "control", "oracle", "verification", "config", "cli")
# (module, function, imported module) of the one upward import:
# reduced_gradient stays in adjoint and reads the gradient from control.
ALLOWED_UPWARD = {("adjoint", "reduced_gradient", "control")}


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


def test_only_the_block_solves_construct_solver_errors():
    # A SolverError built outside linsolve would name no block; a sweep
    # leaves non-finite values to the block solve that meets them.
    package = pathlib.Path(caginalp_control.__file__).parent
    builders = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "SolverError":
                    builders.add(f"{path.name}:{node.lineno}")
    assert builders
    assert all(b.startswith("linsolve.py:") for b in builders), builders
