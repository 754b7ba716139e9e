"""Each of the package's modules imports only the layers below it, only
the block solves raise a SolverError, only the config validates the model,
and the model declares no function the scheme does not call."""

import ast
import dataclasses
import pathlib

import caginalp_control
from caginalp_control import default_nonlinearities, default_potential

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


def _calls(name):
    """``file:line`` of each call of ``name`` in the package."""
    package = pathlib.Path(caginalp_control.__file__).parent
    calls = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    calls.add(f"{path.name}:{node.lineno}")
    return calls


def test_only_the_block_solves_construct_solver_errors():
    # A SolverError built outside linsolve would name no block; a sweep
    # leaves non-finite values to the block solve that meets them.
    builders = _calls("SolverError")
    assert builders
    assert all(b.startswith("linsolve.py:") for b in builders), builders


def test_only_the_config_validates_the_model():
    # load_config admits a run's model before any target solve; a second
    # check elsewhere would run after that solve, or not at all.
    callers = _calls("validate")
    assert callers
    assert all(c.startswith("config.py:") for c in callers), callers


def test_every_model_function_is_called_outside_the_model():
    # A gate or potential function that only validate reads is one every
    # custom gate file must supply for nothing.
    package = pathlib.Path(caginalp_control.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "model.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute))
    declared = {field.name
                for made in (default_nonlinearities(), default_potential())
                for field in dataclasses.fields(made)
                if callable(getattr(made, field.name))}
    assert declared
    assert declared <= read, sorted(declared - read)
