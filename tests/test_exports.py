"""The package's lazy re-exports name attributes that exist."""

import importlib

import caginalp_control


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
