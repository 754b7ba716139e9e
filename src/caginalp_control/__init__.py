"""Distributed optimal control of a coupled phase-field tumor-growth system.

The package discretizes a conserved phase field coupled to temperature and
nutrient evolution on rectangular grids with no-flux boundaries, provides the
exact discrete linearization and adjoint of the stepping map, a projected
gradient method for box-constrained distributed controls, dense reference
reimplementations used as oracles, and a verification battery that checks
conservation, consistency, duality and optimality properties end to end.

Submodule attributes are re-exported lazily so that the command line can
configure thread pools before the array libraries load.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "ConfigurationError": "errors",
    "SolverError": "errors",
    "OptimizerError": "errors",
    # grid
    "Grid": "grid",
    "TimeGrid": "grid",
    "Field": "grid",
    "SpaceTimeField": "grid",
    "Trajectory": "grid",
    "laplacian_matrix": "grid",
    "quadrature_weights": "grid",
    "l2q_inner": "grid",
    "l2q_norm": "grid",
    "write_field_csv": "grid",
    "read_field_csv": "grid",
    "write_space_time_csv": "grid",
    "read_space_time_csv": "grid",
    # model
    "ModelParams": "model",
    "Nonlinearities": "model",
    "Potential": "model",
    "default_nonlinearities": "model",
    "default_potential": "model",
    "zero_potential": "model",
    "ValidationCheck": "model",
    "ValidationReport": "model",
    "validate": "model",
    # oracle
    "MAX_NODES_PER_AXIS": "oracle",
    "MAX_TIME_STEPS": "oracle",
    "dense_laplacian": "oracle",
    "dense_weights": "oracle",
    "dense_oracle_solve": "oracle",
    "oracle_linearized": "oracle",
    "oracle_adjoint": "oracle",
    "oracle_terminal_conditions": "oracle",
    "oracle_cost": "oracle",
    # linsolve
    "FactorizedOperator": "linsolve",
    # state
    "SolverConfig": "state",
    "InitialData": "state",
    "DiagnosticsRecord": "state",
    "StepOperators": "state",
    "initial_mu": "state",
    "solve_state": "state",
    "ch_energy": "state",
    "y_norm": "state",
    "trajectory_distance_y": "state",
    # linearized
    "solve_linearized": "linearized",
    "TaylorRow": "linearized",
    "TaylorReport": "linearized",
    "taylor_test": "linearized",
    # adjoint
    "AdjointSources": "adjoint",
    "solve_adjoint_with_sources": "adjoint",
    "reduced_gradient": "adjoint",
    # control
    "CostSpec": "control",
    "AdmissibleSet": "control",
    "OptimizerConfig": "control",
    "Problem": "control",
    "IterateRecord": "control",
    "OptimizationReport": "control",
    "evaluate_cost": "control",
    "cost_sources": "control",
    "GradientResult": "control",
    "project_admissible": "control",
    "projected_gradient_descent": "control",
    "StationarityReport": "control",
    "stationarity_check": "control",
    # verification
    "SUITE_NAMES": "verification",
    "VerifySuiteConfig": "verification",
    "TestResult": "verification",
    "VerifyReport": "verification",
    "run_suite": "verification",
    # config
    "RunConfig": "config",
    "load_config": "config",
    "EFFECTIVE_CONFIG_NAME": "config",
    # cli
    "main": "cli",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
