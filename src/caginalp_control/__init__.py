"""Distributed optimal control of a coupled phase-field tumor-growth system.

The package discretizes a conserved phase field coupled to temperature and
nutrient evolution on rectangular grids with no-flux boundaries, provides the
exact discrete linearization and adjoint of the stepping map, a projected
gradient method for box-constrained distributed controls, dense reference
reimplementations used as oracles, and a verification battery that checks
conservation, consistency, duality and optimality properties end to end.

Each module's ``__all__`` is its public API; the package re-exports the union
of those lists and the command-line ``main``.
"""

from . import (adjoint, config, control, errors, grid, linearized, linsolve,
               model, oracle, state, verification)
from .adjoint import *
from .cli import main
from .config import *
from .control import *
from .errors import *
from .grid import *
from .linearized import *
from .linsolve import *
from .model import *
from .oracle import *
from .state import *
from .verification import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (adjoint, config, control, errors, grid,
                                      linearized, linsolve, model, oracle,
                                      state, verification)
                  for name in module.__all__} | {"main"}) + ["__version__"]
