"""Sharp Hardy-Littlewood-Sobolev machinery on model CR manifolds.

The public API is the union of the submodules' ``__all__`` lists, each
name re-exported here.
"""

from . import core, discretization, experiments, functional, heisenberg, solver, sphere
from .core import *  # noqa: F403
from .discretization import *  # noqa: F403
from .experiments import *  # noqa: F403
from .functional import *  # noqa: F403
from .heisenberg import *  # noqa: F403
from .solver import *  # noqa: F403
from .sphere import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *sorted(
        name
        for module in (core, discretization, experiments, functional, heisenberg, solver, sphere)
        for name in module.__all__
    ),
]
