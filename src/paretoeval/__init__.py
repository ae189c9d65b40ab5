"""Evaluation toolkit for Pareto (nondominated) solution sets.

Compare the solution sets that multi-objective optimizers return: dominance
relations between solutions and whole sets, quality indicators for
convergence / spread / uniformity / cardinality, preference-aware
preprocessing, and guidance that assembles an evaluation plan and flags
common evaluation mistakes.

The package exports the public names of its five library modules, as each
module's ``__all__`` lists them; the command line lives in
``paretoeval.cli`` and is not imported here.
"""

from . import core, doe, guidance, indicators, preprocess
from .core import *  # noqa: F401,F403
from .preprocess import *  # noqa: F401,F403
from .indicators import *  # noqa: F401,F403
from .doe import *  # noqa: F401,F403
from .guidance import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (core, preprocess, indicators, doe, guidance)
    for name in module.__all__
]
