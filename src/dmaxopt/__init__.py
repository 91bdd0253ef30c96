"""dmaxopt: single-loop stochastic optimization of difference-of-max and
weakly convex min-max objectives via envelope smoothing.

Imports: every public name can be imported from its module or from its
package.  A package re-exports exactly its modules' ``__all__`` lists, so
each name is declared once, in its module.  This package re-exports
``core``, ``moreau``, ``smag`` and ``baselines``; ``dmaxopt.problems``
and ``dmaxopt.harness`` re-export theirs.
"""

from . import baselines, core, moreau, smag
from .baselines import *
from .core import *
from .moreau import *
from .smag import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *moreau.__all__, *smag.__all__, *baselines.__all__,
           "__version__"]
