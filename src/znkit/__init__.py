"""Toolkit for uniformity norms, prime majorants, and energy-increment
decompositions on the cyclic group Z_N.

The package's public names are its five layers' __all__ lists, joined.
"""

from . import core, gowers, arith, pseudo, transference
from .core import *
from .gowers import *
from .arith import *
from .pseudo import *
from .transference import *

__all__ = [*core.__all__, *gowers.__all__, *arith.__all__, *pseudo.__all__,
           *transference.__all__]

__version__ = "0.1.0"
