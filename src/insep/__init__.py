"""Detection of n-qubit full (n-partite) inseparability of density operators.

Two one-sided criterion families are provided: off-diagonal magnitude bounds
keyed to the Hamming distance between basis indices, and negativity of the
operator after partial application of positive single-qubit maps, chiefly
the population-averaging map P.
"""

from . import criteria, linalg, maps, states
from .criteria import *
from .linalg import *
from .maps import *
from .states import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package re-exports all four.
__all__ = []
__all__ += criteria.__all__
__all__ += linalg.__all__
__all__ += maps.__all__
__all__ += states.__all__
