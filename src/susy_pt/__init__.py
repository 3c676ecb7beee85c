"""Supersymmetric structure of the deformed trigonometric Poschl-Teller
oscillator family: exact spectra and eigenfunctions, ladder operators,
shape-invariance hierarchy, and an independent numerical oracle.

The public names are those each module lists in its own __all__.
"""

from . import ladder, model, numeric, verify, wavefun
from .model import *
from .wavefun import *
from .ladder import *
from .numeric import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *wavefun.__all__,
    *ladder.__all__,
    *numeric.__all__,
    *verify.__all__,
    "__version__",
]
