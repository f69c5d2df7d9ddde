"""Polynomial-calculus laboratory: ordering-principle formula families,
proof checking and transformation over {0,1} and {+1,-1} encodings, and
residue-operator machinery over prime fields.

Each module's ``__all__`` is its public API; this package re-exports
them all."""

from . import algebra, constructions, degreelab, formulas, proofs, transforms
from .algebra import *
from .formulas import *
from .proofs import *
from .transforms import *
from .constructions import *
from .degreelab import *

__all__ = (
    algebra.__all__
    + formulas.__all__
    + proofs.__all__
    + transforms.__all__
    + constructions.__all__
    + degreelab.__all__
)

__version__ = "0.1.0"
