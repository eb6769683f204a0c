"""Exact classification toolkit for toric rings of integral cyclic polytopes.

Construct an instance from a dimension and strictly increasing integer
parameters, then classify the two associated semigroup rings: the one
generated by all lattice points of the homogenised polytope and the one
generated by its vertices alone.  Every classification route has an
independent exact cross-check, and disagreements surface as findings.
Everything else is imported from its own module.
"""

from .core import CycloParams, InvalidParameters, build_params
from .kp import classify_kp
from .kq import classify_kq
from .lattice import BudgetExceeded

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CycloParams",
    "InvalidParameters",
    "build_params",
    "classify_kp",
    "classify_kq",
]
