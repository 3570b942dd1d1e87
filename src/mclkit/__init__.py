"""Desk-scale multiple-choice-learning ensembles.

Train small ensembles whose members specialize to class subsets, using the
independent-ensemble baseline, stochastic top-K assignment, the confident
(uniform-penalty) variant, or the auxiliary-class objective with
memory-based assignment and optional cross-member feature fusion.

The package exports its error taxonomy; everything else is imported from
its module (``mclkit.training.train``, ``mclkit.data.build_dataset``, …).
"""

from .errors import (
    CompatibilityError,
    ConfigurationError,
    FormatError,
    InputError,
    MclError,
    NumericError,
    StateError,
    UnsupportedMethodError,
)

__version__ = "0.1.0"
