"""Constrained projection least-squares drift estimation for SDE pairs.

Estimates the two drift components of
``dX = (a(X) + b(Y)) dt + sigma(X) dW1`` from independent path copies of
``(X, Y)``, under the identifiability constraint that ``b`` integrates to
zero. Includes path simulation, orthonormal basis machinery, the
closed-form constrained solver, adaptive dimension selection, and a
Monte-Carlo experiment harness with a command-line front end.

The top level holds the names of the README's "Library use" example; every
other name is imported from its module (``cpls.design``,
``cpls.experiments``, ...). So ``import cpls`` loads neither the
Monte-Carlo harness nor the command line.
"""

from .bases import HERMITE
from .selection import SelectionConfig, select_adaptive
from .simulate import GridSpec, explanatory_by_name, generate_sample, make_model

__version__ = "0.1.0"
