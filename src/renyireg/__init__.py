"""Robust estimation and inference for normal linear regression with fixed
design, built on the minimum Renyi-pseudodistance estimator.

The tuning parameter ``alpha >= 0`` trades efficiency for robustness:
``alpha = 0`` is exact maximum likelihood, larger values downweight
observations with large standardized residuals.
"""

__version__ = "0.1.0"

from . import data, estimation, exceptions, inference, model, numerics, robustness, simulation
from .data import *
from .estimation import *
from .exceptions import *
from .inference import *
from .model import *
from .numerics import *
from .robustness import *
from .simulation import *

# each public name is declared once, in the __all__ of the module defining it
__all__ = sorted(
    name
    for module in (data, estimation, exceptions, inference, model, numerics, robustness, simulation)
    for name in module.__all__
)
