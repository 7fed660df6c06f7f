"""Divergence bounds and posterior rate studies for binned binary regression."""

from . import config, divergence, models, penalized, posterior, rate_bounds, rng, study
from .config import *
from .divergence import *
from .models import *
from .penalized import *
from .posterior import *
from .rate_bounds import *
from .rng import *
from .study import *

__version__ = "0.1.0"

# each public name is listed once, in its own module's __all__
__all__ = [name for module in (config, divergence, models, penalized, posterior,
                               rate_bounds, rng, study)
           for name in module.__all__]
