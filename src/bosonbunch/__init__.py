"""Boson sampling in the collision regime.

Repeated output ports make the underlying permanents cheaper; this package
computes those permanents, draws exact samples from the output distribution,
and quantifies the speedup with occupied-port statistics and operation-count
bounds.

The package exposes exactly the ``__all__`` of each module below; a public
name is declared there and nowhere else.
"""

from . import errors, matrices, permanent, portstats, sampler, validate
from .errors import *
from .matrices import *
from .permanent import *
from .portstats import *
from .sampler import *
from .validate import *

__all__ = [
    *errors.__all__,
    *matrices.__all__,
    *permanent.__all__,
    *portstats.__all__,
    *sampler.__all__,
    *validate.__all__,
]

__version__ = "0.1.0"
