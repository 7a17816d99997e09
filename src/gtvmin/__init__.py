"""Graph total variation minimization for clustered federated learning.

Per-node linear models are trained jointly by penalizing parameter
differences across a weighted similarity graph, and the resulting
cluster-wise deviations are certified against a closed-form spectral
bound.
"""

from . import analysis, data, errors, graph, solver
from .analysis import *
from .data import *
from .errors import *
from .graph import *
from .solver import *

__version__ = "0.1.0"

__all__ = analysis.__all__ + data.__all__ + errors.__all__ + graph.__all__ + solver.__all__
