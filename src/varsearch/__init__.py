"""Vector autoregression estimation with criterion-driven model search.

The library estimates VAR models with optional exogenous lags by least
squares, scores them with information criteria (AIC, BIC, HQC), and picks
lag orders and variable roles either exhaustively or with metaheuristics.
A second search mode optimizes the coefficients themselves and measures
how close it gets to the least-squares optimum.  Synthetic generation,
forecasting, CSV ingestion and reporting round out the toolkit.
"""

from . import _version, coeffsearch, criteria, csvio, design, errors
from . import model, ols, reports, search, simulate
from ._version import *
from .coeffsearch import *
from .criteria import *
from .csvio import *
from .design import *
from .errors import *
from .model import *
from .ols import *
from .reports import *
from .search import *
from .simulate import *

__all__ = []
__all__ += _version.__all__
__all__ += coeffsearch.__all__
__all__ += criteria.__all__
__all__ += csvio.__all__
__all__ += design.__all__
__all__ += errors.__all__
__all__ += model.__all__
__all__ += ols.__all__
__all__ += reports.__all__
__all__ += search.__all__
__all__ += simulate.__all__
