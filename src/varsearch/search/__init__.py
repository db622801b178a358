"""Configuration search: the space, candidate scoring and the engines."""

from . import space, evaluation, engines
from .space import *
from .evaluation import *
from .engines import *

__all__ = []
__all__ += space.__all__
__all__ += evaluation.__all__
__all__ += engines.__all__
