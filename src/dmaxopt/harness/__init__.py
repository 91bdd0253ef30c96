"""Experiment harness: configs, the deterministic runner, gradient
checking, fairness metrics, and the command-line interface (``cli``,
which is not re-exported)."""

from . import config, fairness, gradcheck, runner
from .config import *
from .fairness import *
from .gradcheck import *
from .runner import *

__all__ = [*config.__all__, *fairness.__all__, *gradcheck.__all__,
           *runner.__all__]
