"""Problem builders: synthetic closed-form instances, the two data-driven
applications (positive-unlabeled classification, partial-AUC with a
fairness adversary), and dataset loading."""

from . import bias, data, pauc, pu, synthetic
from .bias import *
from .data import *
from .pauc import *
from .pu import *
from .synthetic import *

__all__ = [*bias.__all__, *data.__all__, *pauc.__all__, *pu.__all__,
           *synthetic.__all__]
