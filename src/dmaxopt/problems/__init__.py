"""Problem builders: synthetic closed-form instances, the two data-driven
applications (positive-unlabeled classification, partial-AUC with a
fairness adversary), and dataset loading."""

from .bias import BiasReport, oracle_bias_report
from .data import LabeledDataset, load_libsvm
from .pauc import (
    PaucParams,
    fairness_dual_grad,
    fairness_payoff,
    pauc_fair_problem,
    pauc_full_subgrads,
    pauc_objective,
    split_scorer,
    synth_biased_pauc,
)
from .pu import (
    PuParams,
    make_pu_problem,
    pu_full_subgrads,
    pu_objective,
    synth_gaussian_pu,
)
from .synthetic import (
    make_onedim_dwc,
    make_quadratic_minmax,
    piecewise_quadratic,
    zero_function,
)

__all__ = [
    "BiasReport",
    "oracle_bias_report",
    "LabeledDataset",
    "load_libsvm",
    "PaucParams",
    "fairness_dual_grad",
    "fairness_payoff",
    "pauc_fair_problem",
    "pauc_full_subgrads",
    "pauc_objective",
    "split_scorer",
    "synth_biased_pauc",
    "PuParams",
    "make_pu_problem",
    "pu_full_subgrads",
    "pu_objective",
    "synth_gaussian_pu",
    "make_onedim_dwc",
    "make_quadratic_minmax",
    "piecewise_quadratic",
    "zero_function",
]
