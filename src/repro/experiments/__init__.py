"""Experiment runners that regenerate the paper's tables and figures.

Every module corresponds to one experiment of Section 5 (or Section 4.5
for the analytical figures); the README's "Reproducing the paper"
section shows how ``repro-bench`` runs them as scenarios.  The runners
accept scale parameters so the benchmark harness can execute
reduced-size versions quickly, while the defaults follow the paper's
configuration.
"""

from repro.experiments.harness import (
    AlgorithmSpec,
    ExperimentResult,
    default_algorithms,
    evaluate_result,
    format_series_table,
    run_best_of,
)
from repro.experiments.knowledge_analysis import run_figure1, run_figure2
from repro.experiments.raw_accuracy import run_raw_accuracy
from repro.experiments.parameter_sensitivity import run_parameter_sensitivity
from repro.experiments.outlier_immunity import run_outlier_immunity
from repro.experiments.knowledge_input import run_coverage_experiment, run_input_size_experiment
from repro.experiments.multiple_groupings import run_multiple_groupings
from repro.experiments.scalability import run_scalability
from repro.experiments.ablations import (
    run_initialisation_ablation,
    run_representative_ablation,
    run_threshold_scheme_ablation,
)

__all__ = [
    "AlgorithmSpec",
    "ExperimentResult",
    "default_algorithms",
    "evaluate_result",
    "format_series_table",
    "run_best_of",
    "run_figure1",
    "run_figure2",
    "run_raw_accuracy",
    "run_parameter_sensitivity",
    "run_outlier_immunity",
    "run_input_size_experiment",
    "run_coverage_experiment",
    "run_multiple_groupings",
    "run_scalability",
    "run_initialisation_ablation",
    "run_representative_ablation",
    "run_threshold_scheme_ablation",
]
