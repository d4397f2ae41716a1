"""Interrater agreement and Monte Carlo subset-agreement analysis.

The pipeline: build or load a complete rater x item annotation matrix
(:mod:`kappasim.corpus`), measure its agreement with Fleiss' kappa
(:mod:`kappasim.agreement`), study how agreement of random rater subsets
behaves (:mod:`kappasim.mc`), model the worst-case subset agreement with
a closed-form rational curve (:mod:`kappasim.minfit`), and quantify
cross-team dispersion as coefficient-of-variation interval estimates
(:mod:`kappasim.dispersion`). The ``kappasim`` command in
:mod:`kappasim.cli` wires these into reproducible file-to-file runs.
"""

from kappasim.errors import DataError
from kappasim.corpus import (
    SENTIMENT_CATEGORIES,
    AnnotationMatrix,
    ColumnMapping,
    PreprocessReport,
    RawSurveyTable,
    generate_synthetic,
    load_mapping,
    load_raw,
    preprocess,
    read_matrix,
    write_matrix,
)
from kappasim.agreement import KappaValue, fleiss_kappa, kappa_from_counts
from kappasim.mc import (
    ExperimentConfig,
    RunSet,
    SubsetStats,
    read_runs,
    read_stats,
    run_experiment,
    sample_team,
    summarize,
    summarize_table,
    write_runs,
    write_stats,
)
from kappasim.minfit import (
    FREE_BY_STAGE,
    STAGES,
    MinPoints,
    ModelFit,
    eval_min_model,
    extract_minima,
    fit,
    fit_report_json,
    format_fit_report,
    r_squared,
    stage_model,
    write_minima,
)
from kappasim.dispersion import (
    EMPIRICAL_RULE_PERCENT,
    IntervalEstimate,
    VariationConfig,
    VariationTable,
    cv_percent,
    interval_estimate,
    read_variation,
    run_variation,
    write_intervals,
    write_variation,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "SENTIMENT_CATEGORIES",
    "AnnotationMatrix",
    "ColumnMapping",
    "PreprocessReport",
    "RawSurveyTable",
    "generate_synthetic",
    "load_mapping",
    "load_raw",
    "preprocess",
    "read_matrix",
    "write_matrix",
    "KappaValue",
    "fleiss_kappa",
    "kappa_from_counts",
    "ExperimentConfig",
    "RunSet",
    "SubsetStats",
    "read_runs",
    "read_stats",
    "run_experiment",
    "sample_team",
    "summarize",
    "summarize_table",
    "write_runs",
    "write_stats",
    "FREE_BY_STAGE",
    "STAGES",
    "MinPoints",
    "ModelFit",
    "eval_min_model",
    "extract_minima",
    "fit",
    "fit_report_json",
    "format_fit_report",
    "r_squared",
    "stage_model",
    "write_minima",
    "EMPIRICAL_RULE_PERCENT",
    "IntervalEstimate",
    "VariationConfig",
    "VariationTable",
    "cv_percent",
    "interval_estimate",
    "read_variation",
    "run_variation",
    "write_intervals",
    "write_variation",
    "__version__",
]
