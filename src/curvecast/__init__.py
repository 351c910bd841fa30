"""Forecasting for densely observed functional time series.

Curves are reduced to score vectors on their leading principal
components, the scores are modelled with a vector autoregression, and
predictions are mapped back to curves.  Order and dimension can be
picked jointly by a prediction-error criterion, covariates can enter
the score regression, and uniform prediction bands come from rolling
out-of-sample residuals.

The package namespace holds the documented API.  Score-level building
blocks and result types stay importable from their modules, for example
``curvecast.multivar.fit_var_ols`` or ``curvecast.selection.FfpeTable``.
"""

from .bands import prediction_band, rolling_residuals
from .curves import (
    FunctionalDataset,
    Grid,
    inner_product,
    load_curves_csv,
    make_fourier_basis,
    save_curves_csv,
    synthesize,
)
from .errors import (
    CurvecastError,
    DimensionMismatchError,
    IllConditionedError,
    IngestError,
    InsufficientDataError,
    NonstationaryError,
    NumericalDegeneracyError,
    RankDeficiencyError,
    ResolutionError,
    SelectionError,
)
from .experiments import (
    load_numeric_csv,
    make_pm10_analog,
    run_benchmark,
    run_forecast_experiment,
)
from .forecast import (
    bosq_predict,
    equivalence_gap,
    predict_fts,
    predict_with_covariates,
    scalar_predict,
)
from .fpca import ScoreMatrix, eigensystem, pve_dimension, reconstruct, scores
from .ingest import ingest
from .selection import ffpe, select_pd
from .simulate import ProcessSpec, bias_bound, fixed_psi, random_operator, sigma_scheme, simulate

__version__ = "0.1.0"

__all__ = [
    "CurvecastError",
    "DimensionMismatchError",
    "FunctionalDataset",
    "Grid",
    "IllConditionedError",
    "IngestError",
    "InsufficientDataError",
    "NonstationaryError",
    "NumericalDegeneracyError",
    "ProcessSpec",
    "RankDeficiencyError",
    "ResolutionError",
    "ScoreMatrix",
    "SelectionError",
    "bias_bound",
    "bosq_predict",
    "eigensystem",
    "equivalence_gap",
    "ffpe",
    "fixed_psi",
    "ingest",
    "inner_product",
    "load_curves_csv",
    "load_numeric_csv",
    "make_fourier_basis",
    "make_pm10_analog",
    "predict_fts",
    "predict_with_covariates",
    "prediction_band",
    "pve_dimension",
    "random_operator",
    "reconstruct",
    "rolling_residuals",
    "run_benchmark",
    "run_forecast_experiment",
    "save_curves_csv",
    "scalar_predict",
    "scores",
    "select_pd",
    "sigma_scheme",
    "simulate",
    "synthesize",
]
