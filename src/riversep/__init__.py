"""riversep: source separation for river water-quality records.

Parses monitoring tables (USGS RDB or CSV), reduces them to annual means,
and decomposes the result with PCA, FastICA, and maximum-likelihood factor
analysis, plus the supporting diagnostics (autocorrelation, mutual
information, Moran's I) and a synthetic benchmark harness.
"""

__version__ = "0.1.0"

from . import errors
from .diagnostics import (
    AcfResult,
    SpatialWeights,
    acf,
    morans_i,
    mutual_information_discrete,
    mutual_information_matrix,
)
from .fa import (
    FactorSelection,
    FaModel,
    fa_dof,
    fit_fa_ml,
    fit_fa_ml_corr,
    profiled_discrepancy,
    smallest_adequate_k,
)
from .ica import IcaConfig, IcaModel, amari_index, fast_ica
from .ingest import (
    FilterSpec,
    Table,
    drop_incomplete_rows,
    emit_csv,
    fetch_remote,
    filter_table,
    parse_csv,
    parse_rdb,
)
from .linalg import correlation_matrix, covariance_matrix
from .pca import PcaModel, explained_variance, fit_pca, kaiser_retain, scores
from .preprocess import (
    RedundancyRule,
    annual_mean,
    difference,
    drop_na_columns,
    drop_redundant,
)
from .synth import (
    RecoveryReport,
    SyntheticScenario,
    evaluate_recovery,
    generate_scenario,
)

__all__ = [
    "__version__",
    "errors",
    # dense matrix primitives
    "correlation_matrix",
    "covariance_matrix",
    # ingestion
    "FilterSpec",
    "Table",
    "drop_incomplete_rows",
    "emit_csv",
    "fetch_remote",
    "filter_table",
    "parse_csv",
    "parse_rdb",
    # preprocessing
    "RedundancyRule",
    "annual_mean",
    "difference",
    "drop_na_columns",
    "drop_redundant",
    # principal components
    "PcaModel",
    "explained_variance",
    "fit_pca",
    "kaiser_retain",
    "scores",
    # independent components
    "IcaConfig",
    "IcaModel",
    "amari_index",
    "fast_ica",
    # factor analysis
    "FaModel",
    "FactorSelection",
    "fa_dof",
    "fit_fa_ml",
    "fit_fa_ml_corr",
    "profiled_discrepancy",
    "smallest_adequate_k",
    # diagnostics
    "AcfResult",
    "SpatialWeights",
    "acf",
    "morans_i",
    "mutual_information_discrete",
    "mutual_information_matrix",
    # synthetic benchmark
    "RecoveryReport",
    "SyntheticScenario",
    "evaluate_recovery",
    "generate_scenario",
]
