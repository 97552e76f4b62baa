"""Self-similarity exponent toolkit: estimators, fBm synthesis, rolling scans."""

from .errors import (
    DegenerateRegression,
    DuplicateDate,
    DuplicateInstrument,
    EmbeddingFailure,
    EmptyUniverse,
    HurstLabError,
    InvalidH,
    MalformedRow,
    NonFiniteInput,
    NonPositivePrice,
    SeriesTooShort,
    TooFewObservations,
    ZeroSignal,
)
from .estimators import (
    DFA_MODE_PROFILE,
    DFA_MODE_RAW,
    EstimatorConfig,
    HEstimate,
    Method,
    default_config,
    dfa,
    estimate,
    ghe,
    gm2,
)
from .ingest import emit_csv, ingest_csv, ingest_dir, write_csv
from .pipeline import (
    ANY_LABEL,
    QUINTILE_LABELS,
    TAIL_LABELS,
    TRADING_DAYS_PER_YEAR,
    BucketReport,
    BucketRow,
    Diagnostic,
    Observation,
    ScanResult,
    ScanSpec,
    annualize,
    bucketize,
    report,
    scan,
)
from .reporting import observations_csv, render_method_table, render_report_table, report_csv
from .series import (
    LogSeries,
    PriceSeries,
    RegressionFit,
    log_returns,
    ols_slope,
    ols_slope_xy,
    to_log_prices,
)
from .synthetic import FbmSpec, fgn_autocovariance, generate_drifted_cohort, generate_fbm

__version__ = "0.1.0"
