"""Self-similarity exponent toolkit: estimators, fBm synthesis, rolling scans."""

from .errors import (
    DegenerateRegression,
    DuplicateDate,
    DuplicateInstrument,
    EmptyUniverse,
    HurstLabError,
    InvalidH,
    InvalidSetting,
    MalformedRow,
    NonFiniteInput,
    NonPositivePrice,
    SeriesTooShort,
    TooFewObservations,
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
from .ingest import ingest_csv, ingest_dir, write_csv
from .pipeline import (
    ANY_LABEL,
    QUINTILE_LABELS,
    TAIL_LABELS,
    TRADING_DAYS_PER_YEAR,
    BucketReport,
    BucketRow,
    Diagnostic,
    ObservationPool,
    ScanResult,
    ScanSpec,
    annualize,
    bucketize,
    report,
    scan,
)
from .reporting import observations_csv, render_method_table, report_csv
from .series import (
    LogSeries,
    PriceSeries,
    RegressionFit,
)
from .synthetic import FbmSpec, fgn_autocovariance, generate_drifted_cohort, generate_fbm

__version__ = "0.1.0"
