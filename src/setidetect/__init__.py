"""Detection statistics for paired ON/OFF radio power measurements.

The package provides the exact sampling laws of three detector statistics
built from mean-power estimates of complex baseband streams (`distributions`),
the mapping from interference/signal scenarios to those laws (`scenario`), a
seeded Monte Carlo synthesis harness (`simulator`), analytic ROC machinery
(`roc`), and a batch command-line front-end (`cli`).
"""

__version__ = "0.1.0"

from .distributions import (
    ComputationError,
    FLaw,
    GammaDifference,
    NoncentralChi2C,
    ScaledGamma,
    law_quantile,
    law_sample,
)
from .roc import (
    DetectorComparison,
    RocCurve,
    auc,
    compare_detectors,
    pd_pfa,
    roc_curve,
    threshold_for_pfa,
)
from .scenario import (
    DetectorKind,
    EtKind,
    Hypothesis,
    RfiKind,
    ScenarioSpec,
    default_assumed_noise,
    detector_laws,
    energy_law,
    f_ratio_law,
    off_distribution,
    on_distribution,
    onoff_law,
)
from .simulator import (
    ChirpParams,
    Steering,
    TrialBatch,
    default_chirps,
    detector_stat,
    power_estimate,
    run_paired_estimates,
    run_trials,
    spectrogram,
    synth_stream,
)

__all__ = [
    "ChirpParams",
    "ComputationError",
    "DetectorComparison",
    "DetectorKind",
    "EtKind",
    "FLaw",
    "GammaDifference",
    "Hypothesis",
    "NoncentralChi2C",
    "RfiKind",
    "RocCurve",
    "ScaledGamma",
    "ScenarioSpec",
    "Steering",
    "TrialBatch",
    "__version__",
    "auc",
    "compare_detectors",
    "default_assumed_noise",
    "default_chirps",
    "detector_laws",
    "detector_stat",
    "energy_law",
    "f_ratio_law",
    "law_quantile",
    "law_sample",
    "off_distribution",
    "on_distribution",
    "onoff_law",
    "pd_pfa",
    "power_estimate",
    "roc_curve",
    "run_paired_estimates",
    "run_trials",
    "spectrogram",
    "synth_stream",
    "threshold_for_pfa",
]
