"""specshrink: shrinkage estimation of multivariate spectral matrices.

Estimates the spectral density matrix of multi-trial multichannel time
series by combining, frequency by frequency, a parametric VAR spectral
estimate with a nonparametric smoothed periodogram, using data-driven
convex weights.  Includes partial-coherence connectivity with jackknife
two-condition tests, competitor estimators (multitaper, smoothed
periodogram), and a seeded Monte Carlo comparison harness.
"""

from .core import (ESTIMATOR_TAGS, FrequencyGrid, SpectralEstimate, ValidationReport,
                   exact_sum, extend_full_circle, hermitian_cond, hs_norm_sq, symmetrize,
                   validate_spectral)
from .errors import (DataFormatError, DegenerateChannelError, DimensionError,
                     DomainError, EmptyBandError, InsufficientDataError,
                     NearSingularError, PipelineError, RankDeficiencyError,
                     SpecshrinkError, UnstableModelError)
from .timeseries import MultiTrialSeries, detrend, standardize
from .periodogram import PeriodogramSet, compute_periodograms, mean_periodogram, raw_periodogram
from .smoothing import (SmoothingConfig, default_span_grid, hann_weights, select_span,
                        smooth_periodogram, smoothed_estimator, span_risks)
from .var import OrderSelection, VarModel, fit_var, select_var_order, var_spectrum
from .multitaper import TaperSelection, multitaper_estimator, select_taper_count, sine_tapers
from .shrinkage import (ESTIMATORS, PipelineOptions, PipelineResult, ShrinkageDiagnostics,
                        combine_estimates, estimator_separation, risk_vs_pilot,
                        shrinkage_diagnostics, shrinkage_pipeline, shrinkage_weight)
from .connectivity import (BandStats, ConnectivityResult, PairTest, apply_fdr,
                           band_average, bh_fdr, coherence, fisher_z,
                           jackknife_band_stats, pairwise_tests, partial_coherence,
                           welch_t)
from .simulation import (ComparisonResult, SimulationConfig, benchmark_ar_coefs,
                         benchmark_ma_coef, monte_carlo_compare, simulate_mixture,
                         simulate_var, simulate_vma, true_mixture_spectrum, vma_spectrum)
from .io import RunConfig, read_config, read_trials, read_trials_csv, write_trials

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
