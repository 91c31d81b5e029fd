"""Multi-frequency Gaussian synchronization over finite groups and the circle.

Subpackages:

  * :mod:`groupsynch.groups` — finite groups, irreps, Fourier machinery;
  * :mod:`groupsynch.ensembles` — GOE/GUE/GSE sampling;
  * :mod:`groupsynch.models` — observation samplers and the noisy-indicator
    change of basis;
  * :mod:`groupsynch.ldlr` — low-degree likelihood-ratio second moments by
    exact, brute-force, tuple-counting and Monte-Carlo routes;
  * :mod:`groupsynch.bounds` — moment-inequality verification;
  * :mod:`groupsynch.eigen` — top eigenvalues, dense or Lanczos, on one
    BLAS thread;
  * :mod:`groupsynch.detect` — spectral detection with null calibration;
  * :mod:`groupsynch.experiments` — reproducible sweeps and suites.
"""

from .bounds import (BoundCheck, check_clt_moment_bound, check_l3_moment_bound,
                     check_t_recursion)
from .detect import (DetectionVerdict, DetectorConfig, calibrate_threshold,
                     detect, power_curve)
from .eigen import top_eigenvalue
from .ensembles import EnsembleKind, NoiseMatrix, sample, spectral_edge_check
from .errors import (ConfigError, DivergentSeriesError, GroupsynchError,
                     InvalidParameterError, NonConvergenceError,
                     NumericalInconsistencyError, NumericalOverflowError,
                     ResourceLimitError)
from .experiments import (ExperimentConfig, phase_diagram, run,
                          stat_threshold_lower_bound, stat_threshold_upper_bound)
from .groups import (FiniteGroup, Irrep, IrrepList, build_catalog, build_cyclic,
                     build_dihedral, build_quaternion8, frobenius_schur,
                     peter_weyl_orthogonality_check, regular_rep_unitary)
from .ldlr import (LdlrReport, first_moment_via_binomial, group_overlap_stat,
                   ldlr_bruteforce_signals, ldlr_exact_multinomial, ldlr_from_md,
                   ldlr_montecarlo_overlap, md_count, moment_table, polylog_neg,
                   sample_overlaps)
from .models import (IndicatorObservation, Model, SignalVector,
                     SynchObservation, indicator_to_canonical,
                     sample_gsynch_circle, sample_gsynch_cyclic,
                     sample_gsynch_group, sample_indicator, sample_signal)

__version__ = "0.1.0"
