"""Entanglement quantification for photon triplets from third-order
parametric down-conversion: exact tripartite entanglement of formation for
triple-Gaussian states, conservative entropic witnesses built from position
and momentum correlations, generation-rate estimates, and a multiresolution
coincidence-scan simulation."""

__version__ = "0.1.0"

from .entropy import (
    DiscretePMF,
    Histogram1D,
    binary_entropy,
    conditional_entropy,
    differential_entropy_from_histogram,
    gaussian_differential_entropy,
    mutual_information,
    shannon_entropy,
)
from .states import (
    PairStatistics,
    SampleSet,
    TripleGaussianState,
    UnsupportedStateError,
    exact_e3f,
    mancini_bound,
    pair_statistics,
    rotate_from_uvw,
    rotate_to_uvw,
    sample_momenta,
    sample_positions,
    to_momentum,
)
from .spdc import (
    ConfigError,
    SpdcConfig,
    closed_form_witness,
    gaussian_fit_widths,
    joint_spectral_amplitude,
    load_config,
    qpm_penalty,
    triphoton_momentum_amplitude,
    triplet_rate,
    witness_sweep,
)
from .witness import (
    SPDC_COEFFICIENTS,
    CorrelationCheckReport,
    DiscreteWitnessInput,
    WitnessCoefficients,
    continuous_witness,
    discrete_witness,
    load_momentum_samples,
    load_position_samples,
    optimize_coefficients,
    verify_correlation_relation,
    witness_from_samples,
)
from .scan import (
    PartitionTree,
    default_threshold,
    scan_pair,
    simulate_adaptive_scan,
    tree_to_linear_histograms,
)
from .report import EntanglementReport
