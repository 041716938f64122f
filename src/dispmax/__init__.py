"""Numerical lab for directional maximal estimates of dispersive propagators."""

from .config import ExperimentConfig, ResultTable, __version__, parse_config, read_csv, write_csv
from .directions import (
    CoverResult,
    DirectionSet,
    box_count,
    cover_set,
    make_cantor,
    make_intervals,
    make_points,
    parse_direction_spec,
)
from .filters import project, psi, psi0, psi_k
from .kernel import (
    decay_bound_scan,
    kernel_value,
    standard_phases,
    van_der_corput_check,
)
from .maximal import (
    NormEstimate,
    convergence_scan,
    estimate_operator_norm,
    fit_scaling_exponent,
    grid_for_band,
    lq_norm,
    maximal_function,
)
from .spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    check_dispersion_conditions,
    evolve,
    forward_transform,
    inverse_transform,
    make_sobolev_data,
    sobolev_norm,
)
