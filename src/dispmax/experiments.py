"""Experiment drivers wiring the core modules to result tables."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig, ResultTable, provenance_block
from .directions import _dimension_fit, cover_set, dimension_table
from .errors import ConfigError
from .filters import MAX_BAND
from .kernel import decay_bound_scan
from .maximal import convergence_scan, estimate_operator_norm, fit_scaling_exponent
from .spectral import make_sobolev_data


def run_scaling_experiment(cfg: ExperimentConfig):
    """Per-band operator-norm lower bounds over the direction-set cover.

    For each k, every interval of the lambda^(-sigma) cover of Theta is probed
    with estimate_operator_norm and the per-k maximum recorded; the growth
    exponent is fitted on the per-k values.  Returns (table, (slope,
    intercept, residual)).
    """
    # checked before any scan: the fit needs three bands, each in the filter bank
    if not (1 <= cfg.k_min and cfg.k_max - cfg.k_min >= 2 and cfg.k_max <= MAX_BAND):
        raise ConfigError(
            f"need 1 <= k_min, k_max <= {MAX_BAND} and k_max - k_min >= 2, "
            f"got k_min={cfg.k_min}, k_max={cfg.k_max}"
        )
    sigma = cfg.resolved_sigma()
    rows, per_k = [], []
    for k in range(cfg.k_min, cfg.k_max + 1):
        lam = 2.0**k
        cover = cover_set(cfg.directions, lam, sigma)
        best = -1.0
        best_width = 0.0
        for j, (a, b) in enumerate(cover.intervals):
            # the cover's last interval may pass 1; Omega must lie in [-1, 1]
            omega = (a, min(b, 1.0))
            est = estimate_operator_norm(
                k, omega, cfg.q, sigma, cfg.profile,
                trials=cfg.trials, seed=cfg.seed + 1000 * k + j,
                half_width=cfg.half_width, x_count=cfg.x_count,
            )
            if est.value > best:
                best = est.value
                best_width = omega[1] - omega[0]
        per_k.append((k, best))
        rows.append((k, lam, cfg.q, sigma, best_width, best, cfg.trials, cfg.seed))
    fit = fit_scaling_exponent(per_k)
    envelope = max(v * 2.0 ** (-k / 4.0) for k, v in per_k)
    table = ResultTable(
        names=("k", "lambda", "q", "sigma", "omega_width", "norm_estimate", "trials", "seed"),
        rows=rows,
        provenance=provenance_block(
            cfg, experiment="norm-scaling", fitted_slope=fit[0],
            fitted_intercept=fit[1], fit_residual=fit[2], envelope_constant=envelope,
        ),
    )
    return table, fit


def run_convergence_experiment(cfg: ExperimentConfig):
    """Median/max sup-error of S_t f(x + t*theta) - f(x) over shrinking scales."""
    scales = [2.0**-e for e in range(cfg.scale_max_exp, cfg.scale_min_exp + 1)]
    f = make_sobolev_data(cfg.s, cfg.seed, half_width=cfg.half_width, n=cfg.n_grid)
    levels, sup = convergence_scan(f, cfg.directions, cfg.profile, scales, x_count=cfg.x_count)
    rows = [(float(cfg.s), float(r), float(np.median(err)), float(np.max(err)))
            for r, err in zip(levels, sup)]
    return ResultTable(names=("s", "r", "median_err", "max_err"), rows=rows,
                       provenance=provenance_block(cfg, experiment="converge"))


def run_kernel_scan(cfg: ExperimentConfig):
    """Kernel decay products over the lambda scan; rows per sampled pair."""
    sigma = cfg.resolved_sigma()
    # V2 needs |x - x'| >= 4*lambda^(-sigma) with |x - x'| < 2, so lambda^sigma > 2.
    if 2.0 ** (cfg.lambda_min_exp * sigma) <= 2.0:
        raise ConfigError(
            f"lambda_min_exp={cfg.lambda_min_exp} leaves region V2 empty at sigma={sigma:g}: "
            "2^(lambda_min_exp*sigma) must exceed 2"
        )
    report = decay_bound_scan(
        cfg.profile, sigma, cfg.lambdas(), samples_per_region=cfg.samples_per_region, seed=cfg.seed
    )
    lo, hi = report.v2_ratio_range
    table = ResultTable(
        names=("lambda", "region", "x_dist", "t_dist", "abs_K", "decay_product"),
        rows=report.rows,
        provenance=provenance_block(
            cfg, experiment="kernel-scan", v2_ratio_min=lo, v2_ratio_max=hi,
            max_decay_product=report.max_decay_product(),
        ),
    )
    return table, report


def run_dimension_report(cfg: ExperimentConfig):
    """Box counts across scales plus the fitted Minkowski dimension."""
    rows = dimension_table(cfg.directions, cfg.delta_min, cfg.delta_max, cfg.n_scales)
    beta, resid = _dimension_fit(rows)
    return ResultTable(
        names=("delta", "count"),
        rows=rows,
        provenance=provenance_block(cfg, experiment="dim", beta=beta, fit_residual=resid),
    )
