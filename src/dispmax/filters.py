"""Smooth dyadic partition of unity and the associated frequency projections.

The multipliers are module functions built from a single C-infinity step,
so the partition identity holds exactly by construction: with
G(u) = exp(-1/u) for u > 0 and the step T(u) = G(u) / (G(u) + G(1-u)), let
theta(xi) = 1 for |xi| <= 1, 0 for |xi| >= 2, and 1 - T(|xi|-1) in between.
Then

    psi0(xi)   = theta(2 xi)                  (support (-1, 1))
    psi(xi)    = theta(xi) - theta(2 xi)      (support (-2,-1/2) u (1/2,2))
    psi_k(xi)  = psi(xi / 2^(k-1))
    psi0 + sum_{k=1..K} psi_k = theta(xi / 2^(K-1)) = 1 on |xi| <= 2^(K-1).

psi_k takes an integer 1 <= k <= MAX_BAND and project an integer 0 <= k <= MAX_BAND.
"""

from __future__ import annotations

import numpy as np

from .errors import AliasingError, ConfigError, check_integers
from .spectral import SampledSignal, forward_transform, inverse_transform, SpectralCoefficients

MAX_BAND = 30  # highest band index; a grid resolving the shell |xi| ~ 2^k has ~2^k points


def _smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        g_up = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        g_dn = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return g_up / (g_up + g_dn)


def _theta(xi):
    """1 on |xi| <= 1, 0 on |xi| >= 2, smooth monotone transition."""
    axi = np.abs(np.asarray(xi, dtype=float))
    return 1.0 - _smooth_step(axi - 1.0)


def _check_band(k: int, lowest: int) -> None:
    check_integers(k=k)
    if not lowest <= k <= MAX_BAND:
        raise ConfigError(f"band index {k} outside [{lowest}, {MAX_BAND}]")


def psi0(xi):
    return _theta(2.0 * np.asarray(xi, dtype=float))


def psi(xi):
    xi = np.asarray(xi, dtype=float)
    return _theta(xi) - _theta(2.0 * xi)


def psi_k(k: int, xi):
    _check_band(k, 1)
    return psi(np.asarray(xi, dtype=float) / 2.0 ** (k - 1))


def project(f: SampledSignal, k: int) -> SampledSignal:
    """Littlewood-Paley projection P_k (P_0 uses psi0)."""
    _check_band(k, 0)
    c = forward_transform(f)
    top = 1.0 if k == 0 else 2.0**k
    if top > c.nyquist * (1 + 1e-12):
        raise AliasingError(
            f"shell for k={k} reaches |xi|={top:g} beyond the grid Nyquist {c.nyquist:g}"
        )
    mult = psi0(c.frequencies) if k == 0 else psi(c.frequencies / 2.0 ** (k - 1))
    return inverse_transform(SpectralCoefficients(c.half_width, mult * c.coeffs))
