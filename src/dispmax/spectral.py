"""Dispersion profiles, the discrete propagator, and Sobolev-norm machinery.

The real line is truncated to a periodic box [-L, L).  Signals live on a
uniform grid of N points (N a power of two) and their spectra on the dual
grid xi_j = pi*j/L, j in [-N/2, N/2).  The transform convention is

    c_j = h * sum_n f(x_n) exp(-i x_n xi_j),        h = 2L/N,

i.e. a trapezoidal discretization of the continuum Fourier transform, with
the factor 1/(2*pi) carried by the inversion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigError, NonconformingProfileError, RangeError, check_half_width,
                     check_power_of_two, check_seed)


@dataclass(frozen=True)
class DispersionProfile:
    """The real symbol Phi in the propagator multiplier exp(i*t*Phi(xi))."""

    phi: Callable
    phi_prime: Callable
    phi_prime2: Callable
    a: float | None = None  # the exponent of a power profile; None for a custom one

    @staticmethod
    def power(a: float) -> "DispersionProfile":
        """Profile Phi(xi) = |xi|^a (fractional Schroedinger for a > 1).

        |xi|^a is evaluated through exp(a*log|xi|) with the value at 0 set
        to 0; the curvature conditions only constrain |xi| >= 1, so the
        derivatives are never sampled at the origin.  Phi raises
        NonconformingProfileError where |xi|^a overflows, so every caller
        (the scan grid, the propagator) fails the same way.
        """
        if not 1 < a < np.inf:
            raise ConfigError(f"power profile needs a finite a > 1, got {a}")

        def phi(xi):
            axi = np.abs(np.asarray(xi, dtype=float))
            with np.errstate(divide="ignore", over="ignore"):
                out = np.where(axi > 0, np.exp(a * np.log(np.maximum(axi, 1e-300))), 0.0)
            if not np.all(np.isfinite(out)):
                raise NonconformingProfileError(
                    f"Phi = |xi|^{a:g} is not finite at |xi| = {np.min(axi[~np.isfinite(out)]):g}"
                )
            return out if np.ndim(xi) else float(out)

        def phi_prime(xi):
            xi_arr = np.asarray(xi, dtype=float)
            axi = np.abs(xi_arr)
            out = np.where(axi > 0, a * np.sign(xi_arr) * np.maximum(axi, 1e-300) ** (a - 1), 0.0)
            return out if np.ndim(xi) else float(out)

        def phi_prime2(xi):
            axi = np.abs(np.asarray(xi, dtype=float))
            out = np.where(axi > 0, a * (a - 1) * np.maximum(axi, 1e-300) ** (a - 2), 0.0)
            return out if np.ndim(xi) else float(out)

        return DispersionProfile(phi, phi_prime, phi_prime2, a=a)


@dataclass(frozen=True)
class SampledSignal:
    """Complex function on the uniform periodic grid of [-L, L)."""

    half_width: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        check_power_of_two(n=len(vals))
        check_half_width(self.half_width)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def grid_step(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def grid(self) -> np.ndarray:
        return -self.half_width + self.grid_step * np.arange(self.n)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid_step * np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class SpectralCoefficients:
    """Discrete spectrum on xi_j = pi*j/L, j ascending in [-N/2, N/2)."""

    half_width: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.ascontiguousarray(self.coeffs, dtype=complex))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def freq_step(self) -> float:
        return np.pi / self.half_width

    @property
    def frequencies(self) -> np.ndarray:
        n = self.n
        return self.freq_step * np.arange(-n // 2, n // 2)

    @property
    def nyquist(self) -> float:
        return self.freq_step * (self.n // 2)

    def band_limit(self) -> float:
        """Largest |xi_j| carrying a coefficient above 1e-13 * max|c|."""
        mags = np.abs(self.coeffs)
        live = np.abs(self.frequencies)[mags > 1e-13 * mags.max()]
        return float(live.max()) if live.size else 0.0


def _alternating_sign(n: int) -> np.ndarray:
    """(-1)^j for j in [-n/2, n/2), the sign shared by every transform on the grid.

    exp(-i x_n xi_j) = (-1)^j exp(-2*pi*i*n*j/N) for x_n = -L + n*h.
    """
    j = np.arange(-n // 2, n // 2)
    return np.where(j % 2 == 0, 1.0, -1.0)


def forward_transform(f: SampledSignal) -> SpectralCoefficients:
    """Trapezoidal discretization of f_hat(xi) = int exp(-i*x*xi) f(x) dx.

    Raises RangeError, without a numpy warning, where the transform of a
    finite signal overflows float64: every caller (project, evolve,
    sobolev_norm, the scans) refuses it alike.  A signal with a NaN or
    infinite sample passes, with a transform to match.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the error says it
        c = f.grid_step * _alternating_sign(f.n) * np.fft.fftshift(np.fft.fft(f.values))
    if not np.all(np.isfinite(c)) and np.all(np.isfinite(f.values)):
        raise RangeError("the signal's transform overflows float64")
    return SpectralCoefficients(f.half_width, c)


def inverse_transform(c: SpectralCoefficients) -> SampledSignal:
    """Two-sided inverse of forward_transform (carries the 1/(2*pi) factor)."""
    h = 2.0 * c.half_width / c.n
    vals = np.fft.ifft(np.fft.ifftshift(_alternating_sign(c.n) * c.coeffs)) / h
    return SampledSignal(c.half_width, vals)


def evolve(f: SampledSignal, t: float, profile: DispersionProfile) -> SampledSignal:
    """Apply the propagator: multiply the spectrum by exp(i*t*Phi(xi)).

    Raises RangeError where f's transform or t*Phi(xi) overflows on the grid.
    """
    if not np.isfinite(t):
        raise ConfigError(f"evolution time must be finite, got {t}")
    if t == 0.0:
        return f
    c = forward_transform(f)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 1j * t * profile.phi(c.frequencies)
    if not np.all(np.isfinite(phase)):
        raise RangeError(f"the phase t*Phi(xi) overflows at t = {t:g}")
    if abs(t) > 1.0:
        warnings.warn(f"|t| = {abs(t):g} > 1 is outside the nominal time window")
    return inverse_transform(SpectralCoefficients(c.half_width, np.exp(phase) * c.coeffs))


def sobolev_norm(f: SampledSignal, s: float) -> float:
    """Discrete H^s norm: ((1/2pi) sum (1+xi^2)^s |c_j|^2 dxi)^(1/2).

    Raises RangeError where f's transform overflows, and where the sum is
    not finite: (1+xi^2)^s overflows.  Raises RangeError where the weights
    lift the transform's rounding noise, eps * max|c| per coefficient,
    above 1e-6 of the sum: the norm then measures that noise, not f.
    """
    if not -np.inf < s < np.inf:
        raise ConfigError(f"s={s} must be finite")
    c = forward_transform(f)
    xi = c.frequencies
    mags = np.abs(c.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = (1.0 + xi * xi) ** s
        total = np.sum(weight * mags**2) * c.freq_step / (2.0 * np.pi)
        floor = np.finfo(float).eps * mags.max()
        noise = np.sum(weight) * floor**2 * c.freq_step / (2.0 * np.pi)
    if not np.isfinite(total):
        raise RangeError(f"the H^{s:g} norm overflows: (1+xi^2)^s is not finite "
                         f"at |xi| = {np.max(np.abs(xi)):g}")
    if noise > 1e-6 * total:
        raise RangeError(f"the H^{s:g} norm is rounding noise: (1+xi^2)^s lifts the "
                         f"transform's noise to {noise / total:.2g} of the sum, above 1e-6")
    return float(np.sqrt(total))


def make_sobolev_data(s: float, seed: int, half_width: float = 32.0, n: int = 1024) -> SampledSignal:
    """Random data lying in H^s with a fixed 0.01 exponent margin.

    The spectrum has |c(xi)| = (1+xi^2)^(-(s+1/2+0.01)/2) with phases drawn
    uniformly from the seeded generator, so the H^s norm is finite while the
    H^(s') norms for s' a bit above s blow up under grid refinement.  Raises
    RangeError where |c| falls below the smallest normal float, since such
    data no longer has that spectrum.
    """
    if not s > 0:
        raise ConfigError("s must be positive")
    check_seed(seed)
    check_half_width(half_width)
    check_power_of_two(n=n)
    rng = np.random.default_rng(seed)
    xi = (np.pi / half_width) * np.arange(-n // 2, n // 2)
    mag = (1.0 + xi * xi) ** (-(s + 0.51) / 2.0)
    if not mag.min() >= np.finfo(float).tiny:
        raise RangeError(f"H^{s:g} data underflows: |c(xi)| = (1+xi^2)^(-(s+0.51)/2) is below "
                         f"the smallest normal float at |xi| = {np.max(np.abs(xi)):g}")
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    c = SpectralCoefficients(half_width, mag * np.exp(1j * phase))
    return inverse_transform(c)


def check_dispersion_conditions(profile: DispersionProfile) -> tuple[float, float]:
    """Sampled curvature constants of the profile on +-[1, 64].

    Returns (C1est, C2est) with C1est = min |xi| |Phi''(xi)| and C2est the
    minimum of |xi| |Phi''(xi)| / |Phi'(xi)| over 512 log-spaced samples on
    both half-lines.  Raises NonconformingProfileError when either constant
    falls below 1e-9 or Phi'' changes sign on a half-line.
    """
    grid = np.exp(np.linspace(0.0, np.log(64.0), 512))
    c1 = np.inf
    c2 = np.inf
    for xi in (grid, -grid):
        d2 = np.asarray(profile.phi_prime2(xi), dtype=float)
        d1 = np.asarray(profile.phi_prime(xi), dtype=float)
        if d2.max() > 1e-12 and d2.min() < -1e-12:
            raise NonconformingProfileError(
                "Phi'' changes sign on a half-line; Phi' is not monotone there"
            )
        lhs = np.abs(xi) * np.abs(d2)
        c1 = min(c1, float(lhs.min()))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.abs(d1) > 0, lhs / np.abs(d1), np.inf)
        finite = ratio[np.isfinite(ratio)]
        if finite.size:
            c2 = min(c2, float(finite.min()))
    if c1 <= 1e-9 or c2 <= 1e-9:
        raise NonconformingProfileError(
            f"profile violates the curvature conditions: C1est={c1:g}, C2est={c2:g}"
        )
    return c1, c2


def signal_from_csv(text: str) -> SampledSignal:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "x,re,im":
        raise ValueError("expected signal CSV header 'x,re,im'")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[1] != 3:
        raise ValueError("expected at least two x,re,im rows")
    if not np.all(np.isfinite(rows[:, 1:])):
        raise ValueError("signal samples must be finite")
    x = rows[:, 0]
    f = SampledSignal((x[1] - x[0]) * len(x) / 2.0, rows[:, 1] + 1j * rows[:, 2])
    if not np.allclose(x, f.grid, rtol=0.0, atol=1e-9 * f.grid_step):
        raise ValueError("x must be the uniform grid -L, -L + h, ..., L - h")
    return f
