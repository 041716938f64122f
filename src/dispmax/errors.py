"""Exception types shared across the package, the one size cap, and the argument checks
that more than one function shares: lambda, sigma, box half-width, seed, integer counts
and power-of-two grid sizes."""

from numbers import Integral

# Most points a scan axis, and intervals a cover or a Cantor set, may hold;
# a 2^24-slice scan already runs for hours.
MAX_COUNT = 1 << 24


class DispmaxError(Exception):
    """Base class for all package errors."""


class ConfigError(DispmaxError, ValueError):
    """A setting, flag or argument outside its documented range, NaN included.

    Each library function raises it for the arguments it checks, and the
    command line turns it into exit 2. It is a ValueError, so callers that
    catch ValueError still catch it.
    """


def check_lambda(lam) -> None:
    """Refuse a frequency scale lambda, of a cover or a kernel, unless 2 <= lambda < inf."""
    if not 2.0 <= lam < float("inf"):
        raise ConfigError(f"lambda must be finite and at least 2, got {lam}")


def check_sigma(sigma) -> None:
    """Refuse a cover exponent sigma, of a cover or a kernel scan, outside [1/4, 1]."""
    if not 0.25 <= sigma <= 1.0:
        raise ConfigError(f"sigma must lie in [1/4, 1], got {sigma}")


def check_half_width(half_width) -> None:
    """Refuse a box half-width L, of a signal or of the data a function builds, unless
    the box width 2L is positive and finite."""
    if not 0.0 < 2.0 * half_width < float("inf"):
        raise ConfigError(f"half_width={half_width}: the box width 2*half_width "
                          "must be positive and finite")


def check_seed(seed) -> None:
    """Refuse a generator seed unless it is a nonnegative integer."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ConfigError(f"seed={seed!r} must be a nonnegative integer")


def check_integers(**counts) -> None:
    """Refuse, by name, each count that is not an integer (a float, NaN included)."""
    for name, value in counts.items():
        if not isinstance(value, Integral):
            raise ConfigError(f"{name}={value!r} must be an integer")


def check_power_of_two(**counts) -> None:
    """Refuse, by name, each count that is not an integer power of two, at least 2."""
    check_integers(**counts)
    for name, value in counts.items():
        if value < 2 or value & (value - 1):
            raise ConfigError(f"{name}={value} must be a power of two, at least 2")


class NonconformingProfileError(DispmaxError):
    """Dispersion profile fails the curvature conditions, or overflows, on the sampled range."""


class AliasingError(DispmaxError):
    """Requested frequency shell exceeds the grid Nyquist frequency."""


class RangeError(DispmaxError):
    """A grid size or value falls outside what float64 arithmetic or memory can hold."""


class QuadratureError(DispmaxError):
    """Oscillatory quadrature exceeded its panel budget."""


class HypothesisError(DispmaxError):
    """A lemma hypothesis (derivative bound, monotonicity) fails on samples."""
