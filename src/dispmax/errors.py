"""Exception types shared across the package, the one size cap and the lambda and sigma ranges."""

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
