"""Exception hierarchy shared by every module.

The split mirrors how failures are reported at the command line: configuration
and parse problems are caller mistakes (exit code 2), numerical and degenerate
input problems happen mid-computation (exit code 1).
"""


class RnalignError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RnalignError):
    """Invalid dimensions, options, or arguments supplied by the caller."""


class ParseError(RnalignError):
    """A config or data file did not conform to its documented format."""


class NumericalError(RnalignError):
    """A non-finite value appeared where the computation requires finiteness."""


class DegenerateInputError(NumericalError):
    """Mathematically undefined on this input (e.g. a zero-norm feature row
    where a cosine is required, or a zero mean norm where a ratio is); a
    numerical failure, so a matrix records it and moves on."""
