"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary domain errors (negative times,
out-of-range indices).  The classes below mark failures that callers, in
particular the command line front end, need to tell apart.
"""

import numbers


class CreditCurveError(Exception):
    """Base class for package-specific failures."""


class ParseError(CreditCurveError):
    """An input file could not be parsed; the message names file and row."""


class ScheduleError(CreditCurveError):
    """A cash-flow schedule is inconsistent (non-integer number of periods)."""


class ConvergenceError(CreditCurveError):
    """A bracketed root search failed to locate or refine a root."""


class InsufficientDataError(CreditCurveError):
    """Too few quotes to run an estimation."""


class FitError(CreditCurveError):
    """The constrained regression could not produce a valid curve."""


class ArbitrageError(CreditCurveError):
    """Market quotes admit no non-negative hazard rate."""


def check_number(value, name: str, whole: bool = False):
    """``value`` if it is a real number (an integer if ``whole``), else a ``ValueError``
    naming ``name``: a string or a bool is no rate, tenor or count."""
    kind, noun = (numbers.Integral, "an integer") if whole else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value
