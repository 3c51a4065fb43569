"""Exception hierarchy shared by all istlab modules, and the field rules.

Every reader of an experiment file, a problem file or a sketch parameter
checks its fields with the three rules below, so a field is rejected the
same way wherever it is read.  Each rule raises the exception class its
caller passes (a config error, a shape error or a plain ``ValueError``),
with the caller's one-line ``what`` and the value it got:

:func:`integer`
    an int, not a bool, at least ``low``;
:func:`real`
    a finite real number, not a bool, above ``above`` and at most ``at_most``;
:func:`json_object`
    an object whose keys are among ``allowed`` (listed sorted when not) and
    include every ``required`` key (the first missing one named).
"""

import math
import numbers


class IstLabError(Exception):
    """Base class for all errors raised by istlab."""


class NonFinite(IstLabError):
    """An input array contains NaN or infinite entries."""


class DimMismatch(IstLabError):
    """Vector/matrix dimensions are incompatible."""


class NonPositiveDiagonal(IstLabError):
    """A diagonal scaling requires strictly positive entries."""


class NotHomogeneous(IstLabError):
    """Operation requires all clients to share the same data."""


class DegenerateEnsemble(IstLabError):
    """Generated ensemble has a numerically singular mean matrix."""


class SingularMatrix(IstLabError):
    """Matrix is singular beyond the configured rank tolerance."""


class IncompatibleShape(IstLabError):
    """Sketch kind is incompatible with the problem's (n, d)."""


class NoClosedForm(IstLabError):
    """No closed-form expectation is available for this configuration."""


class TooLarge(IstLabError):
    """Exact enumeration would exceed the outcome budget."""


class NoExpectation(NoClosedForm, TooLarge):
    """No closed form, enumeration or Monte Carlo route gives the sketch
    expectation; handlers of either base class catch it."""


class ThetaInadmissible(IstLabError):
    """Step-size certificate does not exist for this sketch/problem pair."""


class StepTooLarge(IstLabError):
    """Step size exceeds the certified maximum 1/theta."""


class StepSizeOutOfRange(IstLabError):
    """Step size violates the bound's admissible range."""


class BetaOutOfRange(IstLabError):
    """Trade-off parameter beta outside its admissible range."""


class DenominatorNonpositive(IstLabError):
    """Neighborhood multiplier evaluated where its denominator is <= 0."""


class WrongKind(IstLabError):
    """Quantity is only defined for a different estimator/sketch kind."""


class ConfigInvalid(IstLabError):
    """Run or experiment configuration failed validation."""


def integer(value, error: type[Exception], what: str, low: int | None = None):
    """``value`` if it is an integer, not a bool, and at least ``low``;
    else raise ``error(f"{what}, got {value!r}")``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and (low is None or value >= low):
        return value
    raise error(f"{what}, got {value!r}")


def real(value, error: type[Exception], what: str, above: float | None = None, at_most: float | None = None):
    """``value`` if it is a real number, not a bool, finite as a float, above ``above``
    and at most ``at_most``; else raise ``error(f"{what}, got {value!r}")``."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
                and (above is None or value > above) and (at_most is None or value <= at_most)):
            return value
    except OverflowError:  # an int past the float range
        pass
    raise error(f"{what}, got {value!r}")


def json_object(doc, error: type[Exception], what: str, allowed, required=()) -> dict:
    """``doc`` if it is a dict whose keys are among ``allowed`` and include each of
    ``required``; else raise ``error`` naming the document ``what`` and its unknown
    keys, sorted, or its first missing key."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be an object (a JSON object), got {doc!r}")
    extra = set(doc) - set(allowed)
    if extra:
        raise error(f"unknown {what} keys {sorted(extra)}")
    for key in required:
        if key not in doc:
            raise error(f"{what} missing key {key!r}")
    return doc
