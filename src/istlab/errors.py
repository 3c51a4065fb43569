"""Exception hierarchy shared by all istlab modules."""


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
