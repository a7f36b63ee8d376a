"""Exception and warning types shared across the package."""


class CusumkitError(Exception):
    """Base class for all computation errors raised by cusumkit."""


class NoPositiveRoot(CusumkitError):
    """E exp(lambda*Y) = 1 has no positive root; the critical-exponent
    machinery (bounds, thresholds, regimes) does not apply."""


class DivergentMoment(CusumkitError):
    """Requested exponential moment is infinite."""


class NotAnLLRModel(CusumkitError):
    """Operation requires log-likelihood-ratio increments (E exp(Y) = 1)."""


class TooLarge(CusumkitError):
    """Input beyond a size guard: finite-support keys or their n-step sums
    outside int64, or sparse sum laws past their atom budget."""


class NoConvergence(CusumkitError):
    """Series summation failed to contract within the term budget."""


class NotSupportedModel(CusumkitError):
    """Closed-form formula only exists for a different model kind."""


class UnstableQueue(CusumkitError):
    """Queue increment model has nonnegative mean (utilization >= 1)."""


class InvalidAlpha(CusumkitError):
    """False-alarm level must lie strictly inside (0, 1)."""


class InsufficientReps(CusumkitError):
    """Too few replications for a stable quantile estimate."""


class StateBudgetExceeded(CusumkitError):
    """Exact enumeration would exceed the configured state budget."""


class UnsupportedValue(CusumkitError):
    """Datum has zero density under the default distribution."""


class FormulaMismatch(UserWarning):
    """Recursive and direct variance formulas disagree beyond tolerance."""


class HorizonExceeded(UserWarning):
    """A simulated excursion hit the step cap before absorbing."""
