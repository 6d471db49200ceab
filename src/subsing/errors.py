"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class RangeError(ValueError):
    """A target value is outside the attainable range (e.g. inverting a bounded function)."""


class CapabilityError(RuntimeError):
    """The object cannot support the requested operation (e.g. no exact grid sampler)."""


class PreconditionError(ValueError):
    """A documented precondition of the operation is violated."""


class GateViolation(PreconditionError):
    """A moment estimate was requested outside its region of validity.

    ``condition`` holds the violated admissibility condition verbatim so callers
    (and the CLI) can surface exactly which requirement failed.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = f"not applicable: requires {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge, or a computed value
    left the range of doubles."""
