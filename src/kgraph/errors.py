"""Exception types shared across the package."""


class KGraphError(Exception):
    """Base class for every error this package raises on purpose."""


class DegreeError(KGraphError, ValueError):
    """A degree left its domain (negative entry, overflow, mixed ranks, bad bounds)."""


class CompositionError(KGraphError, ValueError):
    """Paths or edges were joined at incompatible endpoints."""


class ValidationError(KGraphError):
    """A structure failed its mandatory validation phase."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class DocumentError(KGraphError, ValueError):
    """An input document could not be parsed; carries addressed messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ContractViolationError(KGraphError):
    """An operation was called outside its stated precondition."""


class LimitExceededError(KGraphError):
    """A computation refused to start because the input exceeds a configured limit."""
