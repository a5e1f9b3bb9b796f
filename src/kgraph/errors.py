"""Exception types shared across the package."""


class KGraphError(Exception):
    """Base class for every error this package raises on purpose."""


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


class ContractViolationError(KGraphError, ValueError):
    """A call broke its precondition: a bad degree, vertex, vertex set, path, id or fixture name."""


class LimitExceededError(KGraphError):
    """A computation stopped past a fixed limit.

    Its one raiser, `ideals.enumerate_sat_her`, stops once it has found
    `ideals.ENUM_LIMIT` sets, a module constant, and meets one more.
    """
