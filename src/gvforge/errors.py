"""Exception taxonomy shared across the package.

Three externally meaningful failure classes, mirrored by CLI exit codes:
argument/domain errors (exit 1), failed or undecidable checks (exit 2),
and capacity refusals (exit 3), among them a translate search whose last
grid certifies no box.
"""


class GvforgeError(Exception):
    """Base class for package errors."""


class DomainError(GvforgeError, ValueError):
    """An argument is outside the documented domain of an operation."""


class CapacityError(GvforgeError):
    """The request exceeds a documented size cap; refuse rather than degrade."""


class IndeterminateError(GvforgeError):
    """An enclosure straddles a decision threshold and cannot certify either way."""


class ConditionFailure(GvforgeError):
    """A named parameter condition failed; .failures lists the condition names."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))
