"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class.
Algorithms never truncate silently: when an enumeration would exceed its
budget they raise ResourceBudgetError instead.  Every class pickles with
its message and fields, so an error raised on a worker process reaches
the caller as itself.
"""

from __future__ import annotations


class ToposkitError(Exception):
    """Base class for all package errors."""


class StructureError(ToposkitError):
    """Raw data does not assemble into the requested structure."""


class ResourceBudgetError(ToposkitError):
    """An enumeration or search would exceed its declared budget.

    Carries enough context to tell the caller which knob to raise.
    """

    def __init__(self, operation: str, requested: int, budget: int) -> None:
        self.operation = operation
        self.requested = requested
        self.budget = budget
        super().__init__(
            f"{operation}: needs {requested} but budget is {budget}; "
            "raise the budget explicitly to proceed"
        )

    def __reduce__(self):
        return type(self), (self.operation, self.requested, self.budget), self.__dict__


class FactorizationError(ToposkitError):
    """A mediating morphism that should exist and be unique does not."""


class ConsistencyError(ToposkitError):
    """Two routes that must agree computed different answers."""


class ConstructionRefused(ToposkitError):
    """A construction's precondition failed; carries the refusal witness."""

    def __init__(self, message: str, witness: object) -> None:
        self.witness = witness
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.args[0], self.witness), self.__dict__


class WorkspaceParseError(ToposkitError):
    """Workspace text is malformed; located by line and entity."""

    def __init__(self, line_no: int, entity: str, reason: str) -> None:
        self.line_no = line_no
        self.entity = entity
        self.reason = reason
        super().__init__(f"line {line_no}: {entity}: {reason}")

    def __reduce__(self):
        return type(self), (self.line_no, self.entity, self.reason), self.__dict__
