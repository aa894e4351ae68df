"""Exception types shared across the package.

Every error carries a short machine-readable ``kind`` so the CLI can emit
structured JSON on the error stream.
"""


class DtnError(Exception):
    kind = "Error"


class ParseError(DtnError):
    kind = "ParseError"


class EmptyPackingError(DtnError):
    kind = "EmptyPackingError"


class OverlapError(DtnError):
    kind = "OverlapError"

    def __init__(self, i: int, j: int, message: str | None = None):
        self.i = i
        self.j = j
        super().__init__(message or f"inclusions {i} and {j} touch or overlap")


class OutsideDomainError(DtnError):
    kind = "OutsideDomainError"

    def __init__(self, i: int, message: str | None = None):
        self.i = i
        super().__init__(message or f"inclusion {i} touches or crosses the domain boundary")


class DegenerateAngleError(DtnError):
    kind = "DegenerateAngleError"


class ModeError(DtnError):
    kind = "ModeError"


class SingularSystemError(DtnError):
    kind = "SingularSystemError"


class DomainError(DtnError):
    kind = "DomainError"


class IllConditionedError(DtnError):
    kind = "IllConditionedError"


class InfeasibleError(DtnError):
    kind = "InfeasibleError"
