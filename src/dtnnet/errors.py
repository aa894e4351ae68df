"""Exception types shared across the package, and the physical-memory check.

The class name of an error is the machine-readable kind the CLI writes as JSON
on the error stream, and its ``exit_code`` the status ``dtnnet`` exits with: 2
for a refused input, 3 for a numerical failure.
"""

import math
import os


class DtnError(Exception):
    exit_code = 3


class ParseError(DtnError):
    exit_code = 2


class EmptyPackingError(DtnError):
    exit_code = 2


class OverlapError(DtnError):
    exit_code = 2

    def __init__(self, i: int, j: int, message: str | None = None):
        self.i = i
        self.j = j
        super().__init__(message or f"inclusions {i} and {j} touch or overlap")


class OutsideDomainError(DtnError):
    exit_code = 2

    def __init__(self, i: int, message: str | None = None):
        self.i = i
        super().__init__(message or f"inclusion {i} touches or crosses the domain boundary")


class DegenerateAngleError(DtnError):
    pass


class ModeError(DtnError):
    exit_code = 2


class SingularSystemError(DtnError):
    pass


class DomainError(DtnError):
    pass


class IllConditionedError(DtnError):
    pass


class InfeasibleError(DtnError):
    exit_code = 2


def _physical_memory() -> int | None:
    """Bytes of physical memory from os.sysconf, or None where it lacks the names."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(nbytes: float, what: str) -> None:
    """MemoryError, before anything is allocated, if what needs nbytes, infinite or
    more than physical memory: the kernel may grant such a request and then kill the
    process. A cgroup limit below physical memory is not seen."""
    memory = _physical_memory()
    if nbytes == math.inf or (memory is not None and nbytes > memory):
        limit = "any address space" if memory is None else f"the {memory} bytes of physical memory"
        raise MemoryError(f"{what} need about {nbytes:.0f} bytes, more than {limit}")
