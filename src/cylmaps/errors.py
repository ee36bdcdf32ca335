"""Semantic exceptions shared across the package, and the input rules that
raise them for every entry point."""

import numpy as np


class CylmapsError(Exception):
    """Base class for all package errors."""


class DomainError(CylmapsError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class PreconditionError(CylmapsError, ValueError):
    """A documented precondition of an operation is violated."""


class WrongFamilyError(PreconditionError):
    """The operation is only defined for a different fiber family."""


class DegenerateQuadrupleError(DomainError):
    """Cross-ratio arguments contain a repeated value."""


def _require_seed(seed) -> None:
    """Seeds are None or non-negative integers, numpy integers included."""
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise PreconditionError(f"seed must be None or a non-negative integer, got {seed!r}")


def _require_count(value, what: str, least: int = 0) -> None:
    """Lengths and counts are integers >= least, numpy integers included;
    a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise PreconditionError(f"{what} must be an integer >= {least}, got {value!r}")
