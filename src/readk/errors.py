"""Exception hierarchy shared across the package, and its integer and real argument checks."""

import math


class ReadkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ReadkError, ValueError):
    """An object violates a structural invariant (bad probabilities, bad table, ...)."""


class DomainError(ReadkError, ValueError):
    """Arguments are outside the domain an operation is defined on."""


class ResourceError(ReadkError, RuntimeError):
    """An enumeration would exceed the configured guard."""


class AuditError(ReadkError, AssertionError):
    """A numeric inequality that must hold was violated beyond tolerance."""


def _check_int(value, name: str, minimum: int = 1, error: type[ReadkError] = DomainError) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` (not a ``bool``) of at least ``minimum``.

    ``minimum`` is 1 (a positive int) or 0 (a non-negative int).
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise error(f"{name} must be a {kind} int, got {value!r}")


def _check_real(value, name: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is a real number, numpy's too, not a bool.

    A float, or an exact ``int`` such as the threshold of ``TailQuery(5,
    "ge")``, passes on the first tests, without the ``numbers`` import or
    the ``numbers.Real`` test (about 0.5 us): the numpy-free ``readk bound``
    would otherwise pay the import, and every public ``BoundQuery`` and
    ``TailQuery`` the test. A bool is not exactly an ``int``, so it still
    reaches the test and fails it.
    """
    if isinstance(value, float) or type(value) is int:
        return
    import numbers

    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


def _check_finite(value, name: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is a finite real number.

    An int too big for a float is not finite: it has no float to compare.
    """
    _check_real(value, name)
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got an int too big for a float") from None
    if not finite:
        raise DomainError(f"{name} must be finite, got {value!r}")
