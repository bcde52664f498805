"""Shared exception types, the integer check and output-file opening."""


class UsageError(Exception):
    """Bad configuration: unknown names, parameters out of domain."""


class DataFormatError(Exception):
    """Malformed input data (CSV parsing and schema problems)."""


def as_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it has a
    fractional part (or is not a number), rather than truncating it, or
    if it lies below ``minimum``."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def open_output(path, mode: str = "w"):
    """``path`` opened to write a CSV file (``mode`` "a" appends); an
    OSError (a missing directory, a directory, no permission) is a
    UsageError naming the path."""
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
