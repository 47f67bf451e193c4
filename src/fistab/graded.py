"""Graded dimensions (d_0, d_1, ...): the Betti numbers of a connected
space, whose graded tensor powers kunneth and induction take and whose
wreath products wreath-scan and fistab.wreath count.  Read from the CLI's
comma list and checked here once, for both, so that neither loads the
other.
"""

from __future__ import annotations

from .errors import DomainError


def read_graded_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad graded dimension list {text!r}") from exc


def _check_graded_dims(graded_dims, n: int, i: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in graded_dims)
    if not dims or dims[0] != 1:
        raise DomainError(
            f"graded dimensions must start with 1 (connected space), got {dims!r}"
        )
    if any(d < 0 for d in dims):
        raise DomainError(f"graded dimensions must be nonnegative: {dims!r}")
    if n < 0 or i < 0:
        raise DomainError("n and i must be nonnegative")
    return dims
