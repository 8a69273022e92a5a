"""Type-checking errors."""

from __future__ import annotations

from typing import Optional

from repro.core.errors import ReproError


def _rebuild_error(cls, args, address):
    """Reconstruct a :class:`TypeCheckError` without re-running ``__init__``.

    The constructor formats the address into the message; naive unpickling
    would re-run it on the already-formatted message (duplicating the
    location suffix) and lose ``address``.  Used by ``__reduce__`` so
    errors cross process boundaries intact.
    """
    error = cls.__new__(cls)
    Exception.__init__(error, *args)
    error.address = address
    return error


class TypeCheckError(ReproError):
    """A TAL_FT typing judgment failed.

    Carries the code address being checked (when known) and the judgment
    that failed, so compiler bugs surface with actionable messages -- the
    paper's motivating use case for the checker.
    """

    def __init__(self, message: str, address: Optional[int] = None):
        location = f" (at code address {address})" if address is not None else ""
        super().__init__(f"{message}{location}")
        self.address = address

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self.address))


class StateTypeError(TypeCheckError):
    """A machine-state typing judgment (Figure 8) failed."""
