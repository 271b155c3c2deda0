"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the layer that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or out-of-range parameters."""


class GaloisFieldError(ReproError):
    """Invalid Galois-field construction or operand."""


class CodeDesignError(ReproError):
    """A BCH code with the requested parameters cannot be constructed."""


class DecodingFailure(ReproError):
    """The BCH decoder detected more errors than it can correct.

    Attributes
    ----------
    detected:
        Number of errors claimed by the error-locator polynomial degree,
        when available (``None`` if the failure was detected earlier).
    """

    def __init__(self, message: str, detected: int | None = None):
        super().__init__(message)
        self.detected = detected


class NandOperationError(ReproError):
    """Illegal NAND command sequence (e.g. programming a non-erased page)."""


class ControllerError(ReproError):
    """Memory-controller protocol violation."""


class SimulationError(ReproError, RuntimeError):
    """Discrete-event simulation misuse or failure.

    Raised for bad scheduling input (a time in the past, an invalid
    host-frame delay, a duplicate tag) and for runs that cannot finish
    (a deadlock of parked frames).  Also a :class:`RuntimeError`, so
    callers that only catch the builtin hierarchy still see it.
    """
