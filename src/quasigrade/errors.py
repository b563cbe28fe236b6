"""Exception hierarchy shared across the package."""


class QuasigradeError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(QuasigradeError, ValueError):
    """Malformed text input (rationals, quasipolynomial files, polytope files)."""


class InsufficientSamplesError(QuasigradeError, ValueError):
    """A residue class does not carry enough sample points for the requested fit."""


class InconsistentFitError(QuasigradeError):
    """A fitted quasipolynomial failed validation against surplus values.

    Raised from the package's own fits, it signals an internal defect, never
    bad input.
    """


class PolytopeError(QuasigradeError, ValueError):
    """Invalid polytope data (empty set, unbounded set, degenerate input)."""

