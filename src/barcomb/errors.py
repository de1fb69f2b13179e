"""Exception types shared across the package.

Every error raised by barcomb derives from :class:`BarcombError`, so callers
can catch one base class.  The CLI maps subclasses onto exit codes: input and
parse problems exit 2, violated operation preconditions exit 3, size caps
exit 4.
"""

from __future__ import annotations


class BarcombError(Exception):
    """Base class for all barcomb errors."""


class ParseError(BarcombError):
    """A file or text payload could not be parsed."""


class InvalidBarError(BarcombError):
    """A bar violates birth < death, or a barcode is empty."""


class InvalidWordError(BarcombError):
    """A word is not a multipermutation with uniform multiplicity."""


class InvalidLabelError(BarcombError):
    """A bar label is out of range or a pair repeats a label."""


class InvalidLevelError(BarcombError, ValueError):
    """A level k is negative, or a lattice has fewer than one bar."""


class InvalidScaleError(BarcombError):
    """An affine scale factor is not strictly positive."""


class NotStrictError(BarcombError):
    """A barcode is not k-strict for the k an operation requires.

    ``collisions`` holds (value, label) pairs of sample points that coincide,
    for error messages; ``k`` is the strictness level that failed.
    """

    def __init__(self, k: int, collisions=()):
        self.k = k
        self.collisions = tuple(collisions)
        detail = ""
        if self.collisions:
            (v1, l1), (v2, l2) = self.collisions[0]
            detail = (
                f": sample point {v1!r} (bar {l1})"
                f" collides with {v2!r} (bar {l2})"
            )
        super().__init__(f"barcode is not {k}-strict{detail}")


class ShapeMismatchError(BarcombError):
    """Operands have different alphabet sizes or multiplicities."""


class NotCanonicalError(BarcombError):
    """A multipermutation is not a canonical representative."""


class TooLargeError(BarcombError):
    """A lattice exceeds the position cap, or a barcode level has more
    sample points than ``barcode.MAX_SAMPLE_POINTS``."""


class NotAnElementError(BarcombError):
    """A word is not an element of the requested lattice."""


class InvalidQError(BarcombError):
    """Wasserstein exponent q is not a finite real >= 1."""


class DegenerateBarError(BarcombError):
    """An affine alignment has no positive finite scale or no finite shift."""


class PreconditionFailedError(BarcombError):
    """Bound checking preconditions failed; ``failures`` names them."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("precondition failed: " + ", ".join(self.failures))


class RetriesExhaustedError(BarcombError):
    """Rejection sampling hit its retry bound."""
