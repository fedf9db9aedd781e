"""Exception types shared across the laboratory.

Domain violations (a pole on or outside the unit circle, an evaluation point
outside the closed disc, a malformed configuration string) raise plain
``ValueError``.  The class below marks the numerical failures that calling
code may want to distinguish: a certification that could not be established
at the requested truncation or conditioning.
"""

from __future__ import annotations


class CertificationError(RuntimeError):
    """A numerical guarantee could not be certified.

    Raised when a truncation is too short to certify orthonormality, when a
    constraint system is too ill-conditioned to trust, when an eigenpair's
    residual exceeds its certification window, or when a quadrature rule is
    too coarse for the polynomial degree it is asked to integrate.
    """

