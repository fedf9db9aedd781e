"""mslab: numerical laboratory for derivative and interpolation constants
on model spaces of the unit disc.

The package computes, exactly at desk scale, the norm of differentiation on
the n-dimensional space of rational functions with prescribed poles
(restricted to the Hardy or Bergman target), and the constant of minimum
Dirichlet-norm interpolation on finite disc configurations, together with
the closed-form envelopes that bracket both families and the audit reports
for the envelope pieces that fail numerically.

The top level re-exports the library entry points; everything else is
imported from its submodule (``mslab.series``, ``mslab.blaschke``,
``mslab.hermitian``, ``mslab.bernstein``, ``mslab.interpolation``,
``mslab.quadrature``, ``mslab.verification``).
"""

from .blaschke import MalmquistBasis, PoleConfiguration
from .errors import CertificationError
from .interpolation import ModelSpace, single_point_closed_form
from .series import NormKind

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "MalmquistBasis",
    "ModelSpace",
    "NormKind",
    "PoleConfiguration",
    "single_point_closed_form",
    "__version__",
]
