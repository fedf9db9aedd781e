"""Dense Hermitian eigenproblems and weighted minimum-norm solves.

The constants computed by this laboratory are operator norms of small dense
Hermitian Grams.  Their spectra come from LAPACK through
``numpy.linalg.eigh``/``eigvalsh``; the solver's accuracy is not taken on
trust.  The reported top pair carries its residual ||M v - lambda v||, and by
Weyl's inequality some eigenvalue of M lies within that residual of lambda,
so a residual above the certification window is a certification failure.
Determinism comes from the fixed LAPACK call and phase normalization of the
vector.  Matrices are plain arrays: :func:`gram_matrix` returns its Gram
already symmetrized, and a non-finite entry, the mark of an overflow
upstream, is a certification failure of :func:`max_eigenpair`.

Weighted minimum-norm interpolation, minimize sum w_k |c_k|^2 subject to
A c = b for an m x L functional matrix A, is solved through the dual Gram
A W^{-1} A^*.  That Gram depends on A and the weights only, so it is built,
equilibrated and certified once and then serves any number of right-hand
sides in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError

__all__ = [
    "gram_matrix",
    "max_eigenpair",
    "min_norm_solve",
]

RESIDUAL_TOL = 1e-10
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Eigenpair:
    """Top eigenvalue, its phase-normalized unit vector v and the residual
    ||M v - value v||; by Weyl's inequality some eigenvalue of M lies within
    ``residual`` of ``value``."""

    value: float
    vector: np.ndarray
    residual: float


def gram_matrix(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gram V^* diag(w) V of the columns of an L x m coefficient matrix.

    Column j of ``coeffs`` holds the Taylor coefficients of v_j and
    ``weights[k]`` multiplies |c_k|^2, so G[j, k] = <v_k, v_j>_w and the
    quadratic form c^* G c is the squared weighted norm of V c; the top
    eigenvector is directly an extremal coefficient vector.  Every constant
    of the laboratory is an extreme eigenvalue of such a Gram of the
    Malmquist coefficient matrix E or of a matrix built from it.  A real
    coefficient matrix gives a real symmetric Gram, on which LAPACK runs its
    real (several times cheaper) eigensolver; either way the result is
    symmetrized exactly, G = (G + G^*)/2.
    """
    V = np.asarray(coeffs)
    V = V.astype(np.complex128 if np.iscomplexobj(V) else np.float64, copy=False)
    w = np.asarray(weights, dtype=np.float64)
    if V.ndim != 2 or w.shape != V.shape[:1]:
        raise ValueError("need an L x m coefficient matrix and L weights")
    G = V.conj().T @ (w[:, None] * V)
    return (G + G.conj().T) / 2.0


def _from_bands(*bands: np.ndarray) -> np.ndarray:
    """Dense real symmetric n x n matrix whose d-th diagonal above and below
    the main one is ``bands[d]`` (``bands[0]`` the main diagonal, of length
    n; band d has n - d entries); every other entry is zero.

    The band entries are written straight into the flat view of the array:
    the (j, j+d) entries sit at flat index j (n+1) + d and their mirror
    images at j (n+1) + d n.
    """
    n = bands[0].size
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    flat[:: n + 1] = bands[0]
    for d, band in enumerate(bands[1:], start=1):
        flat[d : (n - d) * n : n + 1] = band
        flat[d * n :: n + 1] = band
    return out


def max_eigenpair(matrix: np.ndarray) -> Eigenpair:
    """Largest eigenpair of a Hermitian array.

    The top column of ``eigh`` is scaled by conj(p)/|p| for its
    largest-modulus entry p (a sign flip for a real vector).  A repeated top
    keeps LAPACK's column in its eigenspace, certified like any other.

    Raises :class:`CertificationError` when the matrix holds a non-finite
    entry, or when the residual exceeds the window RESIDUAL_TOL (1 + |value|).
    """
    if not np.isfinite(matrix).all():
        raise CertificationError("Hermitian matrix has non-finite entries (overflow)")
    values, vectors = np.linalg.eigh(matrix)
    top = float(values[-1])
    window = RESIDUAL_TOL * (1.0 + abs(top))
    vec = vectors[:, -1]
    piv = vec[np.abs(vec).argmax()]
    if np.iscomplexobj(vec):
        vec = vec * (piv.conjugate() / abs(piv))
    else:
        vec = -vec if piv < 0.0 else vec.copy()
    d = matrix @ vec - top * vec
    # The 2-norm summed as numpy.linalg.norm sums it, without its dispatch.
    sq = d.real.dot(d.real) + d.imag.dot(d.imag) if np.iscomplexobj(d) else d.dot(d)
    residual = math.sqrt(sq)
    if residual > window:
        raise CertificationError(
            f"eigen-residual {residual:.3e} exceeds the certification window {window:.3e}"
        )
    return Eigenpair(top, vec, residual)


def min_norm_solve(
    weights: np.ndarray, A: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """Minimize sum_k w_k |c_k|^2 subject to A c = b, for every column b of B.

    Row i of the m x L matrix ``A`` is a functional acting as a plain dot
    product on the coefficient vector (a row of powers lam^k realizes point
    evaluation).  ``B`` has shape (m,) or (m, q); the result holds the
    minimizing coefficients with shape (L,) or (L, q), and the weighted norm
    of a solution c is sqrt(sum_k w_k |c_k|^2).

    One dual Gram A W^{-1} A^* serves every right-hand side.  It is
    diagonally equilibrated before solving (derivative functionals of
    increasing order differ in scale by many orders of magnitude; the scaling
    changes nothing algebraically); if it overflows, has a vanishing
    diagonal, or still has a condition estimate above 1e12 after
    equilibration, a :class:`CertificationError` is raised.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be a positive finite vector")
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] == 0:
        raise ValueError("need an m x L functional matrix with at least one row")
    if A.shape[1] != w.size:
        raise ValueError("constraint functional length must match weights")
    if B.ndim not in (1, 2) or B.shape[0] != A.shape[0]:
        raise ValueError("need one target per constraint functional")
    # Dual Gram: G[i, j] = sum_k A[i, k] conj(A[j, k]) / w_k.  Functionals
    # of high derivative order can overflow it; that is a numerical failure.
    with np.errstate(over="ignore", invalid="ignore"):
        G = (A / w[None, :]) @ A.conj().T
    if not np.all(np.isfinite(G)):
        raise CertificationError("dual Gram of the constraint functionals overflows")
    G = (G + G.conj().T) / 2.0
    diag = np.real(np.diag(G))
    if np.any(diag <= 0.0):
        raise CertificationError("constraint functional with vanishing weighted norm")
    d = 1.0 / np.sqrt(diag)
    Gs = G * d[:, None] * d[None, :]
    Gs = (Gs + Gs.conj().T) / 2.0
    vals = np.linalg.eigvalsh(Gs)
    lo, hi = float(vals[0]), float(vals[-1])
    if lo <= 0.0 or hi / lo > CONDITION_LIMIT:
        raise CertificationError(
            f"dual Gram condition estimate {hi / max(lo, 1e-300):.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    Bc = B.reshape(B.shape[0], -1)
    Y = d[:, None] * np.linalg.solve(Gs, d[:, None] * Bc)
    return ((A.conj().T @ Y) / w[:, None]).reshape((w.size,) + B.shape[1:])
