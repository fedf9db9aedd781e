"""Dense Hermitian eigenproblems and weighted minimum-norm solves.

The constants computed by this laboratory are operator norms of small dense
Hermitian Grams.  Their spectra come from LAPACK through
``numpy.linalg.eigh``/``eigvalsh``; the solver's accuracy is not taken on
trust.  The reported top pair carries its residual ||M v - lambda v||, and by
Weyl's inequality some eigenvalue of M lies within that residual of lambda,
so a residual above the near-degeneracy window is a certification failure.
Determinism comes from the fixed LAPACK call, phase normalization of the
vector and a lexicographic tie-break inside the top cluster.

Generalized problems M v = mu S v with S positive definite are reduced by a
Cholesky congruence of S (with a tiny ridge retry when S is borderline).
Weighted minimum-norm interpolation, minimize sum w_k |c_k|^2 subject to
A c = b for an m x L functional matrix A, is solved through the dual Gram
A W^{-1} A^*.  That Gram depends on A and the weights only, so it is built,
equilibrated and certified once and then serves any number of right-hand
sides in one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError

__all__ = [
    "HermitianMatrix",
    "Eigenpair",
    "gram_matrix",
    "eigenvalues",
    "max_eigenpair",
    "max_generalized_eigenpair",
    "min_norm_solve",
]

HERMITICITY_TOL = 1e-12
CLUSTER_TOL = 1e-10
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class HermitianMatrix:
    """Validated Hermitian matrix wrapper."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        drift = float(np.max(np.abs(arr - arr.conj().T)))
        if drift > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: drift {drift:.3e}")
        arr = (arr + arr.conj().T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class Eigenpair:
    """Largest eigenvalue with phase-normalized vector and certified residual.

    ``cluster`` lists every eigenvalue within the near-degeneracy window of
    the top one, the top value included.  ``residual`` is
    ||M v - value v|| for the unit vector v; by Weyl's inequality some
    eigenvalue of M lies within ``residual`` of ``value``.
    """

    value: float
    vector: np.ndarray
    residual: float
    cluster: tuple[float, ...]


def gram_matrix(coeffs: np.ndarray, weights: np.ndarray) -> HermitianMatrix:
    """Weighted Gram V^* diag(w) V of the columns of an L x m coefficient matrix.

    Column j of ``coeffs`` holds the Taylor coefficients of v_j and
    ``weights[k]`` multiplies |c_k|^2, so entries[j][k] = <v_k, v_j>_w and the
    quadratic form c^* G c is the squared weighted norm of V c; the top
    eigenvector is directly an extremal coefficient vector.  Every constant
    of the laboratory is an extreme eigenvalue of such a Gram of the
    Malmquist coefficient matrix E or of a matrix built from it.
    """
    V = np.asarray(coeffs, dtype=np.complex128)
    w = np.asarray(weights, dtype=np.float64)
    if V.ndim != 2 or w.shape != V.shape[:1]:
        raise ValueError("need an L x m coefficient matrix and L weights")
    G = V.conj().T @ (w[:, None] * V)
    return HermitianMatrix((G + G.conj().T) / 2.0)


def eigenvalues(matrix: HermitianMatrix) -> np.ndarray:
    """Full spectrum in ascending order."""
    return np.linalg.eigvalsh(matrix.entries)


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    piv = v[i]
    if abs(piv) == 0.0:
        return v
    return v * (np.conj(piv) / abs(piv))


def _lex_key(v: np.ndarray) -> tuple[float, ...]:
    out: list[float] = []
    for c in v:
        out.append(float(np.real(c)))
        out.append(float(np.imag(c)))
    return tuple(out)


def max_eigenpair(matrix: HermitianMatrix) -> Eigenpair:
    """Largest eigenpair; ties within the near-degeneracy window are broken
    by the lexicographically largest phase-normalized vector.

    Raises :class:`CertificationError` when the residual exceeds the
    near-degeneracy window, i.e. when the pair is not certified to that
    accuracy.
    """
    values, vectors = np.linalg.eigh(matrix.entries)
    top = float(values[-1])
    window = CLUSTER_TOL * (1.0 + abs(top))
    members = [i for i, val in enumerate(values) if top - float(val) <= window]
    candidates = [_phase_normalize(vectors[:, i]) for i in members]
    best = max(range(len(candidates)), key=lambda i: _lex_key(candidates[i]))
    vec = candidates[best]
    chosen = float(values[members[best]])
    residual = float(np.linalg.norm(matrix.entries @ vec - chosen * vec))
    if residual > window:
        raise CertificationError(
            f"eigen-residual {residual:.3e} exceeds the certification window {window:.3e}"
        )
    cluster = tuple(float(values[i]) for i in reversed(members))
    return Eigenpair(chosen, vec, residual, cluster)


def max_generalized_eigenpair(
    matrix: HermitianMatrix, spd: HermitianMatrix
) -> Eigenpair:
    """Largest mu with M v = mu S v, via Cholesky congruence of S.

    A ridge of 1e-14 trace(S) is added once if plain Cholesky fails.
    """
    if matrix.dim != spd.dim:
        raise ValueError("dimension mismatch")
    S = np.array(spd.entries)
    try:
        Lc = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        ridge = 1e-14 * float(np.real(np.trace(S)))
        try:
            Lc = np.linalg.cholesky(S + ridge * np.eye(spd.dim))
        except np.linalg.LinAlgError as exc:
            raise CertificationError("S factor is not positive definite") from exc
    Y = np.linalg.solve(Lc, np.array(matrix.entries))
    reduced = np.linalg.solve(Lc, Y.conj().T).conj().T
    pair = max_eigenpair(HermitianMatrix((reduced + reduced.conj().T) / 2.0))
    # Back-transform the witness to original coordinates.
    v = np.linalg.solve(Lc.conj().T, pair.vector)
    nv = float(np.linalg.norm(v))
    if nv > 0.0:
        v = _phase_normalize(v / nv)
    res = float(
        np.linalg.norm(matrix.entries @ v - pair.value * (spd.entries @ v))
    )
    return Eigenpair(pair.value, v, res, pair.cluster)


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
    vals = eigenvalues(HermitianMatrix(Gs))
    lo, hi = float(vals[0]), float(vals[-1])
    if lo <= 0.0 or hi / lo > CONDITION_LIMIT:
        raise CertificationError(
            f"dual Gram condition estimate {hi / max(lo, 1e-300):.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    Bc = B.reshape(B.shape[0], -1)
    Y = d[:, None] * np.linalg.solve(Gs, d[:, None] * Bc)
    return ((A.conj().T @ Y) / w[:, None]).reshape((w.size,) + B.shape[1:])
