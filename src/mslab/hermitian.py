"""Hermitian eigenproblems, dense and banded, and weighted minimum-norm solves.

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

A tridiagonal or pentadiagonal Gram whose bands alternate in sign, as the
one-point Grams of :mod:`mslab.bernstein` do, has its top eigenpair found
from the bands alone by :func:`_max_band_eigenpair`: after the sign change
S = diag((-1)^k) the matrix is nonnegative, and Noda's shift-and-invert
iteration at Collatz-Wielandt shifts settles in about seven O(n) banded
solves.  Its last shift is an upper bound on the top eigenvalue, and the
reported Rayleigh quotient a lower one; a bracket wider than the
certification window is refused, so that route certifies that it reports
the top eigenvalue, which the dense route takes on trust from LAPACK.

Weighted minimum-norm interpolation, minimize sum w_k |c_k|^2 subject to
A c = b for an m x L functional matrix A, is solved through the dual Gram
A W^{-1} A^*.  That Gram depends on A and the weights only, so it is built,
equilibrated and certified once and then serves any number of right-hand
sides in one solve.

The Stein equation X - A X A^* = R for a lower-triangular A is solved by
recursive blocking (:func:`stein_solve`) over Kronecker systems whose
diagonals 1 - a_i conj(a_j) come from error-free products
(:func:`stein_denominators`): rounded as written they would cost about
eps/(1 - |a|^2) relative, the whole error budget as |a| -> 1.
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
    "stein_denominators",
    "stein_solve",
]

RESIDUAL_TOL = 1e-10
CONDITION_LIMIT = 1e12

# Veltkamp's splitter 2^27 + 1 for float64.
_SPLIT = 134217729.0

# A Stein block with fewer unknowns than this is one Kronecker system.
_STEIN_BASE = 64

# The most shifted solves of one Perron iteration; every one-point Gram
# tried, n from 12 to 10^5 and r up to 0.999, settles in at most 8.
_PERRON_SOLVES = 32
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


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


def _band_apply(bands: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """J x for the symmetric band matrix J of :func:`_from_bands`."""
    y = bands[0] * x
    for d, band in enumerate(bands[1:], start=1):
        y[:-d] += band * x[d:]
        y[d:] += band * x[:-d]
    return y


def _shifted_solve3(mu: float, a: list, b: list, x: list, floor: float) -> list:
    """(mu I - J) y = x for tridiagonal J with main diagonal a and
    nonnegative off-diagonal b (its last entry, past n - 1, unread), by
    LDL^T without pivoting.  With L[k+1, k] = -l_k every l_k is
    nonnegative, so both triangular sweeps add nonnegative terms; a pivot at
    or below 0 is replaced by ``floor``."""
    p = mu - a[0]
    if p <= 0.0:
        p = floor
    z = x[0]
    w, ls = [z / p], []
    for ak, bk, xk in zip(a[1:], b, x[1:]):
        lk = bk / p
        p = mu - ak - bk * lk
        if p <= 0.0:
            p = floor
        z = xk + lk * z
        ls.append(lk)
        w.append(z / p)
    y = w.pop()
    out = [y]
    for wk, lk in zip(reversed(w), reversed(ls)):
        y = wk + lk * y
        out.append(y)
    out.reverse()
    return out


def _shifted_solve5(mu: float, a: list, b: list, c: list, x: list, floor: float) -> list:
    """:func:`_shifted_solve3` for pentadiagonal J, whose nonnegative bands
    b and c are padded with zeros to the length n of a.  With
    L[k+1, k] = -u_k and L[k+2, k] = -v_k, the pivot is
    d_k = mu - a_k - e_{k-1} u_{k-1} - c_{k-2} v_{k-2}, where
    e_k = u_k d_k = b_k + v_{k-1} e_{k-1} and v_k = c_k / d_k."""
    e1 = u1 = v1 = v2 = z1 = z2 = cv1 = cv2 = 0.0
    w, us, vs = [], [], []
    for ak, bk, ck, xk in zip(a, b, c, x):
        d = mu - ak - e1 * u1 - cv2
        if d <= 0.0:
            d = floor
        z2, z1 = z1, xk + u1 * z1 + v2 * z2
        e1 = bk + v1 * e1
        u1 = e1 / d
        v2, v1 = v1, ck / d
        cv2, cv1 = cv1, ck * v1
        w.append(z1 / d)
        us.append(u1)
        vs.append(v1)
    y1 = y2 = 0.0
    out = []
    for wk, uk, vk in zip(reversed(w), reversed(us), reversed(vs)):
        y2, y1 = y1, wk + uk * y1 + vk * y2
        out.append(y1)
    out.reverse()
    return out


def _max_band_eigenpair(*bands: np.ndarray) -> Eigenpair:
    """:func:`max_eigenpair` of ``_from_bands(*bands)`` for a tridiagonal or
    pentadiagonal G whose d-th band has the sign (-1)^d or is 0, in O(n)
    work and memory.

    With S = diag((-1)^k), J = S G S has nonnegative bands, so its top
    eigenvalue, G's, is its Perron root, with a nonnegative eigenvector.
    Noda's iteration (Numer. Math. 17, 1971; quadratically convergent,
    Elsner 1976) starts from x = 1 and repeats: take the Collatz-Wielandt
    bound mu = max_k (J x)_k / x_k, which no eigenvalue of J exceeds for a
    positive x; solve (mu I - J) y = x, an M-matrix, by a banded LDL^T
    without pivoting, whose pivots are then positive; and set
    x = max(y / max y, tiny), which keeps x positive where its entries
    would underflow.  A pivot that rounds to 0 or below means mu is an
    eigenvalue to working precision; it is replaced by eps mu, which makes
    that solve a step of inverse iteration at mu.  The iteration stops when
    mu stops decreasing, within ``_PERRON_SOLVES`` solves.  A diagonal J
    (all off-diagonal bands 0) is answered exactly.

    The value is the Rayleigh quotient of x, the vector S x / |x| with the
    sign rule of :func:`max_eigenpair`.  Raises :class:`CertificationError`
    on a non-finite band, when the iteration does not settle, or when the
    residual or the gap between the last bound mu and the value exceeds
    the window RESIDUAL_TOL (1 + |value|).  The value lies below the top
    eigenvalue and mu above it, so the second check certifies that the
    reported eigenvalue is the top one, which :func:`max_eigenpair` takes
    on trust from LAPACK.
    """
    if not all(np.isfinite(band).all() for band in bands):
        raise CertificationError("band matrix has non-finite entries (overflow)")
    J = [band if d % 2 == 0 else -band for d, band in enumerate(bands)]
    if any((band < 0.0).any() for band in J[1:]):
        raise ValueError("bands must alternate in sign")
    main = J[0]
    n = main.size
    if not any(band.any() for band in J[1:]):
        k = int(main.argmax())
        vec = np.zeros(n)
        vec[k] = 1.0
        return Eigenpair(float(main[k]), vec, 0.0)
    lists = [band.tolist() + [0.0] * d for d, band in enumerate(J)]
    solve = _shifted_solve3 if len(J) == 2 else _shifted_solve5
    x = np.ones(n)
    mu = float(np.max(_band_apply(J, x)))
    for _ in range(_PERRON_SOLVES):
        y = np.array(solve(mu, *lists, x.tolist(), _EPS * abs(mu) or _TINY))
        x = np.maximum(y / y.max(), _TINY)
        bound = float(np.max(_band_apply(J, x) / x))
        if not bound < mu:
            break
        mu = bound
    else:
        raise CertificationError(
            f"Perron iteration did not settle in {_PERRON_SOLVES} solves"
        )
    jx = _band_apply(J, x)
    sq = x.dot(x)
    value = float(x.dot(jx) / sq)
    d = jx - value * x
    scale = math.sqrt(sq)
    residual = math.sqrt(d.dot(d)) / scale
    window = RESIDUAL_TOL * (1.0 + abs(value))
    if not residual <= window:
        raise CertificationError(
            f"eigen-residual {residual:.3e} exceeds the certification window {window:.3e}"
        )
    if not mu - value <= window:
        raise CertificationError(
            f"Collatz-Wielandt bound {mu!r} exceeds the value {value!r} "
            f"by more than the certification window {window:.3e}"
        )
    vec = x / scale
    vec[1::2] *= -1.0
    if vec[np.abs(vec).argmax()] < 0.0:
        vec = -vec
    return Eigenpair(value, vec, residual)


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
    is_complex = vec.dtype.kind == "c"
    if is_complex:
        vec = vec * (piv.conjugate() / abs(piv))
    else:
        vec = -vec if piv < 0.0 else vec.copy()
    d = matrix @ vec
    d -= top * vec
    # The 2-norm summed as numpy.linalg.norm sums it, without its dispatch.
    sq = d.real.dot(d.real) + d.imag.dot(d.imag) if is_complex else d.dot(d)
    residual = math.sqrt(sq)
    if residual > window:
        raise CertificationError(
            f"eigen-residual {residual:.3e} exceeds the certification window {window:.3e}"
        )
    return Eigenpair(top, vec, residual)


def stein_denominators(lam: np.ndarray) -> np.ndarray:
    """D[i, j] = 1 - lam_i conj(lam_j) for points lam of the open disc, each
    entry to a few units of rounding of itself, however close to 0.

    Rounded as written, 1 - lam_i conj(lam_j) loses about eps/(1 - |lam|^2)
    relative.  Here every product of two coordinates is split into its
    rounded value and its rounding error, both exact (Dekker 1971: Veltkamp's
    split of each factor into two halves of 26 bits, whose products are
    exact).  The real part is then a sum of three nonnegative terms,
    (q_i + q_j)/2 + |lam_i - lam_j|^2/2 with q_i = 1 - x_i^2 - y_i^2 summed
    with the error of its rounded head x_i^2 + y_i^2 (Knuth's TwoSum), and
    the imaginary part x_i y_j - y_i x_j is a difference of error-free
    products; i = j gives q_i and an imaginary part of exactly 0.
    """
    lam = np.ascontiguousarray(lam, dtype=np.complex128)
    z = lam.view(np.float64)  # x_0, y_0, x_1, y_1, ...
    hi = _SPLIT * z
    hi -= hi - z
    lo = z - hi
    sq = z * z
    sq_err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    xx, yy = sq[0::2], sq[1::2]
    head = xx + yy
    back = head - xx
    head_err = (xx - (head - back)) + (yy - back)
    q = (1.0 - head) - ((head_err + sq_err[0::2]) + sq_err[1::2])
    d = lam[:, None] - lam
    out = np.empty(d.shape, dtype=np.complex128)
    out.real = 0.5 * (q[:, None] + q) + 0.5 * (d.real * d.real + d.imag * d.imag)
    x, xh, xl = z[0::2, None], hi[0::2, None], lo[0::2, None]
    y, yh, yl = z[1::2], hi[1::2], lo[1::2]
    p = x * y
    e = (((xh * yh - p) + xh * yl) + xl * yh) + xl * yl
    out.imag = (p - p.T) + (e - e.T)
    return out


def _stein_base(B: np.ndarray, negc: np.ndarray, R: np.ndarray, D: np.ndarray) -> np.ndarray:
    """X - B X C^* = R, with ``negc`` = -conj(C), by its Kronecker system:
    unknown X[k, l] enters equation (i, j) with B[i, k] negc[j, l], and the
    diagonal is D."""
    p, q = R.shape
    M = (B[:, None, :, None] * negc[None, :, None, :]).reshape(p * q, p * q)
    M.flat[:: p * q + 1] = D.reshape(-1)
    return np.linalg.solve(M, R.reshape(-1)).reshape(p, q)


def _stein_block(B: np.ndarray, negc: np.ndarray, R: np.ndarray, D: np.ndarray) -> np.ndarray:
    """X - B X C^* = R for lower-triangular B and C, ``negc`` = -conj(C),
    recursively blocked on the larger side of X."""
    p, q = R.shape
    if p * q < _STEIN_BASE:
        return _stein_base(B, negc, R, D)
    X = np.empty_like(R)
    if p >= q:
        h = p // 2
        X[:h] = _stein_block(B[:h, :h], negc, R[:h], D[:h])
        rhs = R[h:] - B[h:, :h] @ (X[:h] @ negc.T)
        X[h:] = _stein_block(B[h:, h:], negc, rhs, D[h:])
    else:
        h = q // 2
        X[:, :h] = _stein_block(B, negc[:h, :h], R[:, :h], D[:, :h])
        rhs = R[:, h:] - (B @ X[:, :h]) @ negc[h:, :h].T
        X[:, h:] = _stein_block(B, negc[h:, h:], rhs, D[:, h:])
    return X


def _stein_hermitian(A: np.ndarray, negc: np.ndarray, R: np.ndarray, D: np.ndarray) -> np.ndarray:
    """:func:`stein_solve` before its last symmetrization, with
    ``negc`` = -conj(A)."""
    n = R.shape[0]
    if n * n < _STEIN_BASE:
        return _stein_base(A, negc, R, D)
    h = n // 2
    A21, A22 = A[h:, :h], A[h:, h:]
    X = np.empty_like(R)
    X11 = X[:h, :h] = _stein_hermitian(A[:h, :h], negc[:h, :h], R[:h, :h], D[:h, :h])
    lead = A21 @ X11
    X21 = X[h:, :h] = _stein_block(A22, negc[:h, :h], R[h:, :h] - lead @ negc[:h, :h].T, D[h:, :h])
    X[:h, h:] = X21.conj().T
    cross = A22 @ X21
    # (A X A^*)_22 - A22 X22 A22^* = A21 X11 A21^* + S + S^*, S = A22 X21 A21^*.
    fold = (lead + cross) @ A21.conj().T + (cross @ A21.conj().T).conj().T
    X[h:, h:] = _stein_hermitian(A22, negc[h:, h:], R[h:, h:] + fold, D[h:, h:])
    return X


def stein_solve(A: np.ndarray, R: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The Hermitian solution X of the Stein equation X - A X A^* = R, for a
    lower-triangular A of spectral radius below 1 and a Hermitian R.

    ``D`` is the matrix of denominators 1 - a_i conj(a_j) over the diagonal
    a of A, from :func:`stein_denominators`.  The solver is the recursive
    blocked one of Jonsson and Kagstrom (ACM TOMS 2002): halve X, solve its
    leading diagonal block, then the block below it as a general triangular
    Stein equation and the trailing diagonal block, each with what is solved
    folded into its right-hand side by two products; a general block halves
    its larger side the same way.  Blocks of fewer than 64 unknowns are
    solved as Kronecker systems with D on their diagonal.
    """
    X = _stein_hermitian(A, -A.conj(), R, D)
    return (X + X.conj().T) / 2.0


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
