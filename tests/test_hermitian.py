"""Tests for the Hermitian eigensolves, Gram builders and min-norm solves."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mslab import hermitian
from mslab.bernstein import _one_point_bands
from mslab.blaschke import malmquist_basis, parse_sigma_spec
from mslab.errors import CertificationError
from mslab.hermitian import (
    _from_bands,
    _stein_block,
    gram_matrix,
    max_eigenpair,
    min_norm_solve,
    stein_denominators,
    stein_solve,
)
from mslab.interpolation import _min_norm_interp
from mslab.series import NormKind


def _random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (A + A.conj().T) / 2.0


class TestEigh:
    """Spectrum of dense Hermitian matrices through eigvalsh/max_eigenpair."""

    def test_tridiagonal_closed_form(self):
        """The 3x3 second-difference matrix has eigenvalues 2 and 2 +- sqrt(2)."""
        M = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(M), [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)], rtol=1e-14
        )
        pair = max_eigenpair(M)
        np.testing.assert_allclose(pair.value, 2.0 + math.sqrt(2.0), rtol=1e-14)
        np.testing.assert_allclose(
            pair.vector, np.array([1.0, math.sqrt(2.0), 1.0]) / 2.0, atol=1e-14
        )

    def test_vectors_are_unitary(self):
        """The top vector has unit norm and a real positive largest entry."""
        rng = np.random.default_rng(4)
        M = _random_hermitian(rng, 9)
        vec = max_eigenpair(M).vector
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-14)
        piv = vec[int(np.argmax(np.abs(vec)))]
        assert abs(piv.imag) <= 1e-15 and piv.real > 0.0

    def test_numerically_diagonal_input_converges(self):
        """Off-diagonal entries at rounding level leave the diagonal as spectrum."""
        M = np.diag([1.3, 2.7, 0.4]).astype(complex)
        M[0, 1] = M[1, 0] = 2e-17
        M[0, 2] = M[2, 0] = -1.5e-17
        np.testing.assert_allclose(np.linalg.eigvalsh(M), [0.4, 1.3, 2.7], rtol=1e-15)
        np.testing.assert_allclose(max_eigenpair(M).value, 2.7, rtol=1e-15)

    def test_deterministic_across_calls(self):
        """The same matrix yields bit-identical values and vectors."""
        rng = np.random.default_rng(77)
        M = _random_hermitian(rng, 7)
        p1, p2 = max_eigenpair(M), max_eigenpair(M)
        assert np.array_equal(np.linalg.eigvalsh(M), np.linalg.eigvalsh(M))
        assert p1.value == p2.value and np.array_equal(p1.vector, p2.vector)


class TestMaxEigenpair:
    """Top eigenpair extraction with certificates."""

    def test_value_vector_and_residual(self):
        """The returned pair satisfies the eigen-equation at the residual."""
        rng = np.random.default_rng(15)
        M = _random_hermitian(rng, 8)
        pair = max_eigenpair(M)
        np.testing.assert_allclose(pair.value, float(np.linalg.eigvalsh(M)[-1]), atol=1e-12)
        gap = np.linalg.norm(M @ pair.vector - pair.value * pair.vector)
        assert gap <= pair.residual + 1e-13
        np.testing.assert_allclose(np.linalg.norm(pair.vector), 1.0, rtol=1e-13)

    def test_simple_and_repeated_tops_are_certified(self):
        """A simple, a repeated and a nearly repeated top take one path: the
        value is the top eigenvalue to the bit, the unit vector has a real
        positive pivot, and its residual bounds ||M v - value v|| inside the
        window."""
        rng = np.random.default_rng(21)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        near = (Q * np.array([0.1, 0.4, 0.7, 2.0, 2.0 + 3e-11])) @ Q.conj().T
        near = (near + near.conj().T) / 2.0
        for M in (np.diag([0.0, 1.0, 5.0]), np.eye(4), np.diag([0.0, 5.0, 5.0]), near):
            pair = max_eigenpair(M)
            assert pair.value == np.linalg.eigvalsh(M)[-1]
            v = pair.vector
            assert np.linalg.norm(M @ v - pair.value * v) <= pair.residual + 1e-15
            assert pair.residual <= hermitian.RESIDUAL_TOL * (1.0 + abs(pair.value))
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-14)
            piv = v[int(np.argmax(np.abs(v)))]
            assert abs(piv.imag) <= 1e-15 and piv.real > 0.0

    def test_uncertified_residual_rejected(self, monkeypatch):
        """A top vector whose residual exceeds the certification window is
        refused, for a simple top (real and complex) and a repeated one."""
        eigh = np.linalg.eigh
        simple = np.diag([0.0, 1.0, 5.0])
        cases = (simple, simple.astype(complex), np.diag([0.0, 5.0, 5.0]))
        for M in cases:
            max_eigenpair(M)

        def perturbed(entries):
            values, vectors = eigh(entries)
            vectors[:, 1:] += 1e-6 * vectors[:, :1]
            return values, vectors / np.linalg.norm(vectors, axis=0)

        monkeypatch.setattr(hermitian.np.linalg, "eigh", perturbed)
        for M in cases:
            with pytest.raises(CertificationError, match="eigen-residual"):
                max_eigenpair(M)

    def test_non_finite_entry_is_certification_failure(self):
        """A Gram holding inf or NaN, the mark of an overflow, is refused as
        a numerical failure, not as invalid input, at n = 1 too."""
        for bad in (np.inf, np.nan):
            M = np.eye(3)
            M[0, 2] = M[2, 0] = bad
            for entries in (M, M.astype(complex), np.array([[bad]])):
                with pytest.raises(CertificationError, match="non-finite"):
                    max_eigenpair(entries)


def _loop_top_pair(M):
    """The top eigenvalue and its column scaled by conj(p)/abs(p), p the
    column's largest-modulus entry, one plain step at a time: the reference
    ``max_eigenpair`` must reproduce bit for bit."""
    values, vectors = np.linalg.eigh(M)
    v = vectors[:, -1]
    piv = v[int(np.argmax(np.abs(v)))]
    return float(values[-1]), v * (np.conj(piv) / abs(piv))


def _assert_same_pair(pair, M):
    value, vector = _loop_top_pair(M)
    assert pair.value == value
    assert pair.vector.dtype == vector.dtype
    assert np.array_equal(pair.vector, vector)


class TestEigenpairSelection:
    """The phase normalization pinned to a plain reference."""

    def test_real_input_gives_real_vector_with_positive_pivot(self):
        """A real symmetric matrix returns a float64 vector whose largest
        entry is positive, equal to the reference normalization."""
        rng = np.random.default_rng(8)
        for d in (1, 2, 5, 12):
            A = rng.normal(size=(d, d))
            M = (A + A.T) / 2.0
            pair = max_eigenpair(M)
            assert pair.vector.dtype == np.float64
            assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0.0
            _assert_same_pair(pair, M)

    def test_random_panel_matches_loop(self):
        """Random real and complex matrices, with and without a repeated top
        eigenvalue, agree bit for bit with the reference."""
        rng = np.random.default_rng(3)
        for trial in range(60):
            d = int(rng.integers(1, 9))
            A = rng.normal(size=(d, d))
            if trial % 2:
                A = A + 1j * rng.normal(size=(d, d))
            if trial % 3 == 0:
                Q, _ = np.linalg.qr(A)
                spectrum = rng.uniform(size=d)
                spectrum[: min(d, 3)] = 1.5
                A = (Q * spectrum) @ Q.conj().T
            M = (A + A.conj().T) / 2.0
            _assert_same_pair(max_eigenpair(M), M)

    def test_small_and_large_panels_match_loop(self):
        """n = 1 (a zero of either sign and a complex entry), real matrices
        up to d = 40 and complex ones up to d = 40 agree bit for bit with the
        reference."""
        rng = np.random.default_rng(9)
        panel = [np.array([[2.5]]), np.array([[-0.0]]), np.array([[-1.5 + 0j]])]
        for d in (1, 2, 3, 5, 8, 13, 21, 40):
            A = rng.normal(size=(d, d))
            panel.append((A + A.T) / 2.0)
        for d in range(1, 41):
            B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            panel.append((B + B.conj().T) / 2.0)
        for M in panel:
            _assert_same_pair(max_eigenpair(M), M)

    def test_near_repeated_top_matches_loop(self):
        """Two top eigenvalues 3e-11 apart, inside the certification window,
        and an exactly repeated top: the top column is taken and normalized
        bit for bit as the reference does, with no choice between the two."""
        rng = np.random.default_rng(21)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        for spectrum in ([0.1, 0.4, 0.7, 2.0, 2.0 + 3e-11], [0.1, 0.4, 0.7, 2.0, 2.0]):
            M = (Q * np.array(spectrum)) @ Q.conj().T
            M = (M + M.conj().T) / 2.0
            values = np.linalg.eigvalsh(M)
            assert values[-1] - values[-2] <= hermitian.RESIDUAL_TOL * (1.0 + abs(values[-1]))
            _assert_same_pair(max_eigenpair(M), M)

    def test_phase_divides_by_abs_not_hypot(self):
        """The phase factor is conj(p)/abs(p).  The panel holds a complex top
        vector whose phase comes out otherwise with math.hypot(Re p, Im p) in
        place of abs(p), so a phase taken with that hypot would show."""
        rng = np.random.default_rng(9)
        for trial in range(10000):
            d = trial % 6 + 1
            B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            M = (B + B.conj().T) / 2.0
            top = np.linalg.eigh(M)[1][:, -1]
            p = top[np.abs(top).argmax()]
            other = top * (p.conjugate() / math.hypot(p.real, p.imag))
            if not np.array_equal(top * (p.conjugate() / abs(p)), other):
                break
        else:
            pytest.fail("no top vector tells math.hypot from abs")
        pair = max_eigenpair(M)
        _assert_same_pair(pair, M)
        assert not np.array_equal(pair.vector, other)


def _relative_top_gap(M):
    values = np.linalg.eigvalsh(M)
    return (values[-1] - values[-2]) / (1.0 + abs(values[-1]))


class TestConstantGramsHaveSimpleTop:
    """Every Gram whose top eigenvalue is a constant of the laboratory has a
    simple top, well clear of the certification window: the one top column
    of ``max_eigenpair`` is then the extremal, unique up to phase.  The
    relative gap (lambda_1 - lambda_2)/(1 + |lambda_1|) measured here is also
    the one a gap-based error bound on the top eigenvalue would read."""

    FLOOR = 1e-3

    def test_one_point_bands(self):
        """C_B, C_H and I on the banded route, n up to 200 and r up to 0.999.
        The least gap, 1/(n+1) at r = 0 where the I Gram is diag(1..n), sits
        at n = 200."""
        gaps = {}
        for kind in (NormKind.BERGMAN, NormKind.HARDY, NormKind.DIRICHLET):
            for n in (2, 5, 12, 40, 200):
                for r in (0.0, 0.5, 0.9, 0.99, 0.999):
                    M = _from_bands(*_one_point_bands(n, r, kind))
                    gaps[kind, n, r] = _relative_top_gap(M)
        assert min(gaps.values()) >= self.FLOOR
        np.testing.assert_allclose(gaps[NormKind.DIRICHLET, 200, 0.0], 1.0 / 201.0, rtol=1e-12)

    def test_basis_route(self):
        """C_B and C_H from the Gram of E, and I from the Dirichlet Gram of
        the minimum-norm interpolants, on seeded random configurations, a
        double point beside a simple one and four points at the origin."""
        sigmas = [
            *parse_sigma_spec("random:n=3,r=0.5,count=3,seed=1"),
            *parse_sigma_spec("random:n=5,r=0.8,count=3,seed=2"),
            *parse_sigma_spec("random:n=8,r=0.9,count=3,seed=3"),
            *parse_sigma_spec("random:n=12,r=0.98,count=2,seed=4"),
            *parse_sigma_spec("0.3,0;0.3,0;-0.2,0.4"),
            *parse_sigma_spec("0,0;0,0;0,0;0,0"),
        ]
        for sigma in sigmas:
            basis = malmquist_basis(sigma)
            k = np.arange(basis.trunc_len, dtype=np.float64)
            interpolants = _min_norm_interp(basis)[0]
            grams = (
                gram_matrix(basis.matrix, k),
                gram_matrix(basis.matrix, k * k),
                gram_matrix(interpolants, NormKind.DIRICHLET.weights(basis.trunc_len)),
            )
            for M in grams:
                assert _relative_top_gap(M) >= self.FLOOR, sigma.key()


class TestGramMatrix:
    """Weighted Grams of coefficient families."""

    def test_monomials_give_weight_diagonal(self):
        """Monomial columns produce the diagonal of norm weights."""
        G = gram_matrix(np.eye(4), NormKind.DIRICHLET.weights(4))
        np.testing.assert_allclose(G, np.diag([1.0, 2.0, 3.0, 4.0]), atol=0)

    def test_quadratic_form_matches_norm(self):
        """c^* G c equals the squared norm of the combination."""
        rng = np.random.default_rng(12)
        V = np.column_stack(
            [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3)]
        )
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = NormKind.BERGMAN.weights(6)
        G = gram_matrix(V, w)
        combo = V @ c
        np.testing.assert_allclose(
            float(np.real(c.conj() @ G @ c)),
            float(np.real(np.vdot(combo * w, combo))),
            rtol=1e-13,
        )

    def test_result_is_exactly_hermitian(self):
        """The Gram comes back symmetrized to the last bit."""
        rng = np.random.default_rng(14)
        V = rng.normal(size=(30, 6)) + 1j * rng.normal(size=(30, 6))
        G = gram_matrix(V, NormKind.DIRICHLET.weights(30))
        assert np.array_equal(G, G.conj().T)

    def test_real_input_stays_real(self):
        """A real coefficient matrix gives a float64 Gram and a real top pair
        equal to the complex computation; complex input stays complex."""
        rng = np.random.default_rng(13)
        V = rng.normal(size=(9, 5))
        w = NormKind.DIRICHLET.weights(9)
        G = gram_matrix(V, w)
        assert G.dtype == np.float64
        Gc = gram_matrix(V.astype(np.complex128), w)
        assert Gc.dtype == np.complex128
        real_pair, complex_pair = max_eigenpair(G), max_eigenpair(Gc)
        assert real_pair.vector.dtype == np.float64
        np.testing.assert_allclose(real_pair.value, complex_pair.value, rtol=1e-14)
        np.testing.assert_allclose(real_pair.vector, complex_pair.vector, atol=1e-12)


class TestMinNormSolve:
    """Weighted minimum-norm interpolation through the dual Gram."""

    def test_single_point_kernel_norm(self):
        """Interpolating value 1 at lam costs exactly 1 - |lam|^2 in squared Hardy norm."""
        for lam in (0.0, 0.3, 0.5 + 0.25j):
            L = 80
            row = np.asarray(np.conj(lam) ** np.arange(L), dtype=complex)
            c = min_norm_solve(np.ones(L), row[None, :], np.ones(1))
            np.testing.assert_allclose(np.vdot(c, c).real, 1.0 - abs(lam) ** 2, atol=1e-12)
            np.testing.assert_allclose(complex(row @ c), 1.0, rtol=1e-12)

    def test_matches_lstsq_on_whitened_system(self):
        """The solution agrees with a least-squares solve of the whitened system."""
        rng = np.random.default_rng(25)
        L, m = 18, 4
        w = rng.uniform(0.5, 3.0, size=L)
        A = rng.normal(size=(m, L)) + 1j * rng.normal(size=(m, L))
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        c = min_norm_solve(w, A, b)
        half = np.sqrt(w)
        y, *_ = np.linalg.lstsq(A / half[None, :], b, rcond=None)
        np.testing.assert_allclose(c, y / half, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(half * c), np.linalg.norm(y), rtol=1e-12)

    def test_batched_solve_matches_per_column_solves(self):
        """One solve for q right-hand sides equals q single solves."""
        rng = np.random.default_rng(26)
        L, m, q = 40, 5, 7
        w = NormKind.DIRICHLET.weights(L)
        lam = 0.6 * np.exp(2j * np.pi * rng.uniform(size=m))
        A = lam[:, None] ** np.arange(L)
        B = rng.normal(size=(m, q)) + 1j * rng.normal(size=(m, q))
        X = min_norm_solve(w, A, B)
        assert X.shape == (L, q)
        for j in range(q):
            np.testing.assert_allclose(
                X[:, j], min_norm_solve(w, A, B[:, j]), rtol=0, atol=1e-13
            )

    def test_targets_must_match_rows(self):
        """One target (row of B) per functional."""
        with pytest.raises(ValueError):
            min_norm_solve(np.ones(3), np.ones((2, 3)), np.ones(3))

    def test_duplicate_constraints_rejected(self):
        """A repeated constraint row makes the dual Gram singular."""
        row = np.array([1.0, 0.5, 0.25], dtype=complex)
        with pytest.raises(CertificationError):
            min_norm_solve(np.ones(3), np.vstack([row, row]), np.ones(2))

    def test_row_length_must_match_weights(self):
        """Functional length and weight length are tied together."""
        with pytest.raises(ValueError):
            min_norm_solve(np.ones(4), np.ones((1, 3)), np.ones(1))

    def test_nonpositive_weights_rejected(self):
        """Weights must be strictly positive."""
        with pytest.raises(ValueError):
            min_norm_solve(np.array([1.0, 0.0]), np.ones((1, 2)), np.ones(1))


def _kronecker_stein(B, C, R):
    """X - B X C^* = R by one dense solve of its n^2 x n^2 Kronecker system,
    denominators rounded as they fall."""
    p, q = R.shape
    M = np.eye(p * q) - np.kron(B, C.conj())
    return np.linalg.solve(M, R.reshape(-1)).reshape(p, q)


def _triangular(rng, n, radius):
    """A lower-triangular contraction-sized matrix with diagonal in the disc
    of the given radius."""
    A = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / (2.0 * n)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    A[np.diag_indices(n)] = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * ang)
    return A


class TestSteinDenominators:
    """1 - lam_i conj(lam_j) to a few units of rounding of itself."""

    @staticmethod
    def _worst_relative_error(M, lam):
        """Largest |M[i, j] - (1 - lam_i conj(lam_j))| / |1 - lam_i conj(lam_j)|,
        each entry and its error in exact rational arithmetic."""
        xs = [Fraction(float(z.real)) for z in lam]
        ys = [Fraction(float(z.imag)) for z in lam]
        worst = 0.0
        for i, j in np.ndindex(M.shape):
            re = 1 - xs[i] * xs[j] - ys[i] * ys[j]
            im = xs[i] * ys[j] - ys[i] * xs[j]
            err = math.hypot(Fraction(M[i, j].real) - re, Fraction(M[i, j].imag) - im)
            worst = max(worst, err / math.hypot(re, im))
        return worst

    def test_entries_within_a_few_units_of_rounding(self):
        """Points at moduli 1 - 1e-4 .. 1 - 1e-15 with close neighbours, the
        origin and the axes: every entry is within 4 units of rounding of
        itself, while the rounded 1 - lam_i conj(lam_j) misses some entry by
        more than 1e3 units."""
        rng = np.random.default_rng(11)
        mod = 1.0 - 10.0 ** rng.uniform(-15.0, -4.0, 14)
        ang = rng.uniform(0.0, 2.0 * np.pi, 14)
        lam = np.concatenate(
            (mod * np.exp(1j * ang), mod[:3] * np.exp(1j * (ang[:3] + 1e-9)), [0.0, 0.6, -0.8j, 0.6 + 0.7999j])
        )
        eps = np.finfo(np.float64).eps
        assert self._worst_relative_error(stein_denominators(lam), lam) <= 4.0 * eps
        rounded = 1.0 - lam[:, None] * lam.conj()
        assert self._worst_relative_error(rounded, lam) > 1e3 * eps

    def test_hermitian_with_real_diagonal(self):
        """D = D^* bit for bit, and the diagonal is q_j = 1 - |lam_j|^2 with
        an imaginary part of exactly 0; real points give a real D."""
        rng = np.random.default_rng(12)
        lam = 0.999 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 9))
        D = stein_denominators(lam)
        np.testing.assert_array_equal(D, D.conj().T)
        assert not D.diagonal().imag.any()
        np.testing.assert_allclose(D.diagonal().real, 1.0 - np.abs(lam) ** 2, rtol=1e-12)
        assert not stein_denominators(np.array([0.3, -0.9, 0.0])).imag.any()


class TestSteinSolve:
    """The recursive blocked Stein solver against one dense Kronecker solve."""

    @pytest.mark.parametrize("n", (1, 2, 7, 8, 9, 13, 20))
    def test_hermitian_solve_matches_kronecker(self, n):
        """X - A X A^* = R for lower-triangular A: the blocked solution is
        Hermitian bit for bit and agrees with the dense solve to 1e-12,
        across the Kronecker base (n^2 < 64) and one or more halvings."""
        rng = np.random.default_rng(n)
        A = _triangular(rng, n, 0.95)
        R = _random_hermitian(rng, n)
        X = stein_solve(A, R, stein_denominators(A.diagonal()))
        np.testing.assert_array_equal(X, X.conj().T)
        want = _kronecker_stein(A, A, R)
        assert np.linalg.norm(X - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", ((9, 5), (3, 11), (8, 8), (17, 6)))
    def test_general_block_matches_kronecker(self, shape):
        """X - B X C^* = R for two triangular matrices and a rectangular R:
        both halvings, the row one and the column one, agree with the dense
        solve to 1e-12 (``C`` goes in as -conj(C))."""
        p, q = shape
        rng = np.random.default_rng(p * q)
        A = _triangular(rng, p + q, 0.95)
        B, C = A[:p, :p], A[p:, p:]
        R = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        D = stein_denominators(A.diagonal())[:p, p:]
        X = _stein_block(B, -C.conj(), R, D)
        want = _kronecker_stein(B, C, R)
        assert np.linalg.norm(X - want) <= 1e-12 * np.linalg.norm(want)
