"""Tests for the Hermitian eigensolves, Gram builders and min-norm solves."""

import math

import numpy as np
import pytest

from mslab import hermitian
from mslab.errors import CertificationError
from mslab.hermitian import (
    HermitianMatrix,
    eigenvalues,
    gram_matrix,
    max_eigenpair,
    max_generalized_eigenpair,
    min_norm_solve,
)
from mslab.series import NormKind


def _random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix((A + A.conj().T) / 2.0)


class TestHermitianMatrix:
    """Input validation of the matrix wrapper."""

    def test_rejects_non_square(self):
        """Rectangular input is refused."""
        with pytest.raises(ValueError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_hermiticity_drift(self):
        """A visibly non-Hermitian matrix is refused."""
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_rounding_drift(self):
        """Drift below tolerance is folded away symmetrically."""
        M = HermitianMatrix(np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]]))
        assert np.max(np.abs(M.entries - M.entries.conj().T)) == 0.0


class TestJacobiEigh:
    """Spectrum of dense Hermitian matrices through eigenvalues/max_eigenpair.

    The class keeps its name so the test ids stay stable.
    """

    def test_tridiagonal_closed_form(self):
        """The 3x3 second-difference matrix has eigenvalues 2 and 2 +- sqrt(2)."""
        M = HermitianMatrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
        np.testing.assert_allclose(
            eigenvalues(M), [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)], rtol=1e-14
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
        M = HermitianMatrix(M)
        np.testing.assert_allclose(eigenvalues(M), [0.4, 1.3, 2.7], rtol=1e-15)
        np.testing.assert_allclose(max_eigenpair(M).value, 2.7, rtol=1e-15)

    def test_deterministic_across_calls(self):
        """The same matrix yields bit-identical values and vectors."""
        rng = np.random.default_rng(77)
        M = _random_hermitian(rng, 7)
        p1, p2 = max_eigenpair(M), max_eigenpair(M)
        assert np.array_equal(eigenvalues(M), eigenvalues(M))
        assert p1.value == p2.value and np.array_equal(p1.vector, p2.vector)


class TestMaxEigenpair:
    """Top eigenpair extraction with certificates."""

    def test_value_vector_and_residual(self):
        """The returned pair satisfies the eigen-equation at the residual."""
        rng = np.random.default_rng(15)
        M = _random_hermitian(rng, 8)
        pair = max_eigenpair(M)
        np.testing.assert_allclose(pair.value, float(np.linalg.eigvalsh(M.entries)[-1]), atol=1e-12)
        gap = np.linalg.norm(M.entries @ pair.vector - pair.value * pair.vector)
        assert gap <= pair.residual + 1e-13
        np.testing.assert_allclose(np.linalg.norm(pair.vector), 1.0, rtol=1e-13)

    def test_degenerate_top_reports_cluster(self):
        """A repeated top eigenvalue is surfaced through the cluster field."""
        pair = max_eigenpair(HermitianMatrix(np.eye(4)))
        assert len(pair.cluster) == 4
        np.testing.assert_allclose(pair.cluster, [1.0] * 4)

    def test_simple_top_has_singleton_cluster(self):
        """A well-separated top eigenvalue stands alone."""
        pair = max_eigenpair(HermitianMatrix(np.diag([0.0, 1.0, 5.0])))
        assert pair.cluster == (5.0,)
        assert pair.value == 5.0

    def test_uncertified_residual_rejected(self, monkeypatch):
        """A top vector whose residual exceeds the cluster window is refused."""
        eigh = np.linalg.eigh

        def perturbed(entries):
            values, vectors = eigh(entries)
            vectors[:, -1] += 1e-6 * vectors[:, 0]
            return values, vectors / np.linalg.norm(vectors, axis=0)

        monkeypatch.setattr(hermitian.np.linalg, "eigh", perturbed)
        with pytest.raises(CertificationError, match="eigen-residual"):
            max_eigenpair(HermitianMatrix(np.diag([0.0, 1.0, 5.0])))


class TestGeneralizedEigenpair:
    """Pencil problems M v = mu S v with S positive definite."""

    def test_matches_whitened_reduction(self):
        """The top pencil value equals the top eigenvalue after whitening by S."""
        rng = np.random.default_rng(6)
        M = _random_hermitian(rng, 6)
        B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        S = HermitianMatrix(B @ B.conj().T + 6.0 * np.eye(6))
        pair = max_generalized_eigenpair(M, S)
        Lc = np.linalg.cholesky(S.entries)
        reduced = np.linalg.solve(Lc, np.linalg.solve(Lc, M.entries).conj().T).conj().T
        expect = float(np.linalg.eigvalsh((reduced + reduced.conj().T) / 2.0)[-1])
        np.testing.assert_allclose(pair.value, expect, rtol=1e-11)
        gap = np.linalg.norm(M.entries @ pair.vector - pair.value * (S.entries @ pair.vector))
        assert gap <= pair.residual + 1e-12

    def test_identity_weight_reduces_to_plain_problem(self):
        """S = I gives back the ordinary top eigenvalue."""
        rng = np.random.default_rng(9)
        M = _random_hermitian(rng, 5)
        pair = max_generalized_eigenpair(M, HermitianMatrix(np.eye(5)))
        np.testing.assert_allclose(pair.value, max_eigenpair(M).value, rtol=1e-12)

    def test_indefinite_weight_rejected(self):
        """A pencil with indefinite S raises the certification error."""
        M = HermitianMatrix(np.eye(2))
        S = HermitianMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(CertificationError):
            max_generalized_eigenpair(M, S)


class TestGramMatrix:
    """Weighted Grams of coefficient families."""

    def test_monomials_give_weight_diagonal(self):
        """Monomial columns produce the diagonal of norm weights."""
        G = gram_matrix(np.eye(4), NormKind.DIRICHLET.weights(4))
        np.testing.assert_allclose(G.entries, np.diag([1.0, 2.0, 3.0, 4.0]), atol=0)

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
            float(np.real(c.conj() @ G.entries @ c)),
            float(np.real(np.vdot(combo * w, combo))),
            rtol=1e-13,
        )


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
