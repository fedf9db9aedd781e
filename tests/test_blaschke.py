"""Tests for pole configurations, Malmquist bases and model-space projections."""

import numpy as np
import pytest

from mslab.blaschke import (
    PoleConfiguration,
    blaschke_factor_eval,
    blaschke_product_eval,
    malmquist_basis,
    malmquist_basis_auto,
    model_projection,
    multiplicity_groups,
    parse_sigma_spec,
)
from mslab import blaschke
from mslab.bernstein import step2_test_function
from mslab.errors import CertificationError
from mslab.interpolation import theoremB_test_function
from mslab.series import (
    NormKind,
    TaylorSeries,
    _divide_by_kernel_factor,
    evaluate,
    norm,
    norm_sq,
    polynomial,
)


def _random_config(rng, n, max_r):
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PoleConfiguration(tuple(rad * np.exp(1j * ang)))


def _factor_coeffs(lam, N):
    """Closed-form Taylor coefficients 0..N of (lam - z)/(1 - conj(lam) z):
    c_0 = lam, c_k = -(1 - |lam|^2) conj(lam)^(k-1)."""
    c = np.empty(N + 1, dtype=np.complex128)
    c[0] = lam
    c[1:] = -(1.0 - abs(lam) ** 2) * np.conj(complex(lam)) ** np.arange(N)
    return c


def _convolution_basis_matrix(sigma, N):
    """Independent build: each element as a full truncated Cauchy product
    of the Blaschke-factor prefix with the normalized kernel, shape (N+1, n)."""
    columns = []
    prefix = np.ones(1, dtype=np.complex128)
    for lam in sigma.points:
        kernel = np.sqrt(1.0 - abs(lam) ** 2) * np.conj(complex(lam)) ** np.arange(N + 1)
        columns.append(np.convolve(prefix, kernel)[: N + 1])
        prefix = np.convolve(prefix, _factor_coeffs(lam, N))[: N + 1]
    return np.column_stack(columns)


def _recurrence_basis_matrix(sigma, N):
    """Independent build: the two-term recurrence element by element, each
    a scale, a one-place shift and a division by 1 - conj(lam) z on a window
    of N+1 coefficients, shape (N+1, n)."""
    pts = sigma.points
    s = [np.sqrt(1.0 - abs(lam) ** 2) for lam in pts]
    columns = []
    e = np.zeros(N + 1, dtype=np.complex128)
    e[0] = s[0]
    for j, lam in enumerate(pts):
        if j > 0:
            # (lam_{j-1} - z) e_{j-1}, rescaled from s_{j-1} to s_j.
            u = pts[j - 1] * e
            u[1:] -= e[:-1]
            e = u * (s[j] / s[j - 1])
        e = _divide_by_kernel_factor(e, lam.conjugate())
        columns.append(e)
    return np.column_stack(columns)


def _solved_shift(points):
    """T from coefficient m+1 of (1 - conj(lam_j) z) e_j =
    a_j (lam_{j-1} - z) e_{j-1}, a_j = s_j/s_{j-1}: the lower-triangular
    system (I - diag(a lam_prev) S) x_{m+1} = (diag(conj lam) - diag(a) S) x_m,
    S the down-shift of the element index."""
    lam = np.asarray(points, dtype=np.complex128)
    n = lam.size
    s = np.sqrt(1.0 - np.abs(lam) ** 2)
    a = np.zeros(n)
    a[1:] = s[1:] / s[:-1]
    lam_prev = np.concatenate(([0.0], lam[:-1]))
    S = np.eye(n, k=-1)
    lhs = np.eye(n) - np.diag(a * lam_prev) @ S
    rhs = np.diag(lam.conj()) - np.diag(a) @ S
    return np.linalg.solve(lhs, rhs)


def _loop_sum(basis, terms):
    """Independent sum: the element-by-element loop over (k, c) pairs, in
    their order, that the product E a replaced."""
    out = np.zeros(basis.trunc_len, dtype=np.complex128)
    for k, c in terms:
        out = out + basis.element(k).coeffs * complex(c)
    return TaylorSeries(out)


# Origin, one point at growing radius, repeated points, and moduli 0.5 mixed
# with 0.99 (the 0.5 kernel runs into subnormal floats at this truncation).
_ORACLE_PANEL = {
    "origin": (0.0, 0.0, 0.0),
    "one-point-0.5": (0.5,) * 4,
    "one-point-0.95": (0.95,) * 4,
    "one-point-0.99": (0.99,) * 3,
    "repeated": (0.3 + 0.2j, 0.3 + 0.2j, -0.4j, -0.4j, 0.7),
    "mixed-0.5-0.99": (0.5, 0.99j, 0.5, -0.99),
}

# The oracle panel plus one element, points at the origin between others,
# a small modulus before 0.99, and radius 0.999.
_RECURRENCE_PANEL = {
    **_ORACLE_PANEL,
    "n1": (0.6 - 0.2j,),
    "origin-between": (0.0, 0.5j, 0.0, -0.8, 0.0),
    "0.3-then-0.99": (0.3, 0.3j, 0.99, -0.99j),
    "mixed-0.999": (0.999, -0.4 + 0.3j, 0.999j),
}

# Radii up to 0.99 with multiplicities.
_TAIL_PANEL = {
    "origin-then-0.7": (0.0, 0.0, 0.7),
    "double-0.5": (0.5, 0.5, 0.2 - 0.1j),
    "triple-0.9": (0.9j, 0.9j, 0.9j, -0.3),
    "one-point-0.99": (0.99,) * 3,
    "mixed-0.5-0.99": (0.5, 0.99j, 0.5),
}


class TestPoleConfiguration:
    """Container invariants for the point multiset."""

    def test_rejects_boundary_points(self):
        """Points must lie strictly inside the disc."""
        with pytest.raises(ValueError):
            PoleConfiguration((1.0,))

    def test_rejects_nan_points(self):
        """A NaN coordinate is no point of the disc."""
        for points in ((float("nan"),), (0.3, complex(0.2, float("nan")))):
            with pytest.raises(ValueError, match="open disc"):
                PoleConfiguration(points)

    def test_rejects_empty(self):
        """At least one point is required."""
        with pytest.raises(ValueError):
            PoleConfiguration(())

    def test_one_point_repeats(self):
        """one_point builds n copies of the same value."""
        sig = PoleConfiguration.one_point(3, 0.5)
        assert sig.points == (0.5 + 0j,) * 3
        assert sig.n == 3 and sig.radius == 0.5

    def test_rotation_preserves_radius(self):
        """Rotating the configuration keeps all moduli."""
        sig = PoleConfiguration((0.3, 0.1 + 0.2j))
        rot = sig.rotated(1.1)
        np.testing.assert_allclose(rot.radius, sig.radius, rtol=1e-15)
        assert rot.n == sig.n

    def test_key_round_trips(self):
        """key() output parses back to the same points."""
        sig = PoleConfiguration((0.25 - 0.125j, -0.5 + 0j))
        (back,) = parse_sigma_spec(sig.key())
        np.testing.assert_allclose(back.points, sig.points, rtol=0, atol=0)


class TestBlaschkeEval:
    """Pointwise product values."""

    def test_vanishes_at_configuration_points(self):
        """B(lam_j) = 0 for every configuration point."""
        sig = PoleConfiguration((0.3, -0.2 + 0.4j, 0.1j))
        for p in sig.points:
            assert abs(blaschke_product_eval(sig, p)) < 1e-14

    def test_unimodular_on_circle(self):
        """|B| = 1 on the unit circle."""
        sig = PoleConfiguration((0.5, 0.2 - 0.3j))
        for t in np.linspace(0.0, 2.0 * np.pi, 17):
            z = complex(np.cos(t), np.sin(t))
            np.testing.assert_allclose(abs(blaschke_product_eval(sig, z)), 1.0, rtol=1e-12)

    def test_factor_is_involution(self):
        """b_lam(b_lam(z)) = z inside the disc."""
        lam, z = 0.4 + 0.1j, 0.2 - 0.6j
        np.testing.assert_allclose(
            blaschke_factor_eval(lam, blaschke_factor_eval(lam, z)), z, rtol=1e-14
        )

    def test_factor_rejects_outside_zero(self):
        """Factor zeros on or outside the circle are refused."""
        with pytest.raises(ValueError):
            blaschke_factor_eval(1.2, 0.0)
        with pytest.raises(ValueError, match="open disc"):
            blaschke_factor_eval(complex(float("nan"), 0.0), 0.0)


class TestMalmquistBasis:
    """Construction, certification and hand values of the orthonormal basis."""

    def test_origin_basis_is_signed_monomials(self):
        """At sigma = {0,...,0} the elements are (-z)^k up to stored padding."""
        sig = PoleConfiguration.one_point(3, 0.0)
        basis = malmquist_basis_auto(sig)
        for k in range(sig.n):
            e = basis.element(k)
            expect = np.zeros(e.trunc_len, dtype=complex)
            expect[k] = (-1.0) ** k
            np.testing.assert_allclose(e.coeffs, expect, atol=1e-15)

    def test_first_element_is_normalized_kernel(self):
        """e_1 has coefficients sqrt(1-|lam|^2) conj(lam)^k."""
        lam = 0.4 + 0.3j
        sig = PoleConfiguration((lam, 0.2))
        basis = malmquist_basis_auto(sig)
        e1 = basis.element(0)
        expect = np.sqrt(1.0 - abs(lam) ** 2) * np.conj(lam) ** np.arange(e1.trunc_len)
        np.testing.assert_allclose(e1.coeffs, expect, rtol=1e-13)

    def test_second_element_matches_pointwise_formula(self):
        """e_2 = b_{lam_1} times normalized kernel at lam_2, checked by evaluation."""
        a, b = 0.3 - 0.1j, -0.25 + 0.2j
        basis = malmquist_basis_auto(PoleConfiguration((a, b)))
        for z in (0.0, 0.4, -0.3j):
            direct = blaschke_factor_eval(a, z) * np.sqrt(1.0 - abs(b) ** 2) / (
                1.0 - np.conj(b) * z
            )
            np.testing.assert_allclose(evaluate(basis.element(1), z), direct, atol=1e-12)

    def test_gram_is_identity(self):
        """Random configurations certify orthonormality at the tolerance."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            sig = _random_config(rng, int(rng.integers(1, 9)), 0.8)
            basis = malmquist_basis_auto(sig)
            mat = basis.matrix
            gram = mat.conj().T @ mat
            np.testing.assert_allclose(gram, np.eye(sig.n), atol=1e-10)
            assert basis.ortho_defect <= 1e-10

    def test_short_truncation_refused(self):
        """A window shorter than the dimension cannot certify."""
        with pytest.raises(CertificationError):
            malmquist_basis(PoleConfiguration.one_point(4, 0.0), 3)

    def test_uncertifiable_truncation_raises(self):
        """A too-short window at positive radius fails the Gram certificate."""
        with pytest.raises(CertificationError):
            malmquist_basis(PoleConfiguration.one_point(6, 0.7), 8)

    def test_explicit_truncation_respected(self):
        """A fixed truncation N stores N + 1 coefficients."""
        basis = malmquist_basis(PoleConfiguration((0.5,)), 96)
        assert basis.trunc_len == 97

    @pytest.mark.parametrize("points", _ORACLE_PANEL.values(), ids=_ORACLE_PANEL.keys())
    def test_recurrence_matches_convolution_build(self, points):
        """The recurrence build agrees with full Cauchy products to 1e-13."""
        sig = PoleConfiguration(points)
        basis = malmquist_basis_auto(sig)
        N = basis.trunc_len - 1
        oracle = _convolution_basis_matrix(sig, N)
        assert oracle.shape[0] == basis.trunc_len
        np.testing.assert_allclose(basis.matrix, oracle, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "points", _RECURRENCE_PANEL.values(), ids=_RECURRENCE_PANEL.keys()
    )
    def test_row_doubling_matches_division_recurrence(self, points):
        """E agrees with the element-by-element division recurrence to 1e-13."""
        sig = PoleConfiguration(points)
        basis = malmquist_basis_auto(sig)
        oracle = _recurrence_basis_matrix(sig, basis.trunc_len - 1)
        np.testing.assert_allclose(basis.matrix, oracle, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "points", _RECURRENCE_PANEL.values(), ids=_RECURRENCE_PANEL.keys()
    )
    def test_compressed_shift_is_a_contraction(self, points):
        """The closed-form T solves the recurrence's triangular system and has
        spectral norm at most one."""
        _, T = blaschke._compressed_shift(points)
        np.testing.assert_allclose(T, _solved_shift(points), rtol=0, atol=1e-14)
        assert np.linalg.norm(T, 2) <= 1.0 + 1e-14

    def test_first_row_is_value_at_origin(self):
        """E[0, j] = e_{j+1}(0), evaluated from the Blaschke factors."""
        sig = PoleConfiguration((0.5 - 0.2j, 0.0, 0.9j, 0.5 - 0.2j, -0.3))
        basis = malmquist_basis_auto(sig)
        for j, lam in enumerate(sig.points):
            prefix = np.prod([blaschke_factor_eval(p, 0.0) for p in sig.points[:j]])
            value = prefix * np.sqrt(1.0 - abs(lam) ** 2)
            np.testing.assert_allclose(basis.matrix[0, j], value, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("points", _TAIL_PANEL.values(), ids=_TAIL_PANEL.keys())
    def test_rows_follow_compressed_shift(self, points):
        """E[m+1] = T E[m] for every stored row of a built basis."""
        basis = malmquist_basis_auto(PoleConfiguration(points))
        _, T = blaschke._compressed_shift(points)
        E = basis.matrix
        np.testing.assert_allclose(E[1:], E[:-1] @ T.T, rtol=0, atol=1e-14)

    def test_matches_high_precision_build(self):
        """The float64 E agrees to 1e-13 with the recurrence run sequentially
        in 40-digit arithmetic, at radius 0.99."""
        mpmath = pytest.importorskip("mpmath")
        sig = PoleConfiguration((0.5 + 0.3j, -0.99, 0.0, 0.7j))
        basis = malmquist_basis_auto(sig)
        L = basis.trunc_len
        with mpmath.workdps(40):
            pts = [mpmath.mpc(p.real, p.imag) for p in sig.points]
            s = [mpmath.sqrt(1 - abs(lam) ** 2) for lam in pts]
            e = [s[0]] + [mpmath.mpc(0)] * (L - 1)
            worst = mpmath.mpf(0)
            for j, lam in enumerate(pts):
                if j > 0:
                    scale = s[j] / s[j - 1]
                    e = [scale * (pts[j - 1] * e[0])] + [
                        scale * (pts[j - 1] * e[m] - e[m - 1]) for m in range(1, L)
                    ]
                beta = mpmath.conj(lam)
                for m in range(1, L):
                    e[m] += beta * e[m - 1]
                column = basis.matrix[:, j].tolist()
                worst = max(worst, max(abs(c - x) for c, x in zip(column, e)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("points", _TAIL_PANEL.values(), ids=_TAIL_PANEL.keys())
    def test_tail_bound_dominates_doubled_truncation(self, points):
        """Each e_j has unit norm, so the certificate bounds the l2 mass of
        every dropped tail by sqrt(ortho_defect), up to rounding; that bound
        covers coefficients N+1..2N of every element."""
        sig = PoleConfiguration(points)
        basis = malmquist_basis_auto(sig)
        N = basis.trunc_len - 1
        doubled = malmquist_basis(sig, 2 * N)
        for long in doubled.matrix.T:
            gap = float(np.linalg.norm(long[N + 1 :]))
            assert gap**2 <= basis.ortho_defect + 1e-13

    def test_no_part_below_the_power_floor(self):
        """At r = 0.99 the rows decay past 1e-154: every real and imaginary
        part kept is zero or at least sqrt(tiny), so no product of two of
        them, in the certificate or a weighted Gram, is subnormal."""
        floor = np.sqrt(np.finfo(np.float64).tiny)
        (sig,) = parse_sigma_spec("random:n=40,r=0.99,count=1,seed=0")
        parts = np.abs(malmquist_basis_auto(sig).matrix.view(np.float64))
        assert np.count_nonzero(parts == 0.0) > 0
        assert not np.any((parts > 0.0) & (parts < floor))


class TestBasisMatrix:
    """The stored matrix E and the sums served from it."""

    def test_matrix_is_read_only(self):
        """E cannot be written through the basis."""
        basis = malmquist_basis_auto(PoleConfiguration((0.5, 0.2j)))
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 1.0

    def test_element_is_column(self):
        """element(k) is column k of E."""
        basis = malmquist_basis_auto(PoleConfiguration((0.9j, 0.9j, -0.3)))
        for k in range(3):
            np.testing.assert_array_equal(basis.element(k).coeffs, basis.matrix[:, k])

    @pytest.mark.parametrize("points", _TAIL_PANEL.values(), ids=_TAIL_PANEL.keys())
    def test_combine_matches_loop_sum(self, points):
        """combine(a) = E a agrees with the add/scale loop."""
        rng = np.random.default_rng(61)
        basis = malmquist_basis_auto(PoleConfiguration(points))
        a = rng.normal(size=basis.sigma.n) + 1j * rng.normal(size=basis.sigma.n)
        got, want = basis.combine(a), _loop_sum(basis, enumerate(a))
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-13)

    def test_combine_needs_one_coefficient_per_element(self):
        """A coefficient vector of the wrong length is refused."""
        basis = malmquist_basis_auto(PoleConfiguration((0.5, 0.2j)))
        with pytest.raises(ValueError):
            basis.combine(np.ones(3))

    @pytest.mark.parametrize("n, lam", ((3, 0.4), (10, -0.5), (7, 0.3 + 0.2j), (4, 0.99)))
    def test_theoremB_function_matches_loop_sum(self, n, lam):
        """The sum of all one-point elements equals the loop that built it."""
        basis = malmquist_basis_auto(PoleConfiguration.one_point(n, lam))
        got = theoremB_test_function(n, lam)
        want = _loop_sum(basis, [(k, 1.0) for k in range(n)])
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, r, s", ((3, 0.5, 0), (9, 0.3, 2), (30, 0.9, 4), (12, 0.99, 2)))
    def test_step2_function_matches_loop_sum(self, n, r, s):
        """The alternating tail sum equals the loop from e_n downwards."""
        basis = malmquist_basis_auto(PoleConfiguration.one_point(n, r))
        got = step2_test_function(n, r, s)
        want = _loop_sum(basis, [(n - 1 - k, (-1.0) ** k) for k in range(s + 3)])
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-13)


class TestAllocationRefusal:
    """A truncation whose coefficient matrix cannot exist is a certification
    failure, refused without a retry."""

    # policy_truncation(2, r) is about 6.9e17 here: 2.2e19 bytes of matrix.
    SIGMA = PoleConfiguration.one_point(2, 0.9999999999999999)

    def test_too_big_matrix_raises_certification_error(self):
        """numpy's "array is too big" becomes a CertificationError naming N."""
        N = 691327357826976320
        with pytest.raises(CertificationError, match=f"truncation {N}"):
            malmquist_basis(self.SIGMA, N)

    def test_auto_build_does_not_double_a_refused_allocation(self, monkeypatch):
        """The doubling loop gives up after the first allocation refusal."""
        attempts = []
        build = blaschke.malmquist_basis

        def counted(sigma, N):
            attempts.append(N)
            return build(sigma, N)

        monkeypatch.setattr(blaschke, "malmquist_basis", counted)
        with pytest.raises(CertificationError, match="cannot be allocated"):
            malmquist_basis_auto(self.SIGMA)
        assert len(attempts) == 1


class TestModelProjection:
    """Orthogonal projection onto the model space."""

    def test_reproduces_basis_elements(self):
        """P e_k = e_k on the stored window."""
        rng = np.random.default_rng(7)
        sig = _random_config(rng, 4, 0.6)
        basis = malmquist_basis_auto(sig)
        for k in range(sig.n):
            e = basis.element(k)
            proj = model_projection(e, basis)
            np.testing.assert_allclose(proj.coeffs, e.coeffs, atol=1e-10)

    def test_idempotent_and_contractive(self):
        """P^2 f = P f and the Hardy norm never grows."""
        rng = np.random.default_rng(19)
        sig = _random_config(rng, 5, 0.7)
        basis = malmquist_basis_auto(sig)
        f = polynomial(rng.normal(size=30) + 1j * rng.normal(size=30))
        pf = model_projection(f, basis)
        ppf = model_projection(pf, basis)
        np.testing.assert_allclose(ppf.coeffs, pf.coeffs, atol=1e-11)
        assert norm(pf, NormKind.HARDY) <= norm(f, NormKind.HARDY) + 1e-12

    def test_annihilates_multiples_of_the_product(self):
        """f = B g lies in the orthogonal complement, so P f vanishes."""
        rng = np.random.default_rng(3)
        sig = _random_config(rng, 3, 0.5)
        basis = malmquist_basis_auto(sig)
        N = basis.trunc_len - 1
        B = np.ones(1, dtype=np.complex128)
        for p in sig.points:
            B = np.convolve(B, _factor_coeffs(p, N))[: N + 1]
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = polynomial(np.convolve(B, g)[: N + 1])
        proj = model_projection(f, basis)
        assert norm(proj, NormKind.HARDY) <= 1e-8 * max(1.0, norm(f, NormKind.HARDY))

    def test_pythagoras(self):
        """Hardy mass splits between the projection and the residual."""
        rng = np.random.default_rng(23)
        sig = _random_config(rng, 4, 0.6)
        basis = malmquist_basis_auto(sig)
        f = polynomial(rng.normal(size=basis.trunc_len))
        pf = model_projection(f, basis)
        res = np.zeros(basis.trunc_len, dtype=complex)
        res[: f.trunc_len] = f.coeffs
        res -= pf.coeffs
        lhs = norm_sq(f, NormKind.HARDY)
        rhs = norm_sq(pf, NormKind.HARDY) + float(np.vdot(res, res).real)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestParseSigmaSpec:
    """Text grammar for configurations."""

    def test_explicit_points(self):
        """Semicolon-separated re,im pairs give a single configuration."""
        (sig,) = parse_sigma_spec("0.3,0;-0.2,0.1")
        assert sig.points == (0.3 + 0j, -0.2 + 0.1j)

    def test_one_point_form(self):
        """one-point:n=,r= repeats a real point."""
        (sig,) = parse_sigma_spec("one-point:n=4,r=0.5")
        assert sig.points == (0.5 + 0j,) * 4

    def test_random_form_is_seed_deterministic(self):
        """random:... with a fixed seed reproduces the same configurations."""
        a = parse_sigma_spec("random:n=3,r=0.6,count=5,seed=11")
        b = parse_sigma_spec("random:n=3,r=0.6,count=5,seed=11")
        assert len(a) == 5
        for x, y in zip(a, b):
            assert x.points == y.points
            assert x.radius <= 0.6

    def test_random_default_seed_argument(self):
        """Omitting the spec's seed= argument draws as seed=0."""
        a = parse_sigma_spec("random:n=2,r=0.4,count=3")
        b = parse_sigma_spec("random:n=2,r=0.4,count=3,seed=0")
        for x, y in zip(a, b):
            assert x.points == y.points

    def test_malformed_specs_raise(self):
        """Bad grammar is a ValueError, not a silent guess."""
        for bad in ("", "0.3", "one-point:n=2", "random:n=2,r=0.5", "0.3,0;;0.1,0", "a,b"):
            with pytest.raises(ValueError):
                parse_sigma_spec(bad)

    def test_radius_bounds_enforced(self):
        """Radii at or beyond one are refused in the shorthand forms."""
        with pytest.raises(ValueError):
            parse_sigma_spec("one-point:n=2,r=1.0")


class TestMultiplicityGroups:
    """Grouping of repeated points."""

    def test_groups_preserve_order_and_count(self):
        """Repeated entries accumulate in first-occurrence order."""
        sig = PoleConfiguration((0.5, 0.2j, 0.5, 0.5))
        assert multiplicity_groups(sig) == [(0.5 + 0j, 3), (0.2j, 1)]

    def test_near_collision_rejected(self):
        """Distinct points closer than the resolution limit are an error."""
        sig = PoleConfiguration((0.5, 0.5 + 1e-9))
        with pytest.raises(CertificationError):
            multiplicity_groups(sig)
