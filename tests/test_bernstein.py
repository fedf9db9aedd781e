"""Tests for derivative constants on model spaces and their envelopes."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mslab import bernstein, blaschke, hermitian, interpolation
from mslab.bernstein import (
    BoundEnvelope,
    asymptotic_ratio_sweep,
    default_alternation_depth,
    en_prime_bergman_audit,
    eq4_envelope,
    step2_expansion_check,
    step2_test_function,
    z2_upper_hardy,
)
from mslab.blaschke import PoleConfiguration, malmquist_basis
from mslab.hermitian import gram_matrix
from mslab.interpolation import ModelSpace, constant_from_basis
from mslab.series import NormKind, differentiate, norm, norm_sq


def _random_config(rng, n, max_r):
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PoleConfiguration(tuple(rad * np.exp(1j * ang)))


def _differentiated_gram_constant(basis, target):
    """Independent route: differentiate every element, then take the top
    eigenvalue of the target-weighted Gram of the derivatives."""
    D = np.column_stack(
        [differentiate(basis.element(k)).coeffs for k in range(basis.sigma.n)]
    )
    w = target.weights(D.shape[0])
    G = D.conj().T @ (w[:, None] * D)
    return math.sqrt(max(float(np.linalg.eigvalsh((G + G.conj().T) / 2.0)[-1]), 0.0))


# Origin, one point at moderate and extreme radius, a larger space, and
# repeated points.
_ORACLE_PANEL = {
    "origin": (0.0,) * 5,
    "one-point-0.5": (0.5,) * 6,
    "one-point-0.99": (0.99,) * 4,
    "n40-0.6": (0.6,) * 40,
    "repeated": (0.3 + 0.2j, 0.3 + 0.2j, -0.5j, -0.5j, -0.5j, 0.7),
}


class TestHandValues:
    """Constants worked out by hand for small configurations."""

    def test_two_zeros_bergman(self):
        """sigma = {0, 0}: the only derivative is constant, so the norm is 1."""
        res = ModelSpace(PoleConfiguration.one_point(2, 0.0)).bernstein(NormKind.BERGMAN)
        np.testing.assert_allclose(res.constant, 1.0, atol=1e-12)

    def test_three_zeros_bergman(self):
        """sigma = {0, 0, 0}: top eigenvalue of diag(1, 2) gives sqrt(2)."""
        res = ModelSpace(PoleConfiguration.one_point(3, 0.0)).bernstein(NormKind.BERGMAN)
        np.testing.assert_allclose(res.constant, math.sqrt(2.0), rtol=1e-12)

    def test_double_half_bergman(self):
        """sigma = {1/2, 1/2}: 2x2 Gram eigenvalue gives sqrt((7 + sqrt(41))/6)."""
        res = ModelSpace(PoleConfiguration.one_point(2, 0.5)).bernstein(NormKind.BERGMAN)
        np.testing.assert_allclose(
            res.constant, math.sqrt((7.0 + math.sqrt(41.0)) / 6.0), rtol=1e-10
        )

    def test_origin_laws_both_targets(self):
        """At r = 0 the constants are sqrt(n-1) (Bergman) and n-1 (Hardy)."""
        for n in (2, 3, 5, 9, 14):
            space = ModelSpace(PoleConfiguration.one_point(n, 0.0))
            np.testing.assert_allclose(
                space.bernstein(NormKind.BERGMAN).constant,
                math.sqrt(n - 1.0),
                rtol=1e-11,
            )
            np.testing.assert_allclose(
                space.bernstein(NormKind.HARDY).constant,
                float(n - 1),
                rtol=1e-11,
            )

    def test_single_kernel_has_explicit_constant(self):
        """n = 1: the lone normalized kernel gives a directly summable norm."""
        lam = 0.5
        res = ModelSpace(PoleConfiguration((lam,))).bernstein(NormKind.BERGMAN)
        e = malmquist_basis(PoleConfiguration((lam,))).element(0)
        np.testing.assert_allclose(
            res.constant, norm(differentiate(e), NormKind.BERGMAN), rtol=1e-12
        )


class TestConstantProperties:
    """Structural invariances of the computed constant."""

    @pytest.mark.parametrize(
        "target", (NormKind.BERGMAN, NormKind.HARDY), ids=("bergman", "hardy")
    )
    @pytest.mark.parametrize("points", _ORACLE_PANEL.values(), ids=_ORACLE_PANEL.keys())
    def test_weighted_gram_matches_differentiated_route(self, points, target):
        """The top eigenvalue of E^* diag(w) E equals the constant obtained by
        differentiating the basis first."""
        basis = malmquist_basis(PoleConfiguration(points))
        np.testing.assert_allclose(
            constant_from_basis(basis, target).constant,
            _differentiated_gram_constant(basis, target),
            rtol=1e-12,
        )

    def test_dirichlet_target_rejected(self):
        """Only Bergman and Hardy targets make sense here."""
        with pytest.raises(ValueError):
            ModelSpace(PoleConfiguration((0.3,))).bernstein(NormKind.DIRICHLET)

    def test_rotation_invariance(self):
        """Rotating the configuration leaves the constant unchanged."""
        rng = np.random.default_rng(14)
        sig = _random_config(rng, 4, 0.6)
        base = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
        for theta in (0.7, 2.1):
            rot = ModelSpace(sig.rotated(theta)).bernstein(NormKind.BERGMAN).constant
            np.testing.assert_allclose(rot, base, rtol=1e-9)

    def test_extremal_witness_attains_constant(self):
        """The reported eigenvector assembles a unit function achieving the norm."""
        rng = np.random.default_rng(20)
        sig = _random_config(rng, 5, 0.5)
        basis = malmquist_basis(sig)
        res = constant_from_basis(basis, NormKind.BERGMAN)
        f = basis.combine(res.extremal)
        np.testing.assert_allclose(norm(f, NormKind.HARDY), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            norm(differentiate(f), NormKind.BERGMAN), res.constant, rtol=1e-9
        )

    def test_one_point_nesting(self):
        """Adding a point at the same spot never shrinks the constant."""
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            prev = 0.0
            for n in range(1, 7):
                sig = PoleConfiguration.one_point(n, 0.4)
                c = ModelSpace(sig).bernstein(target).constant
                assert c >= prev - 1e-12
                prev = c

    def test_rayleigh_lower_bound_from_member(self):
        """Any unit member bounds the constant from below; take the last element."""
        for n, r in ((2, 0.5), (5, 0.3), (8, 0.6)):
            audit = en_prime_bergman_audit(n, r)
            sig = PoleConfiguration.one_point(n, r)
            c = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
            assert c**2 >= audit.numeric_sq - 1e-9


_BANDED_N = (1, 2, 3, 5, 8, 12, 20, 40)
_BANDED_R = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
_TARGETS = pytest.mark.parametrize(
    "target", (NormKind.BERGMAN, NormKind.HARDY), ids=("bergman", "hardy")
)
_KINDS = pytest.mark.parametrize(
    "kind", (NormKind.BERGMAN, NormKind.HARDY, NormKind.DIRICHLET),
    ids=("bergman", "hardy", "dirichlet"),
)


class TestOnePointBandedRoute:
    """The n x n banded operator of a one-point space against the basis
    matrix E, which stays the oracle for this family."""

    @_TARGETS
    @pytest.mark.parametrize("n", _BANDED_N)
    def test_matches_basis_matrix(self, n, target):
        """Banded and E routes agree to 1e-12 relative over the radius panel."""
        for r in _BANDED_R:
            sig = PoleConfiguration.one_point(n, r)
            banded = ModelSpace(sig).bernstein(target)
            assert banded.trunc_len == n
            oracle = constant_from_basis(malmquist_basis(sig), target)
            np.testing.assert_allclose(
                banded.constant, oracle.constant, rtol=1e-12, atol=1e-14
            )

    @_TARGETS
    def test_complex_centre_extremal_attains_constant(self, target):
        """For lam = |lam| e^{i theta} the rotated banded eigenvector, combined
        over the Malmquist basis of lam, is a unit function attaining C."""
        space = ModelSpace(PoleConfiguration.one_point(6, 0.6 * np.exp(1.1j)))
        basis = space.basis
        res = space.bernstein(target)
        f = basis.combine(res.extremal)
        np.testing.assert_allclose(norm(f, NormKind.HARDY), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            norm(differentiate(f), target), res.constant, rtol=1e-9
        )
        np.testing.assert_allclose(
            res.constant, constant_from_basis(basis, target).constant, rtol=1e-12
        )


def _dense_one_point_gram(n, r, target):
    """The banded Gram as the one-point route first built it: the dense map D
    of the ``bernstein`` module docstring and its weights, through
    ``gram_matrix``."""
    q = (1.0 - r) * (1.0 + r)
    k = np.arange(n)
    if target is NormKind.BERGMAN:
        D = np.zeros((n, n))
        D[k, k] = -r
        D[k[:-1], k[1:]] = 1.0
        w = (k + 1.0) / q
    else:
        D = np.zeros((n + 1, n))
        D[k[1:] - 1, k[1:]] = k[1:]
        D[k, k] = -r * (2.0 * k + 1.0)
        D[k + 1, k] = r * r * (k + 1.0)
        w = np.full(n + 1, 1.0 / (q * q))
    return gram_matrix(D, w)


_BAND_N = (1, 2, 3, 6, 30, 100)
_BAND_R = (0.0, 0.3, 0.97, 0.999)


def _per_term_hardy_bands(n, r, kind=NormKind.HARDY):
    """The C_H^2 bands of the ``bernstein`` module docstring term by term,
    each over q^2, as they read before their polynomials in j were
    collected."""
    assert kind is NormKind.HARDY
    q = (1.0 - r) * (1.0 + r)
    j = np.arange(n, dtype=np.float64)
    main = j * j + r * r * (2.0 * j + 1.0) ** 2 + (r * r * (j + 1.0)) ** 2
    j = j[:-1]
    off1 = -r * (j + 1.0) * (2.0 * j + 1.0) - r**3 * (j + 1.0) * (2.0 * j + 3.0)
    j = j[:-1]
    off2 = r * r * (j + 1.0) * (j + 2.0)
    return main / (q * q), off1 / (q * q), off2 / (q * q)


_HARDY_BAND_R = (0.0, 1e-8, 0.5, 0.999, 1.0 - 2.0**-30)


class TestOnePointBands:
    """The closed-form bands against the dense construction they replace."""

    @_TARGETS
    @pytest.mark.parametrize("n", _BAND_N)
    def test_bands_match_dense_construction(self, n, target):
        """Every entry agrees to 1e-15 relative, zeros included, and so does
        the constant for a real and a complex centre; the complex centre's
        extremal vector is the real one's rotated by e^{-i k theta}."""
        for r in _BAND_R:
            dense = _dense_one_point_gram(n, r, target)
            bands = hermitian._from_bands(*bernstein._one_point_bands(n, r, target))
            assert bands.shape == dense.shape and bands.dtype == np.float64
            np.testing.assert_allclose(bands, dense, rtol=1e-15, atol=0.0)
            want = math.sqrt(max(np.linalg.eigvalsh(dense)[-1], 0.0))
            real = ModelSpace(PoleConfiguration.one_point(n, r)).bernstein(target)
            for theta in (0.0, 1.1):
                sig = PoleConfiguration.one_point(n, r * np.exp(1j * theta))
                res = ModelSpace(sig).bernstein(target)
                np.testing.assert_allclose(res.constant, want, rtol=1e-15, atol=0.0)
                lam = sig.points[0]  # theta is lost at r = 0
                phase = math.atan2(lam.imag, lam.real)
                rotated = real.extremal * np.exp(-1j * phase * np.arange(n))
                np.testing.assert_array_equal(res.extremal, rotated)

    @pytest.mark.parametrize("n", (1, 2, 3, 64, 1000))
    def test_hardy_bands_match_per_term_expression(self, n):
        """The Hardy bands, written as polynomials in j, agree with the
        per-term expression to 1e-15 relative, zeros included, up to
        r = 1 - 2^-30, where 1/q^2 is about 2^58; off1 <= 0 <= off2, the
        signs the Perron iteration checks."""
        for r in _HARDY_BAND_R:
            got = bernstein._one_point_bands(n, r, NormKind.HARDY)
            want = _per_term_hardy_bands(n, r)
            assert [band.shape for band in got] == [(n,), (max(n - 1, 0),), (max(n - 2, 0),)]
            for band, exact in zip(got, want):
                assert band.dtype == np.float64
                np.testing.assert_allclose(band, exact, rtol=1e-15, atol=0.0, err_msg=str(r))
            assert np.all(got[1] <= 0.0) and np.all(got[2] >= 0.0)

    @pytest.mark.parametrize("n", (12, 63, 64, 100))
    def test_hardy_constant_matches_per_term_bands(self, monkeypatch, n):
        """C_H on the collected bands is within 2e-15 relative of C_H on
        the per-term bands, on both sides of ``PERRON_MIN_N``."""
        kind = NormKind.HARDY
        for r in _HARDY_BAND_R:
            got = bernstein._one_point_constant(n, complex(r), kind).constant
            with monkeypatch.context() as patch:
                patch.setattr(bernstein, "_one_point_bands", _per_term_hardy_bands)
                want = bernstein._one_point_constant(n, complex(r), kind).constant
            assert abs(got - want) <= 2e-15 * want, (r, got, want)

    @_KINDS
    def test_extremal_rotated_only_off_theta_zero(self, kind):
        """At lam = r the extremal is the real float64 eigenvector of the
        bands, unrotated; at lam = -r, r e^{1.1i} and -0.0, whose angle
        atan2(Im lam, Re lam) is not 0, it is that vector turned by
        e^{-i k theta}.  The constant is the same at every angle, and
        ``_one_point_constant`` gives ModelSpace's result bit for bit."""

        def read(lam):
            space = ModelSpace(PoleConfiguration.one_point(n, lam))
            return space.interp() if kind is NormKind.DIRICHLET else space.bernstein(kind)

        for n in (1, 2, 7):
            for r in (0.0, 0.3, 0.9):
                vector = hermitian.max_eigenpair(
                    hermitian._from_bands(*bernstein._one_point_bands(n, r, kind))
                ).vector
                real = read(r)
                assert real.extremal.dtype == np.float64
                assert np.array_equal(real.extremal, vector)
                # r e^{1.1i} is 0j at r = 0, where theta is lost.
                for lam in (-r, r * np.exp(1.1j)) if r > 0.0 else (-0.0,):
                    res = read(lam)
                    theta = math.atan2(complex(lam).imag, complex(lam).real)
                    assert theta != 0.0 and res.extremal.dtype == np.complex128
                    rotated = vector * np.exp(-1j * theta * np.arange(n))
                    assert np.array_equal(res.extremal, rotated)
                    assert res.constant == real.constant
                for lam in (r, -r, r * np.exp(1.1j), -0.0):
                    direct = bernstein._one_point_constant(n, complex(lam), kind)
                    res = read(lam)
                    assert (direct.constant, direct.trunc_len, direct.residual) == (
                        res.constant, res.trunc_len, res.residual
                    )
                    assert direct.extremal.dtype == res.extremal.dtype
                    assert np.array_equal(direct.extremal, res.extremal)

    def test_one_point_route_calls_no_gram_builder(self, monkeypatch):
        """Both one-point constants and I come from their bands alone."""

        def refuse(*args, **kwargs):
            raise AssertionError("gram_matrix called on the one-point route")

        for module in (hermitian, interpolation):
            monkeypatch.setattr(module, "gram_matrix", refuse)
        for sig in (PoleConfiguration.one_point(7, 0.6), PoleConfiguration.one_point(3, 0.4j)):
            space = ModelSpace(sig)
            for target in (NormKind.BERGMAN, NormKind.HARDY):
                assert space.bernstein(target).trunc_len == sig.n
            assert space.interp().trunc_len == sig.n

    def test_bernstein_imports_nothing_from_interpolation(self):
        """The one-point route lives in ``bernstein``, which ``interpolation``
        imports, so ``bernstein`` imports nothing back from it."""
        tree = ast.parse(Path(bernstein.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = "mslab" + ("." + base if base else "")
                imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
        assert "mslab.series" in imported
        assert not [name for name in imported if name.startswith("mslab.interpolation")]

    @_TARGETS
    def test_sweep_solves_once_per_n_and_builds_no_basis(self, monkeypatch, target):
        """``asymptotic_ratio_sweep`` reads the bands directly: one top
        eigenpair of an n x n Gram per n, and no Malmquist basis."""
        shapes = []
        solve = bernstein.max_eigenpair

        def counted(matrix):
            shapes.append(matrix.shape)
            return solve(matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("malmquist_basis called by the sweep")

        monkeypatch.setattr(bernstein, "max_eigenpair", counted)
        for module in (blaschke, bernstein, interpolation):
            monkeypatch.setattr(module, "malmquist_basis", refuse)
        rows = asymptotic_ratio_sweep(0.9, [3, 10, 40], target)
        assert shapes == [(3, 3), (10, 10), (40, 40)]
        assert [row.n for row in rows] == [3, 10, 40]

    def test_one_model_space_reads_each_kind_once(self, monkeypatch):
        """One ModelSpace serving ``bernstein --target both`` and then
        ``interp`` reaches the band reader once for C_B, C_H and I."""
        kinds = []
        read = interpolation._one_point_constant

        def counted(n, lam, kind):
            kinds.append(kind)
            return read(n, lam, kind)

        monkeypatch.setattr(interpolation, "_one_point_constant", counted)
        space = ModelSpace(PoleConfiguration.one_point(6, 0.5 + 0.2j))
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            space.bernstein(target)
        space.interp()
        space.bernstein(NormKind.BERGMAN)  # the interp-upper row's residual
        assert kinds == [NormKind.BERGMAN, NormKind.HARDY, NormKind.DIRICHLET]


_PERRON_N = (64, 100, 200, 400)
_PERRON_R = (0.0, 1e-300, 1e-8, 0.3, 0.9, 0.99, 0.999)


def _dense_pair(n, r, kind):
    return hermitian.max_eigenpair(hermitian._from_bands(*bernstein._one_point_bands(n, r, kind)))


class TestPerronBandedSolve:
    """From n = PERRON_MIN_N on, the one-point route solves its bands by the
    Perron iteration of ``hermitian._max_band_eigenpair`` instead of a dense
    eigh."""

    @staticmethod
    def _count_solves(monkeypatch):
        solves = []
        for name in ("_shifted_solve3", "_shifted_solve5"):
            solve = getattr(hermitian, name)

            def counted(*args, solve=solve):
                solves[-1] += 1
                return solve(*args)

            monkeypatch.setattr(hermitian, name, counted)
        return solves

    @_KINDS
    @pytest.mark.parametrize("n", _PERRON_N)
    def test_matches_dense_eigh(self, monkeypatch, n, kind):
        """The constant within 1e-15 relative of the dense route and the
        extremal within 1e-12, from r = 0 (a diagonal Gram, answered
        exactly) and 1e-300 (diagonal to working precision) up to r = 0.999,
        in at most 12 shifted solves; the residual is certified and the
        Collatz-Wielandt bound sits within the window of the value."""
        solves = self._count_solves(monkeypatch)
        for r in _PERRON_R:
            solves.append(0)
            res = bernstein._one_point_constant(n, complex(r), kind)
            dense = _dense_pair(n, r, kind)
            want = math.sqrt(dense.value)
            assert abs(res.constant - want) <= 1e-15 * want, (r, res.constant, want)
            assert res.extremal.dtype == np.float64 and res.trunc_len == n
            np.testing.assert_allclose(res.extremal, dense.vector, rtol=0.0, atol=1e-12)
            assert 0.0 <= res.residual <= 1e-10 * (1.0 + dense.value)
            assert solves[-1] <= 12, (r, solves[-1])
        assert solves[0] == 0  # r = 0 takes no solve
        if kind is NormKind.BERGMAN:
            assert bernstein._one_point_constant(n, 0.0, kind).constant == math.sqrt(n - 1)

    @_KINDS
    def test_complex_centre_turns_the_extremal(self, kind):
        """At r e^{i theta} the value is the real centre's and coordinate k
        of the extremal is the real one turned by e^{-i k theta}."""
        n, r = 100, 0.9
        real = bernstein._one_point_constant(n, complex(r), kind)
        for lam in (-r, r * np.exp(1.1j), r * np.exp(-2.5j)):
            res = bernstein._one_point_constant(n, complex(lam), kind)
            theta = math.atan2(complex(lam).imag, complex(lam).real)
            assert res.constant == real.constant and res.extremal.dtype == np.complex128
            assert np.array_equal(res.extremal, real.extremal * np.exp(-1j * theta * np.arange(n)))

    @_KINDS
    def test_continuous_across_the_pick(self, monkeypatch, kind):
        """n = 63 (dense, no shifted solve) and n = 64 (Perron) each agree
        with the dense route to 1e-15, and the constant keeps growing across
        the switch by the step of its neighbours."""
        solves = self._count_solves(monkeypatch)
        for r in (0.3, 0.9, 0.999):
            values = {}
            for n in (62, 63, 64, 65):
                solves.append(0)
                values[n] = bernstein._one_point_constant(n, complex(r), kind).constant
                assert (solves[-1] > 0) is (n >= 64)
                want = math.sqrt(_dense_pair(n, r, kind).value)
                assert abs(values[n] - want) <= 1e-15 * want, (n, r)
            steps = [values[n + 1] - values[n] for n in (62, 63, 64)]
            assert min(steps) > 0.0
            assert abs(steps[1] - (steps[0] + steps[2]) / 2.0) <= 0.01 * steps[1], (r, steps)

    def test_long_band_matches_sqrt_n_law(self):
        """n = 10^4 at r = 0.99, where the dense Gram would take 800 MB:
        C_B / sqrt(n) = 14.08470, and C_H and I are certified."""
        n, r = 10**4, 0.99
        bergman, hardy, interp = (
            bernstein._one_point_constant(n, r, kind)
            for kind in (NormKind.BERGMAN, NormKind.HARDY, NormKind.DIRICHLET)
        )
        assert round(bergman.constant / math.sqrt(n), 5) == 14.08470
        for res in (bergman, hardy, interp):
            assert 0.0 <= res.residual <= 1e-10 * (1.0 + res.constant**2)
        assert interp.constant < math.hypot(bergman.constant, 1.0)

    def test_non_finite_band_exits_three(self, capsys, monkeypatch):
        """A non-finite band is a certification failure, exit 3 through
        ``main`` with one line on stderr."""
        from mslab.cli import main

        bands = bernstein._one_point_bands

        def overflowed(n, r, kind):
            main_band, *rest = bands(n, r, kind)
            main_band[n // 2] = np.inf
            return (main_band, *rest)

        monkeypatch.setattr(bernstein, "_one_point_bands", overflowed)
        assert main(["bernstein", "--sigma", "one-point:n=100,r=0.9"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "numerical certification failure: band matrix has non-finite entries (overflow)"
        )

    def test_unsettled_iteration_exits_three(self, capsys, monkeypatch):
        """An iteration that has not settled when its solves run out is a
        certification failure, exit 3 through ``main``."""
        from mslab.cli import main

        monkeypatch.setattr(hermitian, "_PERRON_SOLVES", 1)
        assert main(["interp", "--sigma", "one-point:n=100,r=0.9"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "numerical certification failure: Perron iteration did not settle in 1 solves"


class TestEnvelopes:
    """Closed-form brackets and the growth-rate upper bound."""

    def test_eq4_upper_dominates_computed_constant(self):
        """The upper end of the envelope holds for the one-point family."""
        for n in (1, 2, 4, 8, 16):
            for r in (0.0, 0.3, 0.5, 0.7):
                sig = PoleConfiguration.one_point(n, r)
                c = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
                assert c <= eq4_envelope(n, r).upper + 1e-9

    def test_eq4_lower_is_informational_only(self):
        """The lower end fails as a finite-n bound; the audit documents why."""
        env = eq4_envelope(2, 0.5)
        sig = PoleConfiguration.one_point(2, 0.5)
        c = ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
        assert env.lower > c
        np.testing.assert_allclose(
            env.lower**2, en_prime_bergman_audit(2, 0.5).closed_form_sq, rtol=1e-12
        )

    def test_z2_upper_hardy_dominates_random_configurations(self):
        """The Hardy growth bound covers every configuration within the radius."""
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            sig = _random_config(rng, n, 0.7)
            c = ModelSpace(sig).bernstein(NormKind.HARDY).constant
            assert c <= z2_upper_hardy(n, sig.radius) + 1e-9

    def test_bergman_hardy_chain(self):
        """Bergman constant is capped by the square root of the Hardy constant."""
        rng = np.random.default_rng(41)
        for _ in range(10):
            sig = _random_config(rng, int(rng.integers(2, 7)), 0.6)
            space = ModelSpace(sig)
            cb = space.bernstein(NormKind.BERGMAN).constant
            ch = space.bernstein(NormKind.HARDY).constant
            assert cb <= math.sqrt(ch) + 1e-9

    def test_envelope_validation(self):
        """Inverted envelopes and bad parameters are refused."""
        with pytest.raises(ValueError):
            BoundEnvelope(2.0, 1.0, "inverted")
        with pytest.raises(ValueError):
            eq4_envelope(0, 0.5)
        with pytest.raises(ValueError):
            z2_upper_hardy(3, 1.0)


class TestEnPrimeAudit:
    """Two honest pipelines against one published closed form."""

    def test_pipelines_agree(self):
        """Coefficient and quadrature values of the same norm coincide."""
        for n in (2, 5, 11):
            for r in (0.0, 0.3, 0.6):
                audit = en_prime_bergman_audit(n, r)
                np.testing.assert_allclose(
                    audit.numeric_sq,
                    audit.quadrature_sq,
                    rtol=1e-10,
                    atol=1e-12,
                )

    def test_numeric_matches_independent_formula(self):
        """Both pipelines equal ((n-1) + n r^2)/(1 - r^2), derived separately."""
        for n, r in ((2, 0.5), (4, 0.3), (7, 0.7), (3, 0.0)):
            audit = en_prime_bergman_audit(n, r)
            expect = ((n - 1) + n * r**2) / (1.0 - r**2)
            np.testing.assert_allclose(audit.numeric_sq, expect, rtol=1e-9)

    def test_closed_form_splits_for_positive_radius(self):
        """The published formula agrees at r = 0 and departs for r > 0."""
        at_zero = en_prime_bergman_audit(6, 0.0)
        np.testing.assert_allclose(at_zero.discrepancy, 0.0, atol=1e-10)
        split = en_prime_bergman_audit(2, 0.5)
        np.testing.assert_allclose(split.numeric_sq, 2.0, rtol=1e-9)
        np.testing.assert_allclose(split.closed_form_sq, 3.0, rtol=0)
        assert split.discrepancy < -0.9


class TestStep2Expansion:
    """Identity and bounds around the pulled-back derivative."""

    def test_random_coordinates_check_out(self):
        """Expansion equality, norm identity and sandwich hold at tolerance."""
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            r = float(rng.uniform(0.0, 0.7))
            coords = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = step2_expansion_check(n, r, coords)
            assert rep.ok()
            assert rep.gap17 <= 1e-9 * max(1.0, abs(rep.lhs17))
            assert rep.identity_gap <= 1e-9
            assert rep.eq18_slack >= -1e-12

    def test_alternating_test_function_norm(self):
        """The alternating tail sum has squared Hardy norm s + 3."""
        for n, r, s in ((10, 0.4, 2), (25, 0.6, 4), (8, 0.0, 0)):
            f = step2_test_function(n, r, s)
            np.testing.assert_allclose(norm_sq(f, NormKind.HARDY), s + 3.0, atol=1e-9)

    def test_depth_policy(self):
        """Even depth grows like sqrt(n)."""
        assert default_alternation_depth(1) == 0
        assert default_alternation_depth(4) == 2
        assert default_alternation_depth(16) == 4
        assert default_alternation_depth(25) == 4
        assert default_alternation_depth(50) == 6

    def test_input_validation(self):
        """Odd depth, underflow and bad coordinate counts are refused."""
        with pytest.raises(ValueError):
            step2_test_function(10, 0.3, 3)
        with pytest.raises(ValueError):
            step2_test_function(4, 0.3, 2)
        with pytest.raises(ValueError):
            step2_expansion_check(3, 0.5, [1.0, 2.0])
        with pytest.raises(ValueError):
            step2_expansion_check(1, 0.5, [1.0])


class TestAsymptoticSweep:
    """Ratio rows against the growth laws."""

    def test_origin_ratio_is_explicit(self):
        """At r = 0 the Bergman ratio is sqrt(n-1)/sqrt(n) with limit 1."""
        rows = asymptotic_ratio_sweep(0.0, [4, 9, 25], NormKind.BERGMAN)
        for row in rows:
            np.testing.assert_allclose(
                row.ratio, math.sqrt(row.n - 1.0) / math.sqrt(row.n), rtol=1e-10
            )
            np.testing.assert_allclose(row.limit, 1.0, rtol=0)
            assert row.gap > 0.0

    def test_gaps_shrink_with_n(self):
        """The limit gap decreases along an ascending n list, both targets."""
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            rows = asymptotic_ratio_sweep(0.5, [10, 20, 40], target)
            gaps = [row.gap for row in rows]
            assert all(g > 0.0 for g in gaps)
            assert gaps[-1] < gaps[0]

    def test_hardy_ratio_definition(self):
        """Hardy rows divide by n and carry the (1+r)/(1-r) limit."""
        (row,) = asymptotic_ratio_sweep(0.3, [12], NormKind.HARDY)
        np.testing.assert_allclose(row.ratio, row.constant / 12.0, rtol=1e-15)
        np.testing.assert_allclose(row.limit, 1.3 / 0.7, rtol=1e-15)

    def test_domain_validation(self):
        """Radii outside [0, 1) and dimensions below one are refused."""
        for r, n_list in ((1.0, [3]), (-0.5, [3]), (0.5, [0, 3])):
            with pytest.raises(ValueError, match=r"need n >= 1 and r in \[0, 1\)"):
                asymptotic_ratio_sweep(r, n_list, NormKind.BERGMAN)


class TestOnePointDominanceFinding:
    """Finding, not a theorem: on a fixed panel of seeded uniform draws, no
    configuration of n points within radius r beats the one-point
    configuration at radius r.  Nothing here proves that the one-point
    family attains the supremum over configurations."""

    @_TARGETS
    def test_no_draw_beats_one_point(self, target):
        """n in {2,3,5,8}, r in {0.3,0.6,0.9}, seeds 0 and 1, 10 draws each."""
        excess = []
        for n in (2, 3, 5, 8):
            for r in (0.3, 0.6, 0.9):
                best = ModelSpace(PoleConfiguration.one_point(n, r)).bernstein(target)
                for seed in (0, 1):
                    rng = np.random.default_rng(seed)
                    for _ in range(10):
                        sig = _random_config(rng, n, r)
                        value = ModelSpace(sig).bernstein(target).constant
                        excess.append((value - best.constant, n, r, seed))
        assert len(excess) == 240
        assert max(excess)[0] <= 1e-12, max(excess)
