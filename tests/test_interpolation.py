"""Tests for constrained Dirichlet interpolation constants and their bounds."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mslab import bernstein, blaschke, hermitian, interpolation, verification
from mslab.bernstein import Constant, _corner_sum
from mslab.cli import main
from mslab.errors import CertificationError
from mslab.hermitian import gram_matrix, min_norm_solve
from mslab.interpolation import (
    ModelSpace,
    constant_from_basis,
    dirichlet_kernel_diag,
    interp_lower_eq9,
    interp_witnesses,
    single_point_closed_form,
    theoremB_envelopes,
    theoremB_test_function,
    _apply_rows,
    _constraint_rows,
)
from mslab.blaschke import (
    MalmquistBasis,
    PoleConfiguration,
    malmquist_basis,
    multiplicity_groups,
    parse_sigma_spec,
)
from mslab.series import (
    NormKind,
    TaylorSeries,
    compose_with_blaschke_factor,
    evaluate,
    norm,
    norm_sq,
    policy_truncation,
    polynomial,
)


def _random_config(rng, n, max_r):
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PoleConfiguration(tuple(rad * np.exp(1j * ang)))


_KINDS = pytest.mark.parametrize(
    "kind", (NormKind.BERGMAN, NormKind.HARDY, NormKind.DIRICHLET),
    ids=("bergman", "hardy", "dirichlet"),
)


def _read(space, kind):
    """The constant of ``kind`` that a ModelSpace serves."""
    return space.interp() if kind is NormKind.DIRICHLET else space.bernstein(kind)


def _projection_oracle(basis):
    """The projection bound as the Dirichlet norm over the model-space ball,
    sqrt(lambda_max(E^* diag(k+1) E)), straight from E."""
    E = basis.matrix
    G = E.conj().T @ (E * (np.arange(basis.trunc_len) + 1.0)[:, None])
    return math.sqrt(np.linalg.eigvalsh(G)[-1])


class TestSinglePoint:
    """Closed form from the two reproducing kernels."""

    def test_kernel_diag_hand_values(self):
        """-log(1-x)/x at the origin and at x = 1/4."""
        np.testing.assert_allclose(dirichlet_kernel_diag(0.0), 1.0, rtol=0)
        np.testing.assert_allclose(
            dirichlet_kernel_diag(0.5), -math.log(0.75) / 0.25, rtol=1e-15
        )

    def test_origin_constant_is_one(self):
        """Interpolating a single value at 0 costs exactly the value."""
        np.testing.assert_allclose(single_point_closed_form(0.0), 1.0, rtol=0)
        res = ModelSpace(PoleConfiguration((0.0,))).interp()
        np.testing.assert_allclose(res.constant, 1.0, atol=1e-12)

    def test_exact_matches_closed_form(self):
        """The Gram pipeline reproduces the kernel quotient at single points."""
        for lam in (0.25, 0.5, 0.6 + 0.2j):
            res = ModelSpace(PoleConfiguration((lam,))).interp()
            np.testing.assert_allclose(
                res.constant, single_point_closed_form(abs(lam)), rtol=1e-10
            )

    def test_half_value(self):
        """I({1/2}) to ten digits."""
        np.testing.assert_allclose(
            single_point_closed_form(0.5), 1.0764230111, rtol=1e-9
        )
        np.testing.assert_allclose(
            single_point_closed_form(0.5),
            math.sqrt((4.0 / 3.0) / (4.0 * math.log(4.0 / 3.0))),
            rtol=1e-14,
        )

    def test_domain_validation(self):
        """Moduli at or beyond one are refused."""
        with pytest.raises(ValueError):
            single_point_closed_form(1.0)
        with pytest.raises(ValueError):
            dirichlet_kernel_diag(-0.1)


def _constraint_rows_per_row(sigma, length):
    """Reference: every row's falling factorial and powers formed afresh."""
    rows = []
    k = np.arange(length, dtype=np.float64)
    for lam, mult in multiplicity_groups(sigma):
        for t in range(mult):
            falling = np.ones(length, dtype=np.float64)
            for j in range(t):
                falling *= np.maximum(k - j, 0.0)
            powers = np.zeros(length, dtype=np.complex128)
            idx = np.arange(t, length)
            if lam != 0:
                powers[idx] = np.power(complex(lam), (idx - t).astype(np.float64))
            else:
                powers[idx] = np.where(idx - t == 0, 1.0, 0.0)
            rows.append(falling * powers)
    return np.array(rows)


class TestConstraintRows:
    """Trace functionals from a running falling factorial and one power
    vector per point."""

    def test_bit_identical_to_per_row_build(self):
        """Same multiplications in the same order, so equal bits."""
        sigmas = [
            PoleConfiguration((0.3 - 0.1j,) * 2 + (-0.5j,) * 3 + (0.62,)),
            PoleConfiguration((0.0,) * 3 + (0.5,) * 2),
            PoleConfiguration.one_point(30, 0.4 + 0.2j),
        ]
        for sig in sigmas:
            for length in (64, 158, 400):
                np.testing.assert_array_equal(
                    _constraint_rows(sig, length), _constraint_rows_per_row(sig, length)
                )


class TestExactConstant:
    """The eigenvalue pipeline and its witnesses."""

    def test_double_origin_equals_sqrt_two(self):
        """sigma = {0, 0}: the projection bound is attained, I = sqrt(2)."""
        space = ModelSpace(PoleConfiguration.one_point(2, 0.0))
        res = space.interp()
        np.testing.assert_allclose(res.constant, math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(space.projection_bound(), res.constant, rtol=1e-12)

    def test_witnesses_are_coherent(self):
        """The witness f has unit Hardy norm and g interpolates it at cost I."""
        rng = np.random.default_rng(18)
        sig = _random_config(rng, 4, 0.6)
        res, f, g = interp_witnesses(ModelSpace(sig).basis)
        np.testing.assert_allclose(norm(f, NormKind.HARDY), 1.0, atol=1e-9)
        np.testing.assert_allclose(norm(g, NormKind.DIRICHLET), res.constant, rtol=1e-9)
        for p in sig.points:
            np.testing.assert_allclose(evaluate(g, p), evaluate(f, p), atol=1e-9)

    def test_multiplicity_matches_derivative(self):
        """At a double point the interpolant matches value and first derivative.
        A one-point configuration gets witnesses from the basis route."""
        sig = PoleConfiguration((0.3, 0.3))
        _, f, g = interp_witnesses(malmquist_basis(sig))
        np.testing.assert_allclose(evaluate(g, 0.3), evaluate(f, 0.3), atol=1e-9)
        h = 1e-5
        df = (evaluate(f, 0.3 + h) - evaluate(f, 0.3 - h)) / (2 * h)
        dg = (evaluate(g, 0.3 + h) - evaluate(g, 0.3 - h)) / (2 * h)
        np.testing.assert_allclose(dg, df, atol=1e-6)

    def test_witness_interpolant_is_minimal(self):
        """Re-solving the min-norm problem for the witness f recovers the same cost."""
        rng = np.random.default_rng(28)
        sig = _random_config(rng, 3, 0.5)
        res, f, _ = interp_witnesses(ModelSpace(sig).basis)
        A = _constraint_rows(sig, res.trunc_len)
        w = NormKind.DIRICHLET.weights(res.trunc_len)
        g = min_norm_solve(w, A, _apply_rows(A, f))
        np.testing.assert_allclose(
            norm(TaylorSeries(g), NormKind.DIRICHLET), res.constant, rtol=1e-9
        )

    def test_dominates_every_hardy_ball_function(self):
        """No unit-ball competitor needs more Dirichlet norm than the constant."""
        rng = np.random.default_rng(36)
        sig = _random_config(rng, 3, 0.5)
        res = ModelSpace(sig).interp()
        A = _constraint_rows(sig, res.trunc_len)
        weights = NormKind.DIRICHLET.weights(res.trunc_len)
        for _ in range(10):
            f = polynomial(rng.normal(size=20) + 1j * rng.normal(size=20))
            g = min_norm_solve(weights, A, _apply_rows(A, f))
            nrm = norm(TaylorSeries(g), NormKind.DIRICHLET)
            assert nrm <= res.constant * norm(f, NormKind.HARDY) + 1e-9

    def test_rotation_invariance(self):
        """Rotating the configuration leaves the constant unchanged."""
        rng = np.random.default_rng(44)
        sig = _random_config(rng, 3, 0.6)
        base = ModelSpace(sig).interp().constant
        np.testing.assert_allclose(ModelSpace(sig.rotated(1.3)).interp().constant, base, rtol=1e-9)

    def test_near_collision_rejected(self):
        """Distinct points inside the resolution limit raise the certification error."""
        with pytest.raises(CertificationError):
            ModelSpace(PoleConfiguration((0.5, 0.5 + 1e-9))).interp()

    def test_one_dual_gram_solve_per_configuration(self, monkeypatch):
        """All n basis traces share one min-norm solve."""
        calls = []
        solve = interpolation.min_norm_solve

        def counted(weights, A, B):
            calls.append(np.shape(B))
            return solve(weights, A, B)

        monkeypatch.setattr(interpolation, "min_norm_solve", counted)
        ModelSpace(PoleConfiguration((0.3, 0.3, -0.5j, 0.6))).interp()
        assert calls == [(4, 4)]  # 4 trace functionals, 4 basis elements


class TestModelSpace:
    """One configuration, one route, one basis: the work each constant of a
    ModelSpace costs."""

    @staticmethod
    def _count_work(monkeypatch):
        """Count basis builds and top-eigenpair solves made by either route."""
        counts = {"builds": 0, "solves": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(interpolation, "malmquist_basis", counted(malmquist_basis, "builds"))
        for module in (bernstein, interpolation):
            monkeypatch.setattr(module, "max_eigenpair", counted(module.max_eigenpair, "solves"))
        return counts

    def test_basis_route_builds_once_for_every_constant(self, monkeypatch):
        """C_B, C_H and I of a configuration with distinct points share one
        basis and make three eigen-solves: the projection bound reuses C_B."""
        counts = self._count_work(monkeypatch)
        space = ModelSpace(PoleConfiguration((0.3, 0.3, -0.2 + 0.4j)))
        bergman = space.bernstein(NormKind.BERGMAN)
        space.bernstein(NormKind.HARDY)
        res = space.interp()
        assert space.projection_bound() == math.hypot(bergman.constant, 1.0)
        assert counts == {"builds": 1, "solves": 3}
        assert space.bernstein(NormKind.BERGMAN) is bergman
        assert res.trunc_len == space.basis.trunc_len
        assert counts["builds"] == 1

    def test_one_point_builds_only_when_basis_is_read(self, monkeypatch):
        """The banded route builds no basis; reading ``basis`` builds it once."""
        counts = self._count_work(monkeypatch)
        space = ModelSpace(PoleConfiguration.one_point(5, 0.6))
        space.bernstein(NormKind.BERGMAN)
        space.bernstein(NormKind.HARDY)
        assert space.interp().trunc_len == 5
        assert counts == {"builds": 0, "solves": 3}
        assert space.basis is space.basis
        assert counts["builds"] == 1

    @pytest.mark.parametrize("command", ("bernstein", "interp"))
    @pytest.mark.parametrize(
        ("sigma", "builds"),
        (("one-point:n=6,r=0.7", 0), ("0.3,0;0.3,0;-0.2,0.4", 1)),
        ids=("banded", "basis"),
    )
    def test_cli_work_per_configuration(self, capsys, monkeypatch, command, sigma, builds):
        """``bernstein --target both`` and ``interp`` each make two eigen-solves
        per configuration, and one basis build off the banded route."""
        counts = self._count_work(monkeypatch)
        assert main([command, "--sigma", sigma]) == 0
        capsys.readouterr()
        assert counts == {"builds": builds, "solves": 2}

    @pytest.mark.parametrize(
        "sigma", (PoleConfiguration((0.1, 0.2)), PoleConfiguration.one_point(3, 0.4)),
        ids=("basis", "banded"),
    )
    def test_invalid_target_builds_nothing(self, monkeypatch, sigma):
        """A target other than Bergman or Hardy is refused before any build
        or solve, on either route."""
        counts = self._count_work(monkeypatch)
        space = ModelSpace(sigma)
        with pytest.raises(ValueError):
            space.bernstein(NormKind.DIRICHLET)
        assert counts == {"builds": 0, "solves": 0}
        assert "basis" not in vars(space)

    def test_cli_interp_forms_no_witness(self, capsys, monkeypatch):
        """``interp`` on the basis route neither calls ``interp_witnesses``
        nor combines basis elements into a function."""

        def refuse(*args):
            raise AssertionError("a witness was formed")

        monkeypatch.setattr(MalmquistBasis, "combine", refuse)
        monkeypatch.setattr(interpolation, "interp_witnesses", refuse)
        assert main(["interp", "--sigma", "0.3,0;0.3,0;-0.2,0.4"]) == 0
        assert "interp-exact" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "sigma",
        (PoleConfiguration.one_point(4, 0.5 - 0.2j), PoleConfiguration((0.3, 0.3, -0.2 + 0.4j))),
        ids=("banded", "basis"),
    )
    def test_every_reader_returns_a_constant(self, sigma):
        """``bernstein``, ``interp`` and ``constant_from_basis`` of every kind
        all return a Constant with read-only extremal coordinates, both routes
        give the same extremal up to a phase, and the projection bound is
        hypot(C_B, 1) bit for bit."""
        space = ModelSpace(sigma)
        readers = {
            kind: (_read(space, kind), constant_from_basis(space.basis, kind))
            for kind in (NormKind.BERGMAN, NormKind.HARDY, NormKind.DIRICHLET)
        }
        for kind, pair in readers.items():
            for res in pair:
                assert type(res) is Constant, kind
                assert res.extremal.shape == (sigma.n,) and not res.extremal.flags.writeable
            ours, oracle = pair
            np.testing.assert_allclose(ours.constant, oracle.constant, rtol=1e-10)
            overlap = abs(np.vdot(ours.extremal, oracle.extremal))
            np.testing.assert_allclose(overlap, 1.0, atol=1e-9)
        bergman = readers[NormKind.BERGMAN][0].constant
        assert space.projection_bound() == math.hypot(bergman, 1.0)


def _reference_configurations():
    """(workload, configuration) for every explicit-point ``--sigma`` of the
    benchmark reference."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    for workload, cells in reference["workloads"].items():
        for cell in cells:
            for op in cell:
                for arg in op["argv"]:
                    if arg.startswith("--sigma=") and not arg.startswith("--sigma=one-point:"):
                        yield workload, parse_sigma_spec(arg[len("--sigma=") :])[0]


class TestSteinRoute:
    """Which configurations take C_B and C_H from the Stein equations, and
    what that route costs."""

    def test_benchmark_cells_pick_their_side(self):
        """Every distinct-point cell of the bern-basis workload (n, r) =
        (3, 0.99), (5, 0.98), (9, 0.97), (11, 0.98) takes the Stein route,
        with L_low at 84 n or more; every distinct-point configuration of the
        other workloads, at most 33.3 n, keeps E.  I never takes it."""
        sides: dict[tuple[str, int, float], set[bool]] = {}
        for workload, sigma in _reference_configurations():
            space = ModelSpace(sigma)
            assert not space._stein_route(NormKind.DIRICHLET)
            if sigma.is_one_point:
                continue
            key = (workload, sigma.n, round(sigma.radius, 2))
            sides.setdefault(key, set()).add(space._stein_route(NormKind.BERGMAN))
            assert space._stein_route(NormKind.HARDY) == space._stein_route(NormKind.BERGMAN)
        stein = {key for key, side in sides.items() if side == {True}}
        assert all(len(side) == 1 for side in sides.values())
        assert stein == {
            ("bern-basis", 3, 0.99), ("bern-basis", 5, 0.98),
            ("bern-basis", 9, 0.97), ("bern-basis", 11, 0.98),
        }
        assert {key[0] for key in sides} == {"bern-solve", "bern-basis", "interp", "lab-sweep"}

    def test_kappa_sits_between_the_benchmark_ratios(self):
        """L_low / n is at most 33.3 off bern-basis and at least 84 on it,
        and kappa lies between."""
        ratios: dict[bool, list[float]] = {True: [], False: []}
        for workload, sigma in _reference_configurations():
            if not sigma.is_one_point:
                ratio = blaschke._row_lower_bound(sigma) / sigma.n
                ratios[workload == "bern-basis"].append(ratio)
        assert max(ratios[False]) <= 33.4 < interpolation.STEIN_ROWS_PER_POINT
        assert interpolation.STEIN_ROWS_PER_POINT <= min(ratios[True])

    @pytest.mark.parametrize("seed", range(4))
    def test_verify_keeps_the_basis_route(self, monkeypatch, seed):
        """No configuration of the verification suite, seeds 0-3, takes the
        Stein route: with it refused, every check still passes."""

        def refuse(sigma):
            raise AssertionError(f"Stein route taken for {sigma.key()}")

        monkeypatch.setattr(interpolation, "ShiftGrams", refuse)
        assert all(res.passed for res in verification.run_all(seed=seed))

    def test_builds_no_basis_and_reports_n(self, monkeypatch):
        """C_B and C_H on the Stein route build no E, solve W once for both,
        report ``trunc_len`` = n and equal the E route to 1e-13; reading I
        then builds E once."""
        calls = {"builds": 0, "stein": 0}
        build, solve = interpolation.malmquist_basis, blaschke.stein_solve

        def counted_build(sigma):
            calls["builds"] += 1
            return build(sigma)

        def counted_solve(*args):
            calls["stein"] += 1
            return solve(*args)

        monkeypatch.setattr(interpolation, "malmquist_basis", counted_build)
        monkeypatch.setattr(blaschke, "stein_solve", counted_solve)
        (sigma,) = parse_sigma_spec("0.99,0;0.97,0.1;-0.5,0.85")
        space = ModelSpace(sigma)
        results = {kind: space.bernstein(kind) for kind in (NormKind.BERGMAN, NormKind.HARDY)}
        assert calls == {"builds": 0, "stein": 2}
        assert all(res.trunc_len == 3 for res in results.values())
        space.interp()
        assert calls == {"builds": 1, "stein": 2}
        for kind, res in results.items():
            want = constant_from_basis(space.basis, kind).constant
            assert abs(res.constant - want) <= 1e-13 * want


_SIZED_N = (1, 2, 12, 100, 10**4)
_SIZED_R = (0.0, 0.01, 0.3, 0.5, 0.7, 0.9)


def _chunked_corner_sum(n, r):
    """sigma_n summed in chunks of 256 terms until the remainder bound
    r^{2m}/((n+m)(1-r^2)) falls below a quarter unit of rounding of the
    running total, the chunks added by fsum: the summation the sized corner
    sum replaced."""
    q = (1.0 - r) * (1.0 + r)
    eps = float(np.finfo(np.float64).eps)
    parts, m, total = [], 0, 0.0
    while m == 0 or r ** (2 * m) / ((n + m) * q) > 0.25 * eps * total:
        idx = np.arange(m, m + 256, dtype=np.float64)
        parts.append(float(np.sum(np.power(r, 2.0 * idx) / (n + idx))))
        total += parts[-1]
        m += 256
    return math.fsum(parts)


class TestOnePointInterpRoute:
    """The n x n tridiagonal route against the Malmquist matrix E."""

    @staticmethod
    def _lambda_min_oracle(basis):
        E = basis.matrix
        G = E.conj().T @ (E / (np.arange(basis.trunc_len) + 1.0)[:, None])
        return 1.0 / math.sqrt(np.linalg.eigvalsh(G)[0])

    def test_matches_bergman_gram_oracle(self):
        """I = 1/sqrt(lambda_min(E^* diag(1/(k+1)) E)) over a grid with a complex
        centre, and the projection bound matches the basis one."""
        for n in (1, 2, 3, 5, 8, 12, 20, 40):
            for r in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
                sig = PoleConfiguration.one_point(n, r * np.exp(0.7j))
                basis = malmquist_basis(sig)
                space = ModelSpace(sig)
                np.testing.assert_allclose(
                    space.interp().constant, self._lambda_min_oracle(basis), rtol=1e-12
                )
                np.testing.assert_allclose(
                    space.projection_bound(), _projection_oracle(basis), rtol=1e-12
                )

    @_KINDS
    def test_matches_min_norm_route(self, kind):
        """A one-point ModelSpace takes the banded route and agrees with the
        E route of the same kind (min-norm for I)."""
        for n, r in ((2, 0.5), (6, 0.3 - 0.4j), (12, 0.66)):
            sig = PoleConfiguration.one_point(n, r)
            banded = _read(ModelSpace(sig), kind)
            assert banded.trunc_len == n
            via_basis = constant_from_basis(malmquist_basis(sig), kind)
            np.testing.assert_allclose(banded.constant, via_basis.constant, rtol=1e-10)

    def test_single_point_closed_form(self):
        """n = 1 reproduces the kernel quotient to 1e-14 and stays under the
        projection bound, from tiny radii up to 1 - 1e-9, where 1 - r^2 must
        not be formed from the rounded r^2."""
        radii = (0.0, 1e-9, 2e-8, 1e-7, 1e-6, 1e-4, 1e-3, 0.25, 0.5, 0.9, 0.999, 0.999999)
        for r in radii + (1.0 - 1e-9,):
            space = ModelSpace(PoleConfiguration((r * 1j,)))
            res = space.interp()
            np.testing.assert_allclose(
                res.constant, single_point_closed_form(r), rtol=1e-14
            )
            assert res.constant <= space.projection_bound(), r

    def test_reports_operator_size_and_no_witnesses(self):
        """trunc_len is n, the result holds no witness functions, the
        residual is certified."""
        res = ModelSpace(PoleConfiguration.one_point(7, 0.6)).interp()
        assert res.trunc_len == 7
        assert [field.name for field in dataclasses.fields(res)] == [
            "constant", "extremal", "trunc_len", "residual"
        ]
        assert 0.0 <= res.residual <= 1e-10 * (1.0 + res.constant**2)

    @_KINDS
    def test_basis_route_reports_rows_and_witnesses(self, kind):
        """A one-point basis gives the E route for every kind, which reports
        the row count of E; for I it gives witnesses on request."""
        basis = malmquist_basis(PoleConfiguration.one_point(3, 0.4))
        res = constant_from_basis(basis, kind)
        assert res.trunc_len == basis.trunc_len > 3
        if kind is NormKind.DIRICHLET:
            same, f, g = interp_witnesses(basis)
            assert same.constant == res.constant
            assert f.trunc_len == g.trunc_len == basis.trunc_len

    @pytest.mark.parametrize("n", (1, 2, 3, 6, 30, 100))
    def test_bands_match_dense_construction(self, n):
        """The tridiagonal bands agree entry by entry to 1e-15 relative with
        R^T diag(d/q) R^T built densely through gram_matrix, and I with the
        dense Gram's top eigenvalue, for a real and a complex centre."""
        for r in (0.0, 0.3, 0.97, 0.999):
            d = np.arange(1.0, n + 1.0)
            d[-1] = 1.0 / _corner_sum(n, r)
            Rt = np.eye(n) - r * np.eye(n, k=1)
            dense = gram_matrix(Rt, d / ((1.0 - r) * (1.0 + r)))
            bands = hermitian._from_bands(*bernstein._one_point_bands(n, r, NormKind.DIRICHLET))
            assert bands.shape == dense.shape and bands.dtype == np.float64
            np.testing.assert_allclose(bands, dense, rtol=1e-15, atol=0.0)
            want = math.sqrt(np.linalg.eigvalsh(dense)[-1])
            for theta in (0.0, 1.1):
                res = ModelSpace(PoleConfiguration.one_point(n, r * np.exp(1j * theta))).interp()
                np.testing.assert_allclose(res.constant, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", _SIZED_N)
    def test_sized_corner_sum_matches_chunked_sum(self, n):
        """The corner sum, summed to the M terms its remainder bound needs,
        is within 2 ulp of the 256-term chunked summation it replaces, and
        exactly 1/n at r = 0."""
        assert _corner_sum(n, 0.0) == 1.0 / n
        for r in _SIZED_R:
            want = _chunked_corner_sum(n, r)
            assert abs(_corner_sum(n, r) - want) <= 2.0 * math.ulp(want), (n, r)

    @pytest.mark.parametrize("n", _SIZED_N)
    def test_sized_corner_sum_within_two_ulp_of_lerch_phi(self, n):
        """The same grid against Phi(r^2, 1, n) at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for r in _SIZED_R:
                want = float(mpmath.lerchphi(mpmath.mpf(r) ** 2, 1, n))
                assert abs(_corner_sum(n, r) - want) <= 2.0 * math.ulp(want), (n, r)

    def test_corner_sum_in_bounded_memory(self):
        """n = 10^6 at r = 1 - 10^-6 needs about 2.5e7 terms, which the sum
        takes in chunks: the traced peak stays under 4 MB (one array of all
        the terms would take 200 MB), and the value is Phi(r^2, 1, n) at 30
        digits within 2 ulp."""
        n, r = 10**6, 1.0 - 1e-6
        tracemalloc.start()
        try:
            got = _corner_sum(n, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(mpmath.lerchphi(mpmath.mpf(r) ** 2, 1, n))
        assert abs(got - want) <= 2.0 * math.ulp(want), (got, want)

    def test_corner_sum_matches_lerch_phi(self):
        """sigma_n = Phi(r^2, 1, n) to 1e-13 relative in both regimes, up to
        the last double below one and n = 10^5."""
        mpmath = pytest.importorskip("mpmath")
        cases = [(n, r) for n in (1, 3, 100) for r in (0.0, 0.1, 0.5, 0.9, 0.99)]
        # n (1 - r^2) on both sides of 1 at n = 10^5, and r one ulp below 1.
        cases += [(10**5, r) for r in (0.999, 0.99999, 0.999995, 0.9999999999999999)]
        cases += [(1, r) for r in (1e-9, 2e-8, 1e-7, 1e-6, 1e-4, 1e-3)]
        cases += [(2, 0.9999999999999999)]
        with mpmath.workdps(40):
            for n, r in cases:
                want = mpmath.lerchphi(mpmath.mpf(r) ** 2, 1, n)
                got = _corner_sum(n, r)
                assert abs(got - want) <= 1e-13 * want, (n, r, got, float(want))


class TestBounds:
    """Projection upper bound, one-point lower bounds and envelope rails."""

    def test_projection_bound_dominates(self):
        """sqrt(C_B^2 + 1) sits above the exact constant."""
        rng = np.random.default_rng(52)
        for _ in range(8):
            sig = _random_config(rng, int(rng.integers(1, 6)), 0.6)
            space = ModelSpace(sig)
            upper, basis = space.projection_bound(), space.basis
            assert space.interp().constant <= upper + 1e-9
            np.testing.assert_allclose(upper, _projection_oracle(basis), rtol=1e-12)
            bergman = constant_from_basis(basis, NormKind.BERGMAN).constant
            np.testing.assert_allclose(upper, math.sqrt(bergman**2 + 1.0), rtol=1e-12)

    def test_one_point_bracket(self):
        """eq9 and the proof-step bound sit below exact, which sits below eq10's cap."""
        for n in (2, 4, 8):
            for r in (0.0, 0.3, 0.5, 0.7):
                res = ModelSpace(PoleConfiguration.one_point(n, r)).interp()
                eq9 = interp_lower_eq9(n, r)
                env = theoremB_envelopes(n, r)["eq10"]
                assert eq9 <= env.lower + 1e-12
                assert env.lower <= res.constant + 1e-9
                assert res.constant <= env.upper + 1e-9

    def test_lower_bound_needs_two_points(self):
        """n = 1 is refused with a pointer to the single-point closed form."""
        with pytest.raises(ValueError, match="single-point closed form"):
            interp_lower_eq9(1, 0.5)

    def test_eq9_hand_value(self):
        """n = 2, r = 1/2: the published lower bound collapses to exactly 1."""
        eq9 = interp_lower_eq9(2, 0.5)
        assert isinstance(eq9, float)
        np.testing.assert_allclose(eq9, 1.0, rtol=1e-12)

    def test_envelope_rails_are_ordered(self):
        """Each envelope carries lower <= upper; eq12 is the uniform bracket."""
        env = theoremB_envelopes(5, 0.4)
        assert set(env) == {"eq10", "eq11", "eq12"}
        for e in env.values():
            assert e.lower <= e.upper
        np.testing.assert_allclose(env["eq12"].lower, math.sqrt(2.0) / 2.0, rtol=0)
        np.testing.assert_allclose(env["eq12"].upper, math.sqrt(2.0), rtol=0)

    def test_eq11_is_large_n_limit_of_eq10(self):
        """The eq11 rails are the n to infinity scalings of the eq10 bracket."""
        n, r = 10**6, 0.3
        env = theoremB_envelopes(n, r)
        np.testing.assert_allclose(
            env["eq10"].lower / math.sqrt(n), env["eq11"].lower, rtol=1e-5
        )

    def test_normalized_constant_in_uniform_bracket(self):
        """I sqrt((1-r)/n) stays inside the eq12 rails on a small panel."""
        for n, r in ((2, 0.0), (2, 0.5), (5, 0.3), (8, 0.6)):
            res = ModelSpace(PoleConfiguration.one_point(n, r)).interp()
            normalized = res.constant * math.sqrt((1.0 - r) / n)
            env = theoremB_envelopes(n, r)["eq12"]
            assert env.lower - 1e-9 <= normalized <= env.upper + 1e-9


class TestTheoremBFunction:
    """The composed competitor behind the one-point lower bound."""

    def test_hardy_norm_is_n(self):
        """Summing n orthonormal elements costs exactly n in squared Hardy norm."""
        for n, lam in ((3, 0.4), (10, -0.5), (7, 0.3 + 0.2j)):
            f = theoremB_test_function(n, lam)
            np.testing.assert_allclose(norm_sq(f, NormKind.HARDY), float(n), atol=1e-10)

    def test_composition_closed_form(self):
        """Pulled back by its own automorphism the sum telescopes to a polynomial."""
        for n, r in ((1, 0.4), (2, 0.5), (6, 0.3), (4, 0.0)):
            f = theoremB_test_function(n, -r)
            N = policy_truncation(n + 2, r)
            comp = compose_with_blaschke_factor(f, -r, N)
            expect = np.zeros(N + 1, dtype=complex)
            expect[0] = 1.0
            expect[1:n] = 1.0 + r
            expect[n] = r
            expect /= math.sqrt(1.0 - r * r)
            np.testing.assert_allclose(comp.coeffs, expect, atol=1e-10)

    def test_needs_positive_dimension(self):
        """n = 0 is refused."""
        with pytest.raises(ValueError):
            theoremB_test_function(0, 0.3)
