"""Deterministic invariant suite backing the ``verify`` subcommand.

Each check exercises one structural invariant of a module with seeded random
panels and fixed tolerances, and reports a stable one-line detail, so two
runs with the same seed produce byte-identical output.  The suite is meant
to be cheap enough to run routinely; the acceptance tests scale the same
properties up.

``gram_perturbation`` is a harness hook: a nonzero value is injected into
one entry of the orthonormality Gram before the defect is measured, which
must flip the orthonormality check to FAIL (negative control for the exit
path of the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bernstein as bn
from . import interpolation as ip
from .blaschke import (
    PoleConfiguration,
    blaschke_factor_eval,
    malmquist_basis_auto,
    model_projection,
)
from .errors import CertificationError
from .hermitian import (
    HermitianMatrix,
    gram_matrix,
    max_eigenpair,
    max_generalized_eigenpair,
    min_norm_solve,
)
from .quadrature import (
    DiscQuadrature,
    bergman_norm_quadrature,
    hardy_norm_circle,
    moebius_invariance_check,
)
from .series import (
    NormKind,
    TaylorSeries,
    add,
    cauchy_kernel_series,
    compose_with_blaschke_factor,
    differentiate,
    evaluate,
    norm,
    norm_sq,
    policy_truncation,
    polynomial,
    scale,
)

__all__ = ["CheckResult", "run_all", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_series(rng: np.random.Generator, max_len: int = 64) -> TaylorSeries:
    L = int(rng.integers(1, max_len + 1))
    c = rng.normal(size=L) + 1j * rng.normal(size=L)
    return polynomial(c)


def _random_sigma(rng: np.random.Generator, max_n: int = 8, max_r: float = 0.8) -> PoleConfiguration:
    n = int(rng.integers(1, max_n + 1))
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PoleConfiguration(tuple(complex(p) for p in rad * np.exp(1j * ang)))


def _check_norm_splitting(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(200):
        f = _random_series(rng)
        total = norm_sq(f, NormKind.DIRICHLET)
        split = norm_sq(differentiate(f), NormKind.BERGMAN) + norm_sq(f, NormKind.HARDY)
        worst = max(worst, abs(total - split) / total)
    return CheckResult(
        "series.norm-splitting", worst <= 1e-12, f"max relative gap {worst:.3e}"
    )


def _check_norm_homogeneity(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(100):
        f = _random_series(rng)
        c = complex(rng.normal(), rng.normal())
        for kind in NormKind:
            a = norm(scale(f, c), kind)
            b = abs(c) * norm(f, kind)
            worst = max(worst, abs(a - b) / max(b, 1e-300))
    return CheckResult(
        "series.norm-homogeneity", worst <= 1e-13, f"max relative gap {worst:.3e}"
    )


def _check_kernel_tail(rng: np.random.Generator, _: float) -> CheckResult:
    ok = True
    worst = 0.0
    for lam in (0.0, 0.3j, 0.5, -0.7, 0.8 * np.exp(1j * 0.9)):
        N = policy_truncation(1, abs(lam))
        short = cauchy_kernel_series(lam, N)
        long = cauchy_kernel_series(lam, 2 * N)
        gap = abs(norm(long, NormKind.HARDY) - norm(short, NormKind.HARDY))
        ok = ok and gap <= short.tail_bound + 1e-15
        worst = max(worst, gap)
    return CheckResult(
        "series.kernel-tail-bound", ok, f"max doubling gap {worst:.3e}"
    )


def _check_composition_evaluation(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(20):
        deg = int(rng.integers(0, 13))
        f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        lam = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7) * 0.5)
        N = policy_truncation(deg + 1, abs(lam))
        comp = compose_with_blaschke_factor(f, lam, N)
        for _j in range(5):
            z = 0.9 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            direct = evaluate(f, blaschke_factor_eval(lam, z))
            worst = max(worst, abs(evaluate(comp, complex(z)) - direct))
    return CheckResult(
        "series.composition-evaluation", worst <= 1e-9, f"max pointwise gap {worst:.3e}"
    )


def _check_composition_involution(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for lam in (0.4, -0.3 + 0.2j):
        f = polynomial(rng.normal(size=9) + 1j * rng.normal(size=9))
        N = policy_truncation(9, abs(lam)) * 2
        back = compose_with_blaschke_factor(
            compose_with_blaschke_factor(f, lam, N), lam, N
        )
        worst = max(worst, float(np.max(np.abs(back.coeffs[:9] - f.coeffs))))
    return CheckResult(
        "series.composition-involution", worst <= 1e-10, f"max coefficient gap {worst:.3e}"
    )


def _check_orthonormality(rng: np.random.Generator, perturb: float) -> CheckResult:
    worst = 0.0
    sigmas = [_random_sigma(rng) for _ in range(10)]
    sigmas.append(PoleConfiguration.one_point(8, 0.8))
    for sig in sigmas:
        try:
            basis = malmquist_basis_auto(sig)
        except CertificationError as exc:
            return CheckResult("blaschke.orthonormality", False, str(exc))
        gram = basis.matrix.conj().T @ basis.matrix
        if perturb != 0.0 and sig.n >= 2:
            gram = gram + perturb * np.eye(sig.n, k=1)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(sig.n)))))
    return CheckResult(
        "blaschke.orthonormality", worst <= 1e-10, f"max Gram defect {worst:.3e}"
    )


def _check_projection(rng: np.random.Generator, _: float) -> CheckResult:
    worst_fix = worst_contract = 0.0
    for _i in range(10):
        sig = _random_sigma(rng, max_n=6)
        basis = malmquist_basis_auto(sig)
        coeffs = rng.normal(size=sig.n) + 1j * rng.normal(size=sig.n)
        member = basis.combine(coeffs)
        fixed = model_projection(member, basis)
        L = min(fixed.trunc_len, member.trunc_len)
        worst_fix = max(
            worst_fix, float(np.max(np.abs(fixed.coeffs[:L] - member.coeffs[:L])))
        )
        f = _random_series(rng, 40)
        pf = model_projection(f, basis)
        ppf = model_projection(pf, basis)
        L = min(pf.trunc_len, ppf.trunc_len)
        worst_fix = max(worst_fix, float(np.max(np.abs(ppf.coeffs[:L] - pf.coeffs[:L]))))
        worst_contract = max(
            worst_contract, norm(pf, NormKind.HARDY) - norm(f, NormKind.HARDY)
        )
    passed = worst_fix <= 1e-10 and worst_contract <= 1e-12
    return CheckResult(
        "blaschke.projection-idempotent-contractive",
        passed,
        f"max fix gap {worst_fix:.3e}, max norm excess {worst_contract:.3e}",
    )


def _check_projection_trace(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(10):
        sig = _random_sigma(rng, max_n=6)
        basis = malmquist_basis_auto(sig)
        f = _random_series(rng, 40)
        resid = add(f, scale(model_projection(f, basis), -1.0))
        for lam in set(sig.points):
            worst = max(worst, abs(evaluate(resid, lam)))
    return CheckResult(
        "blaschke.projection-trace", worst <= 1e-10, f"max point residue {worst:.3e}"
    )


def _check_multiplicity_recentering(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for lam, m in ((0.4, 2), (-0.2 + 0.3j, 3)):
        sig = PoleConfiguration((lam,) * m + (0.1 - 0.5j,))
        basis = malmquist_basis_auto(sig)
        f = _random_series(rng, 30)
        resid = add(f, scale(model_projection(f, basis), -1.0))
        recentered = compose_with_blaschke_factor(
            resid, lam, policy_truncation(resid.trunc_len, abs(lam))
        )
        worst = max(worst, float(np.max(np.abs(recentered.coeffs[:m]))))
    return CheckResult(
        "blaschke.multiplicity-recentering", worst <= 1e-8, f"max low coefficient {worst:.3e}"
    )


def _check_rotation_covariance(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    sig = _random_sigma(rng, max_n=5, max_r=0.7)
    theta = 0.7
    rot = sig.rotated(theta)
    E0 = malmquist_basis_auto(sig).matrix
    E1 = malmquist_basis_auto(rot).matrix
    L = min(E0.shape[0], E1.shape[0])
    for e0, e1 in zip(E0[:L].T, E1[:L].T):
        twisted = e0 * np.exp(-1j * theta * np.arange(L))
        idx = int(np.argmax(np.abs(twisted)))
        phase = e1[idx] / twisted[idx]
        worst = max(worst, float(np.max(np.abs(e1 - phase * twisted))))
        worst = max(worst, abs(abs(phase) - 1.0))
    return CheckResult(
        "blaschke.rotation-covariance", worst <= 1e-9, f"max phase-matched gap {worst:.3e}"
    )


def _check_rayleigh(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    for _i in range(5):
        d = int(rng.integers(2, 13))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = HermitianMatrix((B + B.conj().T) / 2.0)
        pair = max_eigenpair(M)
        for _j in range(200):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            worst = max(worst, float(np.real(np.vdot(v, M.entries @ v))) - pair.value)
    return CheckResult(
        "hermitian.rayleigh-domination", worst <= 1e-10, f"max Rayleigh excess {worst:.3e}"
    )


def _check_congruence(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(5):
        d = int(rng.integers(2, 9))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = (B + B.conj().T) / 2.0
        T = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        S = T.conj().T @ T + np.eye(d)
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + 3.0 * np.eye(d)
        base = max_generalized_eigenpair(HermitianMatrix(M), HermitianMatrix(S)).value
        cong = max_generalized_eigenpair(
            HermitianMatrix(X.conj().T @ M @ X), HermitianMatrix(X.conj().T @ S @ X)
        ).value
        worst = max(worst, abs(base - cong) / max(abs(base), 1e-300))
    return CheckResult(
        "hermitian.congruence-invariance", worst <= 1e-8, f"max relative drift {worst:.3e}"
    )


def _check_min_norm(rng: np.random.Generator, _: float) -> CheckResult:
    L = 12
    w = NormKind.DIRICHLET.weights(L)
    A = np.power([[0.3], [-0.4]], np.arange(L)).astype(np.complex128)
    targets = np.array([1.0 + 0.5j, -0.2 + 0.1j])
    g = min_norm_solve(w, A, targets)
    nrm = norm(TaylorSeries(g), NormKind.DIRICHLET)
    feas = float(np.max(np.abs(A @ g - targets)))
    worst_excess = 0.0
    _u, _s, vh = np.linalg.svd(A)
    null = vh[2:].conj().T  # basis of the constraint kernel
    for _i in range(100):
        pert = null @ (rng.normal(size=L - 2) + 1j * rng.normal(size=L - 2))
        comp = g + 0.1 * pert
        comp_norm = norm(TaylorSeries(comp), NormKind.DIRICHLET)
        worst_excess = max(worst_excess, nrm - comp_norm)
    passed = feas <= 1e-10 and worst_excess <= 1e-12
    return CheckResult(
        "hermitian.min-norm-optimality",
        passed,
        f"feasibility {feas:.3e}, max competitor shortfall {worst_excess:.3e}",
    )


def _check_quadrature_agreement(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(100):
        deg = int(rng.integers(0, 65))
        f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        q = DiscQuadrature.for_degree(deg)
        bq = bergman_norm_quadrature(f, q)
        bc = norm_sq(f, NormKind.BERGMAN)
        hq = hardy_norm_circle(f, 2 * deg + 2)
        hc = norm_sq(f, NormKind.HARDY)
        worst = max(worst, abs(bq - bc) / bc, abs(hq - hc) / hc)
    return CheckResult(
        "quadrature.coefficient-agreement", worst <= 1e-12, f"max relative gap {worst:.3e}"
    )


def _check_quadrature_aliasing(rng: np.random.Generator, _: float) -> CheckResult:
    f = polynomial([1.0] + [0.0] * 15 + [1.0])
    exact = hardy_norm_circle(f, 34)
    aliased = hardy_norm_circle(f, 16, allow_inexact=True)
    gap = abs(exact - aliased)
    return CheckResult(
        "quadrature.aliasing-control", gap > 1e-6, f"witness gap {gap:.3e}"
    )


def _check_bernstein_hand_values(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    cases = [
        (PoleConfiguration((0.0, 0.0)), 1.0),
        (PoleConfiguration((0.0, 0.0, 0.0)), math.sqrt(2.0)),
        (PoleConfiguration((0.5, 0.5)), math.sqrt((7.0 + math.sqrt(41.0)) / 6.0)),
    ]
    for sig, expect in cases:
        got = bn.bernstein_constant_sigma(sig, NormKind.BERGMAN).constant
        worst = max(worst, abs(got - expect))
    return CheckResult(
        "bernstein.hand-values", worst <= 1e-9, f"max deviation {worst:.3e}"
    )


def _check_bernstein_homogeneity(rng: np.random.Generator, _: float) -> CheckResult:
    sig = _random_sigma(rng, max_n=5, max_r=0.6)
    basis = malmquist_basis_auto(sig)
    E = basis.matrix
    w = np.arange(basis.trunc_len, dtype=np.float64)
    c = complex(rng.normal(), rng.normal())
    base = math.sqrt(max(max_eigenpair(gram_matrix(E, w)).value, 0.0))
    scaled = math.sqrt(max(max_eigenpair(gram_matrix(c * E, w)).value, 0.0))
    gap = abs(scaled - abs(c) * base) / max(abs(c) * base, 1e-300)
    return CheckResult(
        "bernstein.norm-homogeneity", gap <= 1e-12, f"relative gap {gap:.3e}"
    )


def _check_bernstein_rotation(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(3):
        sig = _random_sigma(rng, max_n=5, max_r=0.7)
        rot = sig.rotated(1.1)
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            a = bn.bernstein_constant_sigma(sig, target).constant
            b = bn.bernstein_constant_sigma(rot, target).constant
            worst = max(worst, abs(a - b) / max(a, 1e-300))
    return CheckResult(
        "bernstein.rotation-invariance", worst <= 1e-8, f"max relative drift {worst:.3e}"
    )


def _check_bernstein_nesting(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    for r in (0.0, 0.5):
        prev = 0.0
        for n in range(1, 9):
            c = bn.bernstein_constant_sigma(
                PoleConfiguration.one_point(n, r), NormKind.BERGMAN
            ).constant
            worst = max(worst, prev - c)
            prev = c
    return CheckResult(
        "bernstein.one-point-nesting", worst <= 1e-10, f"max monotonicity violation {worst:.3e}"
    )


def _check_bernstein_chain(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    for _i in range(8):
        sig = _random_sigma(rng, max_n=6)
        cb = bn.bernstein_constant_sigma(sig, NormKind.BERGMAN).constant
        ch = bn.bernstein_constant_sigma(sig, NormKind.HARDY).constant
        z2 = bn.z2_upper_hardy(sig.n, sig.radius)
        eq4 = bn.eq4_envelope(sig.n, sig.radius)
        worst = max(
            worst,
            cb - math.sqrt(ch),
            math.sqrt(ch) - math.sqrt(z2),
            cb - eq4.upper,
        )
    return CheckResult(
        "bernstein.upper-chain", worst <= 1e-9, f"max chain violation {worst:.3e}"
    )


def _check_bernstein_member_domination(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    sig = _random_sigma(rng, max_n=6)
    basis = malmquist_basis_auto(sig)
    for target in (NormKind.BERGMAN, NormKind.HARDY):
        c = bn.constant_from_basis(basis, target).constant
        for k in range(sig.n):
            worst = max(worst, norm(differentiate(basis.element(k)), target) - c)
    return CheckResult(
        "bernstein.member-domination", worst <= 1e-10, f"max member excess {worst:.3e}"
    )


def _check_bernstein_step2(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    ok = True
    for _i in range(10):
        n = int(rng.integers(2, 25))
        r = float(rng.uniform(0.0, 0.8))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        rep = bn.step2_expansion_check(n, r, a)
        ok = ok and rep.ok(1e-9)
        worst = max(worst, rep.gap17 / max(1.0, abs(rep.lhs17)), rep.identity_gap)
    return CheckResult(
        "bernstein.expansion-identity", ok, f"max gap {worst:.3e}"
    )


def _check_enprime_crosscheck(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for n in (2, 5, 8):
        for r in (0.0, 0.5):
            audit = bn.en_prime_bergman_audit(n, r)
            worst = max(
                worst,
                abs(audit.numeric_sq - audit.quadrature_sq) / max(audit.numeric_sq, 1e-300),
            )
    return CheckResult(
        "bernstein.derivative-norm-crosscheck", worst <= 1e-8, f"max relative gap {worst:.3e}"
    )


def _check_interp_hand_values(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for lam in (0.0, 0.5):
        res = ip.interp_exact(PoleConfiguration((lam,)))
        worst = max(worst, abs(res.exact - ip.single_point_closed_form(abs(lam))))
    res = ip.interp_exact(PoleConfiguration((0.0, 0.0)))
    worst = max(worst, abs(res.exact - math.sqrt(2.0)))
    worst = max(worst, abs(res.exact - res.upper_projection))
    return CheckResult(
        "interp.hand-values", worst <= 1e-9, f"max deviation {worst:.3e}"
    )


def _check_interp_bracket(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    for n in (2, 3, 4, 6):
        for r in (0.0, 0.5):
            res = ip.interp_exact(PoleConfiguration.one_point(n, r))
            bounds = ip.interp_lower_eq9(n, r)
            env = ip.theoremB_envelopes(n, r)
            worst = max(
                worst,
                bounds.eq9 - res.exact,
                bounds.eq10_left - res.exact,
                res.exact - res.upper_projection,
                res.upper_projection - env["eq10"].upper,
            )
    return CheckResult(
        "interp.bracketing", worst <= 1e-9, f"max bracket violation {worst:.3e}"
    )


def _check_interp_rotation(rng: np.random.Generator, _: float) -> CheckResult:
    sig = _random_sigma(rng, max_n=4, max_r=0.6)
    a = ip.interp_exact(sig).exact
    b = ip.interp_exact(sig.rotated(0.9)).exact
    gap = abs(a - b) / max(a, 1e-300)
    return CheckResult(
        "interp.rotation-invariance", gap <= 1e-8, f"relative drift {gap:.3e}"
    )


def _check_interp_witness(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    sig = _random_sigma(rng, max_n=5, max_r=0.7)
    res = ip.interp_exact(sig)
    for lam in set(sig.points):
        worst = max(
            worst, abs(evaluate(res.witness_f, lam) - evaluate(res.witness_g, lam))
        )
    fn = norm(res.witness_f, NormKind.HARDY)
    gn = norm(res.witness_g, NormKind.DIRICHLET)
    worst = max(worst, abs(fn - 1.0), abs(gn - res.exact * fn))
    return CheckResult(
        "interp.witness-coherence", worst <= 1e-8, f"max witness gap {worst:.3e}"
    )


def _check_interp_reduction(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    sig = _random_sigma(rng, max_n=4, max_r=0.6)
    res = ip.interp_exact(sig)
    basis = malmquist_basis_auto(sig)
    L = basis.trunc_len
    A = ip._constraint_rows(sig, L)
    w = NormKind.DIRICHLET.weights(L)
    fs = [_random_series(rng, 32) for _i in range(20)]
    G = min_norm_solve(w, A, np.column_stack([ip._apply_rows(A, f) for f in fs]))
    for f, g in zip(fs, G.T):
        nrm = norm(TaylorSeries(g), NormKind.DIRICHLET)
        worst = max(worst, nrm - res.exact * norm(f, NormKind.HARDY))
    return CheckResult(
        "interp.hardy-ball-domination", worst <= 1e-9, f"max excess over bound {worst:.3e}"
    )


def _check_interp_moebius(rng: np.random.Generator, _: float) -> CheckResult:
    worst = 0.0
    for _i in range(5):
        deg = int(rng.integers(1, 11))
        g = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        lam = 0.7 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        comp = compose_with_blaschke_factor(
            g, complex(lam), policy_truncation(deg + 1, abs(lam))
        )
        a = norm_sq(differentiate(g), NormKind.BERGMAN)
        b = norm_sq(differentiate(comp), NormKind.BERGMAN)
        worst = max(worst, abs(a - b) / max(a, 1e-300))
        rep = moebius_invariance_check(g, complex(lam))
        worst = max(worst, rep.relative_gap)
    return CheckResult(
        "interp.moebius-seminorm-invariance", worst <= 1e-8, f"max relative gap {worst:.3e}"
    )


def _check_interp_envelope_order(rng: np.random.Generator, _: float) -> CheckResult:
    worst = -math.inf
    for n in (2, 4, 8, 12):
        for r in (0.0, 0.3, 0.5, 0.7):
            upper8 = ip.interp_upper_projection(
                malmquist_basis_auto(PoleConfiguration.one_point(n, r))
            )
            env = ip.theoremB_envelopes(n, r)
            worst = max(worst, upper8 - env["eq10"].upper)
    return CheckResult(
        "interp.envelope-ordering", worst <= 1e-9, f"max ordering violation {worst:.3e}"
    )


_CHECKS: list[Callable[[np.random.Generator, float], CheckResult]] = [
    _check_norm_splitting,
    _check_norm_homogeneity,
    _check_kernel_tail,
    _check_composition_evaluation,
    _check_composition_involution,
    _check_orthonormality,
    _check_projection,
    _check_projection_trace,
    _check_multiplicity_recentering,
    _check_rotation_covariance,
    _check_rayleigh,
    _check_congruence,
    _check_min_norm,
    _check_quadrature_agreement,
    _check_quadrature_aliasing,
    _check_bernstein_hand_values,
    _check_bernstein_homogeneity,
    _check_bernstein_rotation,
    _check_bernstein_nesting,
    _check_bernstein_chain,
    _check_bernstein_member_domination,
    _check_bernstein_step2,
    _check_enprime_crosscheck,
    _check_interp_hand_values,
    _check_interp_bracket,
    _check_interp_rotation,
    _check_interp_witness,
    _check_interp_reduction,
    _check_interp_moebius,
    _check_interp_envelope_order,
]

CHECK_NAMES = [
    "series.norm-splitting",
    "series.norm-homogeneity",
    "series.kernel-tail-bound",
    "series.composition-evaluation",
    "series.composition-involution",
    "blaschke.orthonormality",
    "blaschke.projection-idempotent-contractive",
    "blaschke.projection-trace",
    "blaschke.multiplicity-recentering",
    "blaschke.rotation-covariance",
    "hermitian.rayleigh-domination",
    "hermitian.congruence-invariance",
    "hermitian.min-norm-optimality",
    "quadrature.coefficient-agreement",
    "quadrature.aliasing-control",
    "bernstein.hand-values",
    "bernstein.norm-homogeneity",
    "bernstein.rotation-invariance",
    "bernstein.one-point-nesting",
    "bernstein.upper-chain",
    "bernstein.member-domination",
    "bernstein.expansion-identity",
    "bernstein.derivative-norm-crosscheck",
    "interp.hand-values",
    "interp.bracketing",
    "interp.rotation-invariance",
    "interp.witness-coherence",
    "interp.hardy-ball-domination",
    "interp.moebius-seminorm-invariance",
    "interp.envelope-ordering",
]


def run_all(seed: int = 0, gram_perturbation: float = 0.0) -> list[CheckResult]:
    """Run every registered invariant check with a fresh seeded stream each."""
    results = []
    for i, fn in enumerate(_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        results.append(fn(rng, gram_perturbation))
    return results
