"""Deterministic invariant suite backing the ``verify`` subcommand.

Each check exercises one structural invariant of a module with seeded random
panels and fixed tolerances, and reports a stable one-line detail, so two
runs with the same seed produce byte-identical output.  The suite is meant
to be cheap enough to run routinely; the acceptance tests scale the same
properties up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bernstein as bn
from . import interpolation as ip
from .blaschke import (
    MalmquistBasis,
    PoleConfiguration,
    blaschke_factor_eval,
    malmquist_basis,
    model_projection,
)
from .errors import CertificationError
from .hermitian import gram_matrix, max_eigenpair, min_norm_solve
from .quadrature import (
    bergman_norm_quadrature,
    hardy_norm_circle,
    moebius_invariance_check,
)
from .series import (
    NormKind,
    TaylorSeries,
    _compose_rows,
    _derivative,
    _norm_sq,
    cauchy_kernel_series,
    differentiate,
    evaluate,
    norm,
    policy_truncation,
    polynomial,
)

__all__ = ["CheckResult", "run_all", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Quoted so that importing this module does not load numpy.random.
_Check = Callable[["np.random.Generator"], tuple[bool, str]]

# Every check by its published name, in run order; each draws from its own
# stream seeded by (seed, position).
_CHECKS: dict[str, _Check] = {}


def _check(name: str) -> Callable[[_Check], _Check]:
    def register(check: _Check) -> _Check:
        _CHECKS[name] = check
        return check

    return register


def _random_coeffs(rng: np.random.Generator, max_len: int = 64) -> np.ndarray:
    L = int(rng.integers(1, max_len + 1))
    return rng.normal(size=L) + 1j * rng.normal(size=L)


def _random_series(rng: np.random.Generator, max_len: int = 64) -> TaylorSeries:
    return polynomial(_random_coeffs(rng, max_len))


def _padded(rows: list[np.ndarray]) -> np.ndarray:
    """Coefficient rows of varying length, zero-padded into one array; the
    zeros change no norm, derivative or composition of a row."""
    out = np.zeros((len(rows), max(r.size for r in rows)), dtype=np.complex128)
    for i, row in enumerate(rows):
        out[i, : row.size] = row
    return out


def _random_sigma(rng: np.random.Generator, max_n: int = 8, max_r: float = 0.8) -> PoleConfiguration:
    n = int(rng.integers(1, max_n + 1))
    rad = max_r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PoleConfiguration(tuple(complex(p) for p in rad * np.exp(1j * ang)))


@_check("series.norm-splitting")
def _check_norm_splitting(rng: np.random.Generator) -> tuple[bool, str]:
    F = _padded([_random_coeffs(rng) for _i in range(200)])
    total = _norm_sq(F, NormKind.DIRICHLET)
    split = _norm_sq(_derivative(F), NormKind.BERGMAN) + _norm_sq(F, NormKind.HARDY)
    worst = float(np.max(np.abs(total - split) / total))
    return worst <= 1e-12, f"max relative gap {worst:.3e}"


@_check("series.norm-homogeneity")
def _check_norm_homogeneity(rng: np.random.Generator) -> tuple[bool, str]:
    rows, c = [], np.empty(100, dtype=np.complex128)
    for i in range(100):
        rows.append(_random_coeffs(rng))
        c[i] = complex(rng.normal(), rng.normal())
    F = _padded(rows)
    worst = 0.0
    for kind in NormKind:
        a = np.sqrt(_norm_sq(F * c[:, None], kind))
        b = np.abs(c) * np.sqrt(_norm_sq(F, kind))
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(b, 1e-300))))
    return worst <= 1e-13, f"max relative gap {worst:.3e}"


@_check("series.kernel-tail-bound")
def _check_kernel_tail(rng: np.random.Generator) -> tuple[bool, str]:
    ok = True
    worst = 0.0
    for lam in (0.0, 0.3j, 0.5, -0.7, 0.8 * np.exp(1j * 0.9)):
        N = policy_truncation(1, abs(lam))
        short = cauchy_kernel_series(lam, N)
        long = cauchy_kernel_series(lam, 2 * N)
        gap = abs(norm(long, NormKind.HARDY) - norm(short, NormKind.HARDY))
        # The kernel's dropped tail has l2-mass |lam|^(N+1)/sqrt(1-|lam|^2).
        rho = abs(complex(lam))
        tail = rho ** (N + 1) / math.sqrt(1.0 - rho**2)
        ok = ok and gap <= tail + 1e-15
        worst = max(worst, gap)
    return ok, f"max doubling gap {worst:.3e}"


@_check("series.composition-evaluation")
def _check_composition_evaluation(rng: np.random.Generator) -> tuple[bool, str]:
    fs, lams, Ns, zs = [], [], [], []
    for _i in range(20):
        deg = int(rng.integers(0, 13))
        fs.append(polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
        lams.append(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7) * 0.5))
        Ns.append(policy_truncation(deg + 1, abs(lams[-1])))
        # Five points, each drawn as a radius, then an angle.
        u = rng.uniform(size=(5, 2))
        zs.append(0.9 * np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1])))
    comps = _compose_rows(_padded([f.coeffs for f in fs]), np.array(lams), max(Ns))
    worst = 0.0
    for f, lam, N, z, comp in zip(fs, lams, Ns, zs, comps):
        direct = evaluate(f, [blaschke_factor_eval(lam, p) for p in z])
        gap = np.abs(evaluate(TaylorSeries(comp[: N + 1]), z) - direct)
        worst = max(worst, float(np.max(gap)))
    return worst <= 1e-9, f"max pointwise gap {worst:.3e}"


@_check("series.composition-involution")
def _check_composition_involution(rng: np.random.Generator) -> tuple[bool, str]:
    lams = np.array([0.4, -0.3 + 0.2j])
    F = np.array([rng.normal(size=9) + 1j * rng.normal(size=9) for _lam in lams])
    Ns = [policy_truncation(9, abs(lam)) * 2 for lam in lams]
    # Each row composes on its own window of N+1 coefficients; composing
    # that back, coefficients 0..8 are the head of any window.
    there = _padded([row[: N + 1] for row, N in zip(_compose_rows(F, lams, max(Ns)), Ns)])
    back = _compose_rows(there, lams, 8)
    worst = float(np.max(np.abs(back - F)))
    return worst <= 1e-10, f"max coefficient gap {worst:.3e}"


@_check("blaschke.orthonormality")
def _check_orthonormality(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    sigmas = [_random_sigma(rng) for _ in range(10)]
    sigmas.append(PoleConfiguration.one_point(8, 0.8))
    for sig in sigmas:
        try:
            basis = malmquist_basis(sig)
        except CertificationError as exc:
            return False, str(exc)
        gram = basis.matrix.conj().T @ basis.matrix
        worst = max(worst, float(np.max(np.abs(gram - np.eye(sig.n)))))
    return worst <= 1e-10, f"max Gram defect {worst:.3e}"


@_check("blaschke.projection-idempotent-contractive")
def _check_projection(rng: np.random.Generator) -> tuple[bool, str]:
    worst_fix = worst_contract = 0.0
    for _i in range(10):
        sig = _random_sigma(rng, max_n=6)
        basis = malmquist_basis(sig)
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
    return passed, f"max fix gap {worst_fix:.3e}, max norm excess {worst_contract:.3e}"


def _projection_residual(f: TaylorSeries, basis: MalmquistBasis) -> TaylorSeries:
    """f - P f on the longer of the two windows."""
    pf = model_projection(f, basis).coeffs
    resid = np.zeros(max(f.trunc_len, pf.size), dtype=np.complex128)
    resid[: f.trunc_len] += f.coeffs
    resid[: pf.size] -= pf
    return polynomial(resid)


@_check("blaschke.projection-trace")
def _check_projection_trace(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _i in range(10):
        sig = _random_sigma(rng, max_n=6)
        basis = malmquist_basis(sig)
        f = _random_series(rng, 40)
        resid = _projection_residual(f, basis)
        worst = max(worst, float(np.max(np.abs(evaluate(resid, sig.points)))))
    return worst <= 1e-10, f"max point residue {worst:.3e}"


@_check("blaschke.multiplicity-recentering")
def _check_multiplicity_recentering(rng: np.random.Generator) -> tuple[bool, str]:
    lams, mults = np.array([0.4, -0.2 + 0.3j]), (2, 3)
    resids = []
    for lam, m in zip(lams, mults):
        sig = PoleConfiguration((complex(lam),) * m + (0.1 - 0.5j,))
        resids.append(_projection_residual(_random_series(rng, 30), malmquist_basis(sig)))
    # The low coefficients are the head of any window, so one serves both.
    recentered = _compose_rows(_padded([r.coeffs for r in resids]), lams, max(mults) - 1)
    worst = max(float(np.max(np.abs(row[:m]))) for row, m in zip(recentered, mults))
    return worst <= 1e-8, f"max low coefficient {worst:.3e}"


@_check("blaschke.rotation-covariance")
def _check_rotation_covariance(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    sig = _random_sigma(rng, max_n=5, max_r=0.7)
    theta = 0.7
    rot = sig.rotated(theta)
    E0 = malmquist_basis(sig).matrix
    E1 = malmquist_basis(rot).matrix
    L = min(E0.shape[0], E1.shape[0])
    for e0, e1 in zip(E0[:L].T, E1[:L].T):
        twisted = e0 * np.exp(-1j * theta * np.arange(L))
        idx = int(np.argmax(np.abs(twisted)))
        phase = e1[idx] / twisted[idx]
        worst = max(worst, float(np.max(np.abs(e1 - phase * twisted))))
        worst = max(worst, abs(float(abs(phase)) - 1.0))
    return worst <= 1e-9, f"max phase-matched gap {worst:.3e}"


@_check("hermitian.rayleigh-domination")
def _check_rayleigh(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    for _i in range(5):
        d = int(rng.integers(2, 13))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = (B + B.conj().T) / 2.0
        pair = max_eigenpair(M)
        # 200 vectors, each drawn as its real then its imaginary part.
        parts = rng.normal(size=(200, 2, d))
        V = parts[:, 0] + 1j * parts[:, 1]
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        rayleigh = np.real(np.sum(V.conj() * (V @ M.T), axis=1))
        worst = max(worst, float(np.max(rayleigh)) - pair.value)
    return worst <= 1e-10, f"max Rayleigh excess {worst:.3e}"


def _pencil_top(M: np.ndarray, S: np.ndarray) -> float:
    """Largest mu with M v = mu S v: the top eigenvalue of C^-1 M C^-* for
    S = C C^*, both symmetrized first since X^* M X is Hermitian to rounding."""
    M, S = (M + M.conj().T) / 2.0, (S + S.conj().T) / 2.0
    C = np.linalg.cholesky(S)
    reduced = np.linalg.solve(C, np.linalg.solve(C, M).conj().T).conj().T
    return max_eigenpair((reduced + reduced.conj().T) / 2.0).value


@_check("hermitian.congruence-invariance")
def _check_congruence(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _i in range(5):
        d = int(rng.integers(2, 9))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = (B + B.conj().T) / 2.0
        T = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        S = T.conj().T @ T + np.eye(d)
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + 3.0 * np.eye(d)
        base = _pencil_top(M, S)
        cong = _pencil_top(X.conj().T @ M @ X, X.conj().T @ S @ X)
        worst = max(worst, abs(base - cong) / max(abs(base), 1e-300))
    return worst <= 1e-8, f"max relative drift {worst:.3e}"


@_check("hermitian.min-norm-optimality")
def _check_min_norm(rng: np.random.Generator) -> tuple[bool, str]:
    L = 12
    w = NormKind.DIRICHLET.weights(L)
    A = np.power([[0.3], [-0.4]], np.arange(L)).astype(np.complex128)
    targets = np.array([1.0 + 0.5j, -0.2 + 0.1j])
    g = min_norm_solve(w, A, targets)
    nrm = norm(TaylorSeries(g), NormKind.DIRICHLET)
    feas = float(np.max(np.abs(A @ g - targets)))
    _u, _s, vh = np.linalg.svd(A)
    null = vh[2:].conj().T  # basis of the constraint kernel
    # 100 kernel directions, each drawn as its real then its imaginary part.
    parts = rng.normal(size=(100, 2, L - 2))
    comps = g + 0.1 * ((parts[:, 0] + 1j * parts[:, 1]) @ null.T)
    comp_norms = np.sqrt(_norm_sq(comps, NormKind.DIRICHLET))
    worst_excess = max(0.0, float(np.max(nrm - comp_norms)))
    passed = feas <= 1e-10 and worst_excess <= 1e-12
    return passed, f"feasibility {feas:.3e}, max competitor shortfall {worst_excess:.3e}"


@_check("quadrature.coefficient-agreement")
def _check_quadrature_agreement(rng: np.random.Generator) -> tuple[bool, str]:
    rows, quad = [], np.empty((100, 2))
    for i in range(100):
        deg = int(rng.integers(0, 65))
        rows.append(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        # The integral oracles take each draw at its own degree.
        f = polynomial(rows[-1])
        quad[i] = bergman_norm_quadrature(f), hardy_norm_circle(f, 2 * deg + 2)
    F = _padded(rows)
    coef = np.column_stack([_norm_sq(F, NormKind.BERGMAN), _norm_sq(F, NormKind.HARDY)])
    worst = float(np.max(np.abs(quad - coef) / coef))
    return worst <= 1e-12, f"max relative gap {worst:.3e}"


@_check("quadrature.aliasing-control")
def _check_quadrature_aliasing(rng: np.random.Generator) -> tuple[bool, str]:
    f = polynomial([1.0] + [0.0] * 15 + [1.0])
    exact = hardy_norm_circle(f, 34)
    aliased = hardy_norm_circle(f, 16, allow_inexact=True)
    gap = abs(exact - aliased)
    return gap > 1e-6, f"witness gap {gap:.3e}"


@_check("bernstein.hand-values")
def _check_bernstein_hand_values(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    cases = [
        (PoleConfiguration((0.0, 0.0)), 1.0),
        (PoleConfiguration((0.0, 0.0, 0.0)), math.sqrt(2.0)),
        (PoleConfiguration((0.5, 0.5)), math.sqrt((7.0 + math.sqrt(41.0)) / 6.0)),
    ]
    for sig, expect in cases:
        # Both routes: the banded one-point operator and the basis matrix E.
        space = ip.ModelSpace(sig)
        banded = space.bernstein(NormKind.BERGMAN).constant
        via_e = bn.constant_from_basis(space.basis, NormKind.BERGMAN).constant
        worst = max(worst, abs(banded - expect), abs(via_e - expect))
    return worst <= 1e-9, f"max deviation {worst:.3e}"


@_check("bernstein.norm-homogeneity")
def _check_bernstein_homogeneity(rng: np.random.Generator) -> tuple[bool, str]:
    sig = _random_sigma(rng, max_n=5, max_r=0.6)
    basis = malmquist_basis(sig)
    E = basis.matrix
    w = np.arange(basis.trunc_len, dtype=np.float64)
    c = complex(rng.normal(), rng.normal())
    base = math.sqrt(max(max_eigenpair(gram_matrix(E, w)).value, 0.0))
    scaled = math.sqrt(max(max_eigenpair(gram_matrix(c * E, w)).value, 0.0))
    gap = abs(scaled - abs(c) * base) / max(abs(c) * base, 1e-300)
    return gap <= 1e-12, f"relative gap {gap:.3e}"


@_check("bernstein.rotation-invariance")
def _check_bernstein_rotation(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _i in range(3):
        sig = _random_sigma(rng, max_n=5, max_r=0.7)
        space, rot = ip.ModelSpace(sig), ip.ModelSpace(sig.rotated(1.1))
        for target in (NormKind.BERGMAN, NormKind.HARDY):
            a = space.bernstein(target).constant
            b = rot.bernstein(target).constant
            worst = max(worst, abs(a - b) / max(a, 1e-300))
    return worst <= 1e-8, f"max relative drift {worst:.3e}"


@_check("bernstein.one-point-nesting")
def _check_bernstein_nesting(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    for r in (0.0, 0.5):
        prev = 0.0
        for n in range(1, 9):
            sig = PoleConfiguration.one_point(n, r)
            c = ip.ModelSpace(sig).bernstein(NormKind.BERGMAN).constant
            worst = max(worst, prev - c)
            prev = c
    return worst <= 1e-10, f"max monotonicity violation {worst:.3e}"


@_check("bernstein.upper-chain")
def _check_bernstein_chain(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    for _i in range(8):
        sig = _random_sigma(rng, max_n=6)
        space = ip.ModelSpace(sig)
        cb = space.bernstein(NormKind.BERGMAN).constant
        ch = space.bernstein(NormKind.HARDY).constant
        z2 = bn.z2_upper_hardy(sig.n, sig.radius)
        eq4 = bn.eq4_envelope(sig.n, sig.radius)
        worst = max(
            worst,
            cb - math.sqrt(ch),
            math.sqrt(ch) - math.sqrt(z2),
            cb - eq4.upper,
        )
    return worst <= 1e-9, f"max chain violation {worst:.3e}"


@_check("bernstein.member-domination")
def _check_bernstein_member_domination(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    sig = _random_sigma(rng, max_n=6)
    basis = malmquist_basis(sig)
    for target in (NormKind.BERGMAN, NormKind.HARDY):
        c = bn.constant_from_basis(basis, target).constant
        for k in range(sig.n):
            worst = max(worst, norm(differentiate(basis.element(k)), target) - c)
    return worst <= 1e-10, f"max member excess {worst:.3e}"


@_check("bernstein.expansion-identity")
def _check_bernstein_step2(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    ok = True
    for _i in range(10):
        n = int(rng.integers(2, 25))
        r = float(rng.uniform(0.0, 0.8))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        rep = bn.step2_expansion_check(n, r, a)
        ok = ok and rep.ok()
        worst = max(worst, rep.gap17 / max(1.0, abs(rep.lhs17)), rep.identity_gap)
    return ok, f"max gap {worst:.3e}"


@_check("bernstein.derivative-norm-crosscheck")
def _check_enprime_crosscheck(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for n in (2, 5, 8):
        for r in (0.0, 0.5):
            audit = bn.en_prime_bergman_audit(n, r)
            worst = max(
                worst,
                abs(audit.numeric_sq - audit.quadrature_sq) / max(audit.numeric_sq, 1e-300),
            )
    return worst <= 1e-8, f"max relative gap {worst:.3e}"


@_check("interp.hand-values")
def _check_interp_hand_values(rng: np.random.Generator) -> tuple[bool, str]:
    # Both routes: the banded one-point operator and the Malmquist basis with
    # its min-norm solve.  The origin pair attains its projection bound.
    worst = 0.0
    for points, expect in (
        ((0.0,), ip.single_point_closed_form(0.0)),
        ((0.5,), ip.single_point_closed_form(0.5)),
        ((0.0, 0.0), math.sqrt(2.0)),
    ):
        space = ip.ModelSpace(PoleConfiguration(points))
        for res in (space.interp(), ip.interp_from_basis(space.basis)):
            worst = max(worst, abs(res.exact - expect))
            if space.sigma.n == 2:
                worst = max(worst, abs(res.exact - res.upper_projection))
    return worst <= 1e-9, f"max deviation {worst:.3e}"


@_check("interp.bracketing")
def _check_interp_bracket(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    for n in (2, 3, 4, 6):
        for r in (0.0, 0.5):
            res = ip.ModelSpace(PoleConfiguration.one_point(n, r)).interp()
            eq10 = ip.theoremB_envelopes(n, r)["eq10"]
            worst = max(
                worst,
                ip.interp_lower_eq9(n, r) - res.exact,
                eq10.lower - res.exact,
                res.exact - res.upper_projection,
                res.upper_projection - eq10.upper,
            )
    return worst <= 1e-9, f"max bracket violation {worst:.3e}"


@_check("interp.rotation-invariance")
def _check_interp_rotation(rng: np.random.Generator) -> tuple[bool, str]:
    sig = _random_sigma(rng, max_n=4, max_r=0.6)
    a = ip.ModelSpace(sig).interp().exact
    b = ip.ModelSpace(sig.rotated(0.9)).interp().exact
    gap = abs(a - b) / max(a, 1e-300)
    return gap <= 1e-8, f"relative drift {gap:.3e}"


@_check("interp.witness-coherence")
def _check_interp_witness(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    sig = _random_sigma(rng, max_n=5, max_r=0.7)
    # The basis route carries witnesses, also for one-point draws.
    res = ip.interp_from_basis(malmquist_basis(sig))
    gaps = evaluate(res.witness_f, sig.points) - evaluate(res.witness_g, sig.points)
    worst = float(np.max(np.abs(gaps)))
    fn = norm(res.witness_f, NormKind.HARDY)
    gn = norm(res.witness_g, NormKind.DIRICHLET)
    worst = max(worst, abs(fn - 1.0), abs(gn - res.exact * fn))
    return worst <= 1e-8, f"max witness gap {worst:.3e}"


@_check("interp.hardy-ball-domination")
def _check_interp_reduction(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    sig = _random_sigma(rng, max_n=4, max_r=0.6)
    space = ip.ModelSpace(sig)
    res = space.interp()
    L = space.basis.trunc_len
    A = ip._constraint_rows(sig, L)
    w = NormKind.DIRICHLET.weights(L)
    fs = [_random_series(rng, 32) for _i in range(20)]
    G = min_norm_solve(w, A, np.column_stack([ip._apply_rows(A, f) for f in fs]))
    for f, g in zip(fs, G.T):
        nrm = norm(TaylorSeries(g), NormKind.DIRICHLET)
        worst = max(worst, nrm - res.exact * norm(f, NormKind.HARDY))
    return worst <= 1e-9, f"max excess over bound {worst:.3e}"


@_check("interp.moebius-seminorm-invariance")
def _check_interp_moebius(rng: np.random.Generator) -> tuple[bool, str]:
    gs, lams, Ns = [], [], []
    for _i in range(5):
        deg = int(rng.integers(1, 11))
        gs.append(polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
        lams.append(complex(0.7 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        Ns.append(policy_truncation(deg + 1, abs(lams[-1])))
    G = _padded([g.coeffs for g in gs])
    comps = _compose_rows(G, np.array(lams), max(Ns))
    a = _norm_sq(_derivative(G), NormKind.BERGMAN)
    b = _norm_sq(_derivative(_padded([row[: N + 1] for row, N in zip(comps, Ns)])), NormKind.BERGMAN)
    worst = float(np.max(np.abs(a - b) / np.maximum(a, 1e-300)))
    for g, lam in zip(gs, lams):
        worst = max(worst, moebius_invariance_check(g, lam).relative_gap)
    return worst <= 1e-8, f"max relative gap {worst:.3e}"


@_check("interp.envelope-ordering")
def _check_interp_envelope_order(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    for n in (2, 4, 8, 12):
        for r in (0.0, 0.3, 0.5, 0.7):
            basis = malmquist_basis(PoleConfiguration.one_point(n, r))
            upper8 = math.hypot(bn.constant_from_basis(basis, NormKind.BERGMAN).constant, 1.0)
            env = ip.theoremB_envelopes(n, r)
            worst = max(worst, upper8 - env["eq10"].upper)
    return worst <= 1e-9, f"max ordering violation {worst:.3e}"


CHECK_NAMES = list(_CHECKS)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every registered invariant check with a fresh seeded stream each."""
    results = []
    for i, (name, check) in enumerate(_CHECKS.items()):
        passed, detail = check(np.random.default_rng(np.random.SeedSequence([seed, i])))
        results.append(CheckResult(name, bool(passed), detail))
    return results
