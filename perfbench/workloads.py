"""Input pools of the four benchmark workloads.

Each workload is a list of cells; a cell is one kind of command (for example
``bernstein`` at n = 24 on a one-point configuration) and holds VARIANTS
argv lists that differ only in jittered parameters.  A benchmark pass runs
one variant of every cell, so every pass has the same mix of costs and the
run-to-run spread comes from the program, not from the draw of inputs.

The pools are generated once from POOL_SEED by ``record.py``, which runs every
argv and stores it with its exit code and output rows in ``reference.json``.
Runs read their inputs from that file only.  Configurations are passed to the
CLI as explicit ``re,im;...`` points or ``one-point:`` specs, never as
``random:`` specs, so the program sees only the generated points.
"""

from __future__ import annotations

import cmath
import math
import random

POOL_SEED = 20110325
VARIANTS = 6

WORKLOADS = ("bern-solve", "bern-basis", "interp", "lab-sweep")


def _points(points: list[complex]) -> str:
    return ";".join(f"{p.real:.6g},{p.imag:.6g}" for p in points)


def _disc_point(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


def _bern_solve(rng: random.Random) -> list[list[list[str]]]:
    # N stays in the low hundreds, so the Jacobi eigensolve dominates.  Each
    # cell fixes n, the target and the largest modulus (which sets N), so
    # every variant of a cell costs alike.
    cells = []
    for k, n in enumerate(range(12, 41, 2)):
        r = 0.11 + 0.48 * k / 14
        for kind in range(2):
            target = ("bergman", "hardy")[(k + kind) % 2]
            variants = []
            for _ in range(VARIANTS):
                if kind == 0:
                    spec = f"one-point:n={n},r={round(r + rng.uniform(-0.01, 0.01), 4)}"
                else:
                    pts = [_disc_point(rng, 0.54, 0.56)] + [_disc_point(rng, 0.0, 0.5) for _ in range(n - 1)]
                    spec = _points(pts)
                variants.append(["bernstein", f"--sigma={spec}", "--target", target])
            cells.append(variants)
    return cells


def _bern_basis(rng: random.Random) -> list[list[list[str]]]:
    # r near 1 pushes the truncation N into the thousands while the Gram
    # stays at most 12 x 12; --target both builds the basis twice per sigma.
    # Scattered points keep their moduli within 0.03 of r: a point of modulus
    # 0.5 under N in the thousands runs its kernel series into subnormal
    # floats, and that slows a build 20-fold on its own.
    cells = []
    for r_top, sizes in ((0.95, 12), (0.96, 12), (0.97, 12), (0.98, 12), (0.99, 8)):
        for n in range(2, sizes + 1, 2):
            cells.append(
                [
                    ["bernstein", f"--sigma=one-point:n={n},r={round(r_top - rng.uniform(0.0, 0.0003), 5)}"]
                    for _ in range(VARIANTS)
                ]
            )
    for n, r_top in ((3, 0.99), (5, 0.98), (9, 0.97), (11, 0.98)):
        variants = []
        for _ in range(VARIANTS):
            r = r_top - rng.uniform(0.0, 0.0003)
            pts = [cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))]
            pts += [_disc_point(rng, r - 0.03, r) for _ in range(n - 1)]
            variants.append(["bernstein", "--sigma=" + _points(pts)])
        cells.append(variants)
    return cells


def _interp(rng: random.Random) -> list[list[list[str]]]:
    # Cells keep clear of the n where the min-norm route starts to refuse,
    # so every variant of a cell has the same outcome at the recorded commit.
    def one_point(n: int, lo: float, hi: float) -> list[list[str]]:
        return [
            ["interp", f"--sigma=one-point:n={n},r={round(rng.uniform(lo, hi), 4)}"]
            for _ in range(VARIANTS)
        ]

    cells = []
    for n in (2, 3, 4, 5, 6, 8, 10, 12):
        for mid in (0.34, 0.42, 0.5, 0.58, 0.66):
            cells.append(one_point(n, mid - 0.01, mid + 0.01))
    cells += [
        one_point(14, 0.45, 0.55),
        one_point(20, 0.62, 0.7),
        one_point(22, 0.62, 0.7),
        one_point(24, 0.55, 0.7),
        one_point(26, 0.55, 0.7),
        one_point(28, 0.5, 0.7),
    ]
    # Repeated points sit on the moduli 0.35, 0.5, 0.65 (to within 0.01), so
    # they stay distinct and each cell's largest modulus is fixed.
    for mults in ((1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 1, 2), (1, 2, 3), (2, 2, 2)):
        variants = []
        for _ in range(VARIANTS):
            centres = [_disc_point(rng, m - 0.01, m + 0.01) for m in (0.35, 0.5, 0.65)[: len(mults)]]
            pts = [p for p, m in zip(centres, mults) for _ in range(m)]
            variants.append(["interp", "--sigma=" + _points(pts)])
        cells.append(variants)
    # Inputs the recorded commit refuses; they stay so that fixing them shows.
    for argv in (
        ["interp", "--sigma=one-point:n=30,r=0.5"],
        ["interp", "--sigma=one-point:n=100,r=0.9"],
        ["interp", "--sigma=0.3,0;0.300000000001,0"],
    ):
        cells.append([argv] * VARIANTS)
    return cells


def _lab_sweep(rng: random.Random) -> list[list[list[str]]]:
    # Each cell fixes the command's shape (sizes, target, kind); variants only
    # jitter radii and points, so every variant of a cell costs alike.
    def jitter(r: float) -> str:
        return str(round(r + rng.uniform(-0.02, 0.02), 3))

    # verify's cost depends on its seed, and its runs set p90 here, so each
    # verify cell keeps one seed.
    cells = [[["verify", "--seed", str(seed)]] * VARIANTS for seed in range(4)]
    for ns, rs in (
        ((2, 5), (0.0, 0.5)), ((3, 6), (0.3, 0.7)), ((4, 8), (0.2, 0.6)), ((2, 10), (0.5, 0.8)),
        ((5, 7), (0.0, 0.3)), ((6, 9), (0.6, 0.8)), ((3, 4), (0.2, 0.5)), ((7, 10), (0.3, 0.6)),
    ):
        cells.append(
            [
                ["audit", "--n-list", ",".join(map(str, ns)), "--r-list", ",".join(jitter(r) if r else "0.0" for r in rs)]
                for _ in range(VARIANTS)
            ]
        )
    for ns, r, target in (
        ((2, 5, 9), 0.3, "bergman"), ((3, 6, 12), 0.5, "hardy"), ((4, 8, 16), 0.4, "bergman"),
        ((2, 3, 4), 0.7, "hardy"), ((5, 10, 15), 0.6, "bergman"), ((6, 7, 8), 0.25, "hardy"),
    ):
        cells.append(
            [
                ["asymptotics", "--r", jitter(r), "--n-list", ",".join(map(str, ns)), "--target", target]
                for _ in range(VARIANTS)
            ]
        )
    for i, n in enumerate((1, 2, 3, 4, 5, 6, 7, 8, 4, 8)):
        target = ("bergman", "hardy", "both")[i % 3]
        variants = []
        for _ in range(VARIANTS):
            r = 0.5 + 0.05 * (i % 5)
            if i % 2:
                spec = _points([_disc_point(rng, r - 0.01, r + 0.01)] + [_disc_point(rng, 0.0, r - 0.05) for _ in range(n - 1)])
            else:
                spec = f"one-point:n={n},r={jitter(r)}"
            variants.append(["bernstein", f"--sigma={spec}", "--target", target])
        cells.append(variants)
    return cells


_BUILDERS = {
    "bern-solve": _bern_solve,
    "bern-basis": _bern_basis,
    "interp": _interp,
    "lab-sweep": _lab_sweep,
}


def pools() -> dict[str, list[list[list[str]]]]:
    """Every workload's cells, each a list of VARIANTS argv lists."""
    rng = random.Random(POOL_SEED)
    return {name: _BUILDERS[name](rng) for name in WORKLOADS}
