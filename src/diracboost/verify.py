"""Built-in verification suite: one check per acceptance criterion.

Each check computes a measured quantity with its expected value and
tolerance and reports pass/fail; the CLI `verify` subcommand and the
acceptance test module both consume :func:`run_verification`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .kernel import _boost_batch
from .kinematics import (
    GAMMA5,
    BoostSpec,
    FourMomentum,
    _polar_directions,
    bispinor_boost,
    bispinor_u,
    bispinor_v,
    boost_four_vector,
)
from .measures import (
    _analytic_bloch_batch,
    bloch_vector,
    global_entanglement,
)
from .states import (
    assemble_state_vector,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from .sweep import _BLOCH_COLUMNS, GridSpec, SweepConfig, _sweep_columns, scenario_vector
from .tensor import outer

GRID_OMEGAS = GridSpec(0.0, 5.0, 20)
GRID_THETAS = GridSpec(0.0, math.pi / 2.0, 10)
ALONG_Z = GridSpec(0.0, 0.0, 1)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    detail: str = ""
    #: Wall time of the check in seconds, filled in by :func:`run_verification`.
    seconds: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status} {self.check_id} {self.description}: "
            f"measured={self.measured:.6g} expected={self.expected:.6g} "
            f"tolerance={self.tolerance:.6g}"
        )
        if self.detail:
            text += f" [{self.detail}]"
        return text

    def to_dict(self) -> dict:
        return asdict(self)


def _within(check_id, description, measured, expected, tol, detail="") -> CheckResult:
    """A check that passes when ``|measured - expected| <= tol``."""
    passed = abs(measured - expected) <= tol
    return CheckResult(check_id, description, passed, measured, expected, tol, detail)


def _sweep_grid(scenario: str, omegas: GridSpec, thetas: GridSpec) -> dict[str, np.ndarray]:
    """The columns ``diracboost sweep`` writes for ``scenario`` at ``omega0 = 1``, by name and
    shaped (omega steps, theta steps); ``bloch`` holds the 12 Bloch columns as (points, 4, 3)."""
    cfg = SweepConfig(scenario, 1.0, omegas, thetas, ("eg", "delta_eg", "negativity", "bloch"))
    columns, blocks = _sweep_columns(cfg)
    table = np.concatenate(list(blocks)).reshape(omegas.steps, thetas.steps, -1)
    grid = dict(zip(columns, np.moveaxis(table, 2, 0)))
    grid["bloch"] = np.stack([grid[name] for name in _BLOCH_COLUMNS], -1).reshape(-1, 4, 3)
    return grid


def _check_psi1_rest_eg() -> CheckResult:
    measured = global_entanglement(assemble_state_vector(make_psi1(1.0)))
    return _within("c01", "unboosted opposite-helicity state has global entanglement 1/2",
                   measured, 0.5, 1e-10)


def _check_psi1_negativity_grid() -> CheckResult:
    neg = _sweep_grid("psi1", GRID_OMEGAS, GRID_THETAS)["negativity"]
    worst = float(np.max(np.abs(neg)))
    return _within("c02", "opposite-helicity state stays spin-spin separable in every frame",
                   worst, 0.0, 1e-10, "20x10 grid, omega in [0,5], theta in [0,pi/2]")


def _check_psi1_parallel_invariance() -> CheckResult:
    worst = float(np.max(np.abs(_sweep_grid("psi1", GRID_OMEGAS, ALONG_Z)["delta_eg"])))
    return _within("c03", "boosts parallel to the momenta leave global entanglement unchanged",
                   worst, 0.0, 1e-10, "theta=0, omega in [0,5]")


def _check_psi1_saturation() -> CheckResult:
    perpendicular = GridSpec(math.pi / 2.0, math.pi / 2.0, 1)
    measured = float(_sweep_grid("psi1", GridSpec(10.0, 10.0, 1), perpendicular)["eg"][0, 0])
    eg = _sweep_grid("psi1", GRID_OMEGAS, GRID_THETAS)["eg"]
    steps = np.diff(eg, axis=0)
    min_step = float(steps.min())
    monotone = bool(np.all(steps >= -1e-12))
    passed = measured > 0.99 and monotone
    return CheckResult(
        "c04",
        "perpendicular high-rapidity boost saturates global entanglement",
        passed,
        measured,
        0.99,
        0.0,
        f"threshold check (measured > expected); monotone nondecreasing in omega: "
        f"{monotone} (min grid step {min_step:.3g})",
    )


def _check_psi2_angle_independence() -> CheckResult:
    grid = _sweep_grid("psi2", GRID_OMEGAS, GridSpec(0.0, math.pi / 2.0, 5))
    # the step pi/8 is exact, so columns 0, 1, 2 and 4 are 0, pi/8, pi/4 and pi/2 bit for bit
    eg, neg = grid["eg"][:, [0, 1, 2, 4]], grid["negativity"][:, [0, 1, 2, 4]]
    spread_eg = float(np.max(np.ptp(eg, axis=1)))
    spread_neg = float(np.max(np.ptp(neg, axis=1)))
    return _within("c05", "equal-helicity-pair state measures are independent of the boost angle",
                   max(spread_eg, spread_neg), 0.0, 1e-10,
                   f"max spread over theta in {{0, pi/8, pi/4, pi/2}}: "
                   f"E_G {spread_eg:.3g}, negativity {spread_neg:.3g}")


def _check_psi2_degradation() -> CheckResult:
    expected = 1.0 / math.cosh(1.0) ** 2
    tol = 1e-9
    values = _sweep_grid("psi2", GridSpec(0.0, 10.0, 41), ALONG_Z)["negativity"][:, 0]
    measured = float(values[0])  # omega = 0: the unboosted state
    nonincreasing = bool(np.all(np.diff(values) <= 1e-12))
    tail = float(values[-1])
    passed = abs(measured - expected) <= tol and nonincreasing and tail < 0.01
    return CheckResult(
        "c06",
        "equal-helicity-pair negativity starts at sech^2(1) and degrades",
        passed,
        measured,
        expected,
        tol,
        f"nonincreasing over omega in [0,10]: {nonincreasing}; N(omega=10) = {tail:.3g}",
    )


def _check_psi3_extremum() -> CheckResult:
    grid = _sweep_grid("psi3", GridSpec(0.0, 3.0, 61), ALONG_Z)
    # plain floats, so that `passed` is a bool that `verify --json` can write
    omegas, egs, negs = (grid[name][:, 0].tolist() for name in ("omega", "eg", "negativity"))
    i_min = int(np.argmin(egs))
    i_rest = 20  # omega = 1.00 on the 0.05-spaced grid
    measured = egs[i_rest]
    expected, tol = 0.5, 1e-9
    neg_rest = negs[i_rest]
    local_max = negs[i_rest] > negs[i_rest - 1] and negs[i_rest] > negs[i_rest + 1]
    passed = (
        i_min == i_rest
        and abs(measured - expected) <= tol
        and abs(neg_rest - 1.0) <= tol
        and local_max
    )
    return CheckResult(
        "c07",
        "comoving state reaches its global-entanglement minimum in its rest frame",
        passed,
        measured,
        expected,
        tol,
        f"argmin at omega={omegas[i_min]:.2f}; N(rest)={neg_rest:.12g}, "
        f"negativity local max at rest: {local_max}",
    )


def _chiral_samples() -> list[tuple[float, float]]:
    """c08's 25 boosts ``(omega, theta)``, omega in [0, 5] and theta in [0, pi]."""
    rng = random.Random(20250821)
    return [(rng.uniform(0.0, 5.0), rng.uniform(0.0, math.pi)) for _ in range(25)]


def _chiral_distances() -> dict[str, float]:
    """c08's distance ``||psi' psi'^dag - psi psi^dag||_F`` per chiral projection of psi2 and psi3,
    the largest over its samples, each projection boosted along them in one batch."""
    omegas, thetas = np.array(_chiral_samples()).T
    distances = {}
    for name, terms in (("psi2", make_psi2(1.0)), ("psi3", make_psi3(1.0))):
        for f, g in ((0, 0), (0, 1), (1, 0), (1, 1)):
            psi = chiral_project_vector(terms, f, g)
            boosted, _ = _boost_batch(psi, omegas, _polar_directions(thetas))
            moved = boosted[:, :, None] * boosted[:, None, :].conj() - outer(psi)
            distances[f"{name} f={f} g={g}"] = float(np.max(np.linalg.norm(moved, axis=(1, 2))))
    return distances


def _check_chiral_invariance() -> CheckResult:
    d = _chiral_distances()
    return _within("c08", "chirality-projected states are unchanged by every boost",
                   max(d.values()), 0.0, 1e-12, "; ".join(f"{k}: {v:.3g}" for k, v in d.items()))


def _check_analytic_bloch() -> CheckResult:
    worst = 0.0
    for scenario in ("psi1", "psi2", "psi3", "chiral-psi2", "chiral-psi3"):
        grid = _sweep_grid(scenario, GRID_OMEGAS, GRID_THETAS)
        directions = _polar_directions(grid["theta"].ravel())
        psi = scenario_vector(SweepConfig(scenario, 1.0))
        bloch, nu = _analytic_bloch_batch(psi, grid["omega"].ravel(), directions)
        worst = max(worst, float(np.max(np.abs(grid["bloch"] - bloch))),
                    float(np.max(np.abs(grid["nu"].ravel() / nu - 1.0))))
    return _within("c09", "the textbook boost S Psi S^T gives the sweep's Bloch vectors and nu",
                   worst, 0.0, 1e-9, "psi1-3 and chiral-psi2/3 (0,0), 20x10 grid; nu relative")


# Samples come only from `random.Random.uniform`, whose sequence per seed Python keeps.
def _unit_vector(rng: random.Random) -> np.ndarray:
    """A direction uniform on the sphere: z uniform in [-1, 1], azimuth in [0, 2 pi]."""
    z, phi = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


def _random_momentum(rng: random.Random) -> FourMomentum:
    mass, rapidity = rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0)
    return FourMomentum.from_rapidity(mass, rapidity, _unit_vector(rng))


def _suite_orthonormality(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(50):
        p = _random_momentum(rng)
        minus_p = FourMomentum(p.mass, p.energy, -p.p3)
        # rows: u_1, u_2, v_1, v_2 at p and v_1, v_2 at -p; err[i, j] = |<row_i|row_j> - delta_ij|
        rows = np.array([make(q, s) for make, q in
                         ((bispinor_u, p), (bispinor_v, p), (bispinor_v, minus_p)) for s in (1, 2)])
        err = np.abs(rows.conj() @ rows.T - np.eye(6))
        pairs = rows[[0, 1, 4, 5]]  # u(p) and v(-p) complete the space
        completeness = np.abs(pairs.T @ pairs.conj() - np.eye(4)).max()
        worst = max(worst, err[:2, :2].max(), err[2:4, 2:4].max(), err[:2, 4:].max(), completeness)
    return float(worst)


def _suite_boost_algebra(rng: random.Random) -> float:
    worst = 0.0
    eye = np.eye(4)
    for _ in range(50):
        n = _unit_vector(rng)
        w1, w2 = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
        s1 = bispinor_boost(BoostSpec(w1, n))
        s1_inv = bispinor_boost(BoostSpec(-w1, n))
        s2 = bispinor_boost(BoostSpec(w2, n))
        s12 = bispinor_boost(BoostSpec(w1 + w2, n))
        worst = max(worst, float(np.max(np.abs(s1 @ s1_inv - eye))))
        worst = max(worst, float(np.max(np.abs(s1 @ s2 - s12))))
    return worst


def _suite_chiral_commutator(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(50):
        s = bispinor_boost(BoostSpec(rng.uniform(-3.0, 3.0), _unit_vector(rng)))
        worst = max(worst, float(np.max(np.abs(GAMMA5 @ s - s @ GAMMA5))))
    return worst


def _suite_minkowski(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(50):
        p = _random_momentum(rng)
        boosted = boost_four_vector(p, BoostSpec(rng.uniform(-3.0, 3.0), _unit_vector(rng)))
        worst = max(worst, abs(boosted.minkowski_norm_sq() - p.mass**2) / p.mass**2)
    return worst


def _suite_dual_path_eg(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(50):
        v = np.array([complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(16)])
        psi = v / np.linalg.norm(v)
        via_bloch = 1.0 - sum(r.norm_sq for r in bloch_vector(psi).values()) / 4.0
        worst = max(worst, abs(global_entanglement(psi) - via_bloch))
    return worst


def _check_algebraic_suites() -> CheckResult:
    rng = random.Random(20250822)
    suites = (
        ("orthonormality/completeness", _suite_orthonormality(rng), 1e-12),
        ("boost inverse/composition", _suite_boost_algebra(rng), 1e-12),
        ("chirality commutator", _suite_chiral_commutator(rng), 1e-14),
        ("Minkowski norm (relative)", _suite_minkowski(rng), 1e-10),
        ("dual-path global entanglement", _suite_dual_path_eg(rng), 1e-12),
    )
    detail = "; ".join(f"{name}: {err:.3g} (tol {tol:.0e})" for name, err, tol in suites)
    return _within("c10", "algebraic property suites (worst error as a fraction of its tolerance)",
                   max(err / tol for _, err, tol in suites), 0.0, 1.0, detail)


_CHECKS = (
    _check_psi1_rest_eg,
    _check_psi1_negativity_grid,
    _check_psi1_parallel_invariance,
    _check_psi1_saturation,
    _check_psi2_angle_independence,
    _check_psi2_degradation,
    _check_psi3_extremum,
    _check_chiral_invariance,
    _check_analytic_bloch,
    _check_algebraic_suites,
)


def run_verification() -> list[CheckResult]:
    """Run every acceptance check in order and return the results, each timed."""
    results = []
    for check in _CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
