"""The batched sweep kernel against the per-point public pipeline and a 60-digit reference.

The sweep evaluates its grid in chunks of ``kernel._CHUNK`` points.  These
tests run grids that span several chunks, evenly and unevenly, and at
negative rapidities, and compare every row with ``boost_two_particle``
followed by the per-point measures.  Both routes use the eigenbasis of the
boost generator, so boosts that cancel or nearly cancel the state are held,
on both, to the same float state boosted with mpmath at 60 digits, and the
chiral projections to the identities ``N nu = N(0)`` and ``E_G = N^2 / 2``.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from diracboost import kernel, kinematics, sweep
from diracboost.kinematics import BOOST_GENERATORS, E_Z, BoostSpec
from diracboost.measures import bloch_vector, global_entanglement, negativity
from diracboost.states import assemble_state_vector, boost_two_particle, make_psi1
from diracboost.tensor import PAULI_X, PAULI_Y, PAULI_Z
from diracboost.sweep import (
    GridSpec,
    SweepConfig,
    SweepError,
    run_sweep,
    scenario_vector,
)

ALL_MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity", "bloch")
LABELS = list(itertools.product((0, 1), repeat=2))
TOL = 1e-12


def _reference_row(psi0, omega, theta):
    boosted, nu = boost_two_particle(psi0, BoostSpec.from_polar_angle(omega, theta))
    values = {
        "eg": global_entanglement(boosted),
        "negativity": negativity(boosted),
    }
    for tag, b in bloch_vector(boosted).items():
        for axis in "xyz":
            values[f"bloch_{tag.lower()}_{axis}"] = getattr(b, axis)
    return values, nu


@pytest.mark.parametrize(
    "scenario,omega_min,omega_steps,theta_steps,whole_chunks",
    [
        pytest.param("psi3", 0.0, 32, 16, True, id="psi3-32-16-True"),  # exactly two chunks
        # one full chunk and a partial one
        pytest.param("psi2", 0.0, 39, 7, False, id="psi2-39-7-False"),
        # omega < 0 factors out the lowest block of the eigenbasis instead of the highest
        pytest.param("psi3", -4.0, 41, 9, False, id="psi3-negative-omega"),
    ],
)
def test_chunked_sweep_matches_per_point_pipeline(
    scenario, omega_min, omega_steps, theta_steps, whole_chunks
):
    points = omega_steps * theta_steps
    assert points > kernel._CHUNK
    assert (points % kernel._CHUNK == 0) == whole_chunks
    cfg = SweepConfig(
        scenario=scenario,
        omega0=1.3,
        omega_grid=GridSpec(omega_min, 4.0, omega_steps),
        theta_grid=GridSpec(0.0, math.pi, theta_steps),
        measures=ALL_MEASURES,
    )
    psi0 = scenario_vector(cfg)
    eg0, neg0 = global_entanglement(psi0), negativity(psi0)
    rows = run_sweep(cfg)
    assert len(rows) == points
    for row in rows:
        want, nu = _reference_row(psi0, row["omega"], row["theta"])
        want["delta_eg"] = want["eg"] - eg0
        want["delta_negativity"] = want["negativity"] - neg0
        assert abs(row["nu"] - nu) <= TOL * max(1.0, nu)
        for name, value in list(row.items())[2:-1]:
            assert abs(value - want[name]) <= TOL, (row["omega"], row["theta"], name)


def test_first_block_of_a_large_grid_builds_only_its_chunk():
    """Grid coordinates come from the flat index chunk by chunk, so memory stays flat."""
    cfg = SweepConfig(
        scenario="psi2",
        omega_grid=GridSpec(0.0, 5.0, 2000),
        theta_grid=GridSpec(0.0, math.pi, 2000),
    )
    tracemalloc.start()
    try:
        columns, blocks = sweep._sweep_columns(cfg)
        block = next(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (kernel._CHUNK, len(columns))
    assert peak < 4 * 2**20, peak


def test_a_sweep_holds_one_table_per_theta_step_and_one_chunk():
    """The tables are built once, into one array of 1160 bytes per theta step, never copied."""
    steps = 20_000
    cfg = SweepConfig(
        scenario="psi2",
        omega_grid=GridSpec(0.0, 1.0, 2),
        theta_grid=GridSpec(0.0, 3.0, steps),
    )
    tracemalloc.start()
    try:
        _, blocks = sweep._sweep_columns(cfg)
        for _ in blocks:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = (steps + 1) * 5 * 29 * 8
    grid = steps * 7 * 8  # the theta points, their directions and the copy behind E_Z's
    assert peak <= tables + grid + 2**20, peak - tables - grid  # one chunk's working set


@pytest.mark.parametrize(
    "cfg,built",
    [
        pytest.param(  # five chunks, one table per theta step and one for the rest frame
            SweepConfig(omega_grid=GridSpec(0.0, 4.0, 40), theta_grid=GridSpec(0.0, math.pi, 30)),
            31,
            id="theta-grid",
        ),
        pytest.param(  # three chunks along one fixed direction
            SweepConfig(
                scenario="custom",
                custom_terms=((1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1),),
                omega_grid=GridSpec(-3.0, 3.0, 600),
                theta_grid=GridSpec(0.0, 0.0, 1),
                boost_direction=(0.6, 0.0, 0.8),
            ),
            2,
            id="boost-dir",
        ),
    ],
)
def test_tables_are_built_once_per_sweep_never_per_chunk(monkeypatch, cfg, built):
    build, counts = kernel._direction_tables, []

    def counting(psi, directions):
        counts.append(len(directions))
        return build(psi, directions)

    monkeypatch.setattr(kernel, "_direction_tables", counting)
    points = cfg.omega_grid.steps * cfg.theta_grid.steps
    assert len(run_sweep(cfg)) == points > 2 * kernel._CHUNK
    assert sum(counts) == built, counts


def test_rest_rows_are_exact_in_every_chunk():
    cfg = SweepConfig(
        scenario="chiral-psi2",
        chiral_labels=(0, 1),
        omega_grid=GridSpec(-1.0, 1.0, 41),
        theta_grid=GridSpec(0.0, math.pi, 13),
    )
    rows = run_sweep(cfg)
    rest = [r for r in rows if r["omega"] == 0.0]
    assert len(rest) == 13
    assert rows.index(rest[0]) >= kernel._CHUNK
    for row in rest:
        assert row["nu"] == 1.0
        assert row["delta_eg"] == 0.0
        assert row["delta_negativity"] == 0.0


def test_eigensolver_failure_names_its_point(monkeypatch):
    solve = np.linalg.eigvalsh
    single_calls = []

    def flaky(a, *args, **kwargs):
        if a.ndim == 2:
            single_calls.append(a)
            if len(single_calls) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        elif len(a) > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    cfg = SweepConfig(
        scenario="psi1",  # psi2 and psi3 solve their two blocks in closed form, without eigvalsh
        omega_grid=GridSpec(0.0, 1.0, 3),
        theta_grid=GridSpec(0.25, 0.25, 1),
    )
    with pytest.raises(SweepError, match=r"omega=0\.5, theta=0\.25.*did not converge"):
        run_sweep(cfg)


# --------------------------------------------------------------------------
# the negativity's two routes: closed-form sigma_y (x) sigma_y blocks, or eigvalsh
# --------------------------------------------------------------------------

#: The spin blocks of sigma_y (x) sigma_y eigenvalue 1 (sigma_x, sigma_z) and -1 (I, i sigma_y).
EIGENBLOCKS = {1: (PAULI_X, PAULI_Z), -1: (np.eye(2), 1j * PAULI_Y)}


def _symmetric_state(rng, sign):
    """A drawn unit 4x4 ``Psi`` whose spin block ``Psi[pA, :, pB, :]`` has sigma_y (x) sigma_y
    eigenvalue ``sign (-1)^(pA + pB)``.  A boost in the x-z plane keeps that pattern, so every
    spin-spin matrix of the sweep commutes with sigma_y (x) sigma_y."""
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    for pa, pb in itertools.product((0, 1), repeat=2):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        basis = EIGENBLOCKS[sign * (-1) ** (pa + pb)]
        psi[pa, :, pb, :] = c[0] * basis[0] + c[1] * basis[1]
    return psi.reshape(4, 4) / np.linalg.norm(psi)


def _both_routes(psi, omegas, thetas):
    """``_measure_chunk`` on the split tables of ``psi``, and on the same tables with their 8
    off-block columns, all 0, put back, which takes the eigvalsh route."""
    tables = kernel._tables(psi, kinematics._polar_directions(thetas))
    assert tables.shape[2] == kernel._SPLIT
    full = np.concatenate([tables, np.zeros(tables.shape[:2] + (29 - kernel._SPLIT,))], axis=2)
    columns = np.arange(len(omegas)) % len(thetas)
    points = (omegas, thetas[columns], columns)
    return kernel._measure_chunk(tables, *points), kernel._measure_chunk(full, *points)


@pytest.mark.parametrize("seed", range(12))
def test_split_route_matches_eigvalsh_on_drawn_symmetric_states(seed):
    rng = np.random.default_rng(seed)
    psi = _symmetric_state(rng, rng.choice([-1, 1]))
    thetas = np.sort(rng.uniform(0.0, math.pi, 7))
    split, solved = _both_routes(psi, rng.uniform(-10.0, 10.0, 300), thetas)
    assert np.max(np.abs(split[2] - solved[2])) <= 1e-13
    for got, want in zip(split[:2] + split[3:], solved[:2] + solved[3:]):
        assert np.array_equal(got, want)  # only the spin-spin columns take another route


@pytest.mark.parametrize("scenario", ["psi2", "psi3"])
def test_split_route_matches_eigvalsh_on_the_paper_states(scenario):
    psi = scenario_vector(SweepConfig(scenario=scenario, omega0=1.3)).reshape(4, 4)
    omegas = np.repeat(np.linspace(0.0, 60.0, 61), 25)
    split, solved = _both_routes(psi, omegas, np.linspace(0.0, math.pi, 25))
    assert np.max(np.abs(split[2] - solved[2])) <= 1e-13


TERMS = ((1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1), (0.0, 0.5, 2, 1.3, -1, 1, 0.6, 1))
ROUTES = (
    # (scenario, chiral labels, custom terms, split on x-z directions, split on 3-D ones)
    [("psi1", None, (), False, False), ("psi2", None, (), True, False),
     ("psi3", None, (), True, False)]
    + [("chiral-psi2", labels, (), False, False) for labels in LABELS]
    # the chiral singlets are unchanged by every boost, so they split in every direction
    + [("chiral-psi3", labels, (), labels[0] == labels[1], labels[0] == labels[1])
       for labels in LABELS]
    + [("custom", None, TERMS, False, False)]
)


@pytest.mark.parametrize("scenario,labels,terms,on_plane,in_space", ROUTES)
def test_each_scenario_takes_its_measured_route(monkeypatch, scenario, labels, terms, on_plane,
                                                in_space):
    solve, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or solve(a))
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(6, 3))
    for omega0 in (0.3, 1.0, 2.0):
        cfg = SweepConfig(scenario=scenario, omega0=omega0, chiral_labels=labels,
                          custom_terms=terms, theta_grid=GridSpec(0.0, math.pi, 37),
                          omega_grid=GridSpec(0.0, 4.0, 9))
        calls.clear()
        run_sweep(cfg)
        assert (not calls) == on_plane, omega0
        psi = scenario_vector(cfg).reshape(4, 4)
        tables = kernel._tables(psi, directions / np.linalg.norm(directions, axis=1)[:, None])
        assert (tables.shape[2] == kernel._SPLIT) == in_space, omega0


# --------------------------------------------------------------------------
# boosts that cancel the state, and rapidity limits
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scenario,labels", [("psi1", None), ("chiral-psi3", (0, 0))])
def test_one_chunk_mixes_both_routes_in_row_order(scenario, labels):
    """Rows whose boost cancels the state (theta = 0) and rows whose boost does not, mixed."""
    cfg = SweepConfig(scenario=scenario, omega0=1.0, chiral_labels=labels)
    psi0 = scenario_vector(cfg)
    psi = psi0.reshape(4, 4)
    omegas = np.repeat(np.linspace(0.0, 6.0, 13), 4)
    thetas = np.tile([0.0, 0.6, 0.0, 2.2], 13)
    n = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    tables = kernel._tables(psi, n)
    nu, eg, neg, bloch = kernel._measure_chunk(tables, omegas, thetas, np.arange(len(n)))

    references = [_reference_row(psi0, w, th) for w, th in zip(omegas, thetas)]
    bloch_names = [f"bloch_{tag}_{axis}" for tag in ("pa", "sa", "pb", "sb") for axis in "xyz"]
    for p, (want, ref_nu) in enumerate(references):
        assert abs(nu[p] - ref_nu) <= TOL * max(1.0, ref_nu)
        assert abs(eg[p] - want["eg"]) <= TOL, (omegas[p], thetas[p])
        assert abs(neg[p] - want["negativity"]) <= TOL, (omegas[p], thetas[p])
        for name, value in zip(bloch_names, bloch[p].ravel()):
            assert abs(value - want[name]) <= TOL, (omegas[p], thetas[p], name)


def test_cancelling_parallel_boost_keeps_nu_at_large_rapidity():
    """psi1 boosted along its momenta keeps nu = 1 and E_G = 1/2 (check c03)."""
    psi = assemble_state_vector(make_psi1(1.0)).reshape(4, 4)
    omegas = np.array([10.0, 15.0])
    tables = kernel._tables(psi, E_Z[None, :])
    nu, eg, _, _ = kernel._measure_chunk(tables, omegas, np.zeros(2), np.zeros(2, int))
    assert np.all(np.abs(nu - 1.0) <= 1e-9), nu - 1.0
    assert np.all(np.abs(eg - 0.5) <= 1e-12), eg - 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [20.0, 36.0, 60.0, 1000.0])
def test_psi1_along_its_momenta_is_invariant_at_any_rapidity(omega):
    """psi1 boosted along its momenta keeps nu = 1 and E_G = 1/2 however far it is boosted.

    In the 4x4 basis its amplitudes grow like e^omega and cancel; in the generator's
    eigenbasis the state has weight only in the block the boost leaves alone.
    """
    cfg = SweepConfig(
        scenario="psi1",
        omega_grid=GridSpec(omega, omega, 1),
        theta_grid=GridSpec(0.0, 0.0, 1),
        measures=("eg", "delta_eg", "negativity"),
    )
    (row,) = run_sweep(cfg)
    assert abs(row["nu"] - 1.0) <= TOL
    assert abs(row["eg"] - 0.5) <= TOL
    assert abs(row["delta_eg"]) <= TOL


@pytest.mark.parametrize("omega", [100.0, 1000.0])
def test_chiral_singlet_is_invariant_at_any_rapidity(omega):
    """The spin singlet at fixed chirality is unchanged by every boost, in every direction."""
    cfg = SweepConfig(
        scenario="chiral-psi3",
        chiral_labels=(0, 0),
        omega_grid=GridSpec(omega, omega, 1),
        theta_grid=GridSpec(0.0, math.pi, 7),
        measures=("eg", "negativity", "bloch"),
    )
    for row in run_sweep(cfg):
        assert abs(row["nu"] - 1.0) <= TOL
        assert abs(row["negativity"] - 1.0) <= TOL
        assert abs(row["eg"] - 0.5) <= TOL


def test_chiral_singlet_negativity_never_exceeds_one_on_either_route():
    """The singlet's N rounds to 1 + 4.4e-16 at these points; every measure is snapped onto
    [0, 1] from within 1e-12, so both the sweep and the per-point functions give 1."""
    cfg = SweepConfig(
        scenario="chiral-psi3",
        chiral_labels=(0, 0),
        omega_grid=GridSpec(50.0, 100.0, 2),
        theta_grid=GridSpec(math.pi / 4, math.pi / 4, 1),
    )
    assert [row["negativity"] for row in run_sweep(cfg)] == [1.0, 1.0]
    psi = scenario_vector(cfg)
    for theta in (math.pi / 12, math.pi / 3, 11 * math.pi / 12):
        boosted, _ = boost_two_particle(psi, BoostSpec.from_polar_angle(10.0, theta))
        assert negativity(boosted) == 1.0


def test_clamp_snaps_only_rounding_residue_onto_the_unit_interval():
    values = np.array([-2e-12, -1e-13, 0.0, 0.3, 1.0, 1.0 + 4e-16, 1.0 + 2e-12, math.nan])
    expected = [-2e-12, 0.0, 0.0, 0.3, 1.0, 1.0, 1.0 + 2e-12, math.nan]
    np.testing.assert_array_equal(kernel._clamp_residue(values), expected)


@pytest.mark.parametrize("omega0", [0.3, 1.0, 2.0])
def test_psi2_along_its_momenta_follows_its_closed_forms(omega0):
    """psi2 at theta = 0: E_G = 1 - [sech^2(w0 - omega) + sech^2(w0 + omega)] / 4 and
    N = sech(w0 - omega) sech(w0 + omega), up to omega = 300."""
    cfg = SweepConfig(
        scenario="psi2",
        omega0=omega0,
        omega_grid=GridSpec(0.0, 300.0, 601),
        theta_grid=GridSpec(0.0, 0.0, 1),
        measures=("eg", "negativity"),
    )
    rows = run_sweep(cfg)
    omegas = np.array([row["omega"] for row in rows])
    minus, plus = 1.0 / np.cosh(omega0 - omegas), 1.0 / np.cosh(omega0 + omegas)
    eg = np.array([row["eg"] for row in rows])
    neg = np.array([row["negativity"] for row in rows])
    assert np.max(np.abs(eg - (1.0 - (minus**2 + plus**2) / 4.0))) <= TOL
    assert np.max(np.abs(neg - minus * plus)) <= TOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scenario,theta",
    # psi1 along its momenta is invariant, so its first row past the float range is off axis
    [pytest.param("psi1", "0.25", id="psi1"), pytest.param("psi3", "0", id="psi3")],
)
def test_overflow_names_its_point_on_either_route(scenario, theta):
    cfg = SweepConfig(
        scenario=scenario,
        omega_grid=GridSpec(0.0, 400.0, 3),
        theta_grid=GridSpec(0.0, 0.25, 2),
    )
    with pytest.raises(SweepError, match=rf"omega=400, theta={theta}\).*nu = inf"):
        run_sweep(cfg)


def test_components_that_vanish_by_symmetry_are_exact_zeros():
    """psi3 keeps only the parity z components; the quadratic route gives the rest as 0.0.

    Its table sets entries within their rounding error of 0 to exactly 0.
    """
    cfg = SweepConfig(
        scenario="psi3",
        omega_grid=GridSpec(0.5, 4.0, 8),
        theta_grid=GridSpec(0.0, math.pi, 9),
        measures=("bloch",),
    )
    for row in run_sweep(cfg):
        assert abs(row["bloch_pa_z"]) > 1e-3
        bloch = list(row.items())[2:-1]
        vanishing = {k: v for k, v in bloch if k not in ("bloch_pa_z", "bloch_pb_z")}
        assert set(vanishing.values()) == {0.0}, (row["omega"], row["theta"], vanishing)


def test_rest_rows_take_the_quadratic_route_and_equal_the_origin_row():
    """At omega = 0 every row reads the table of E_Z, so it equals the origin row bit for bit."""
    psi = scenario_vector(SweepConfig(scenario="psi3")).reshape(4, 4)
    thetas = np.linspace(0.0, math.pi, 7)
    n = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    rest = kernel._measure_chunk(kernel._tables(psi, n), np.zeros(7), thetas, np.arange(7))
    origin = kernel._measure_chunk(
        kernel._tables(psi, E_Z[None, :]), np.zeros(1), np.zeros(1), np.zeros(1, int)
    )
    for got, want in zip(rest, origin):
        assert np.array_equal(got, np.repeat(want, 7, axis=0))
    bloch = rest[3].reshape(7, 12)
    vanishing = np.delete(bloch, [2, 8], axis=1)  # all but bloch_pa_z and bloch_pb_z
    assert np.all(np.abs(bloch[:, [2, 8]]) > 1e-3)
    assert set(vanishing.ravel().tolist()) == {0.0}


def _chunk_peak(psi, omega):
    thetas = np.linspace(0.0, math.pi, kernel._CHUNK)
    n = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    omegas, columns = np.full(kernel._CHUNK, omega), np.arange(kernel._CHUNK)
    tables = kernel._tables(psi, n)  # built before the chunk, as the sweep builds them
    kernel._measure_chunk(tables, omegas, thetas, columns)
    tracemalloc.start()
    try:
        kernel._measure_chunk(tables, omegas, thetas, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rest_chunk_allocates_no_more_than_a_boosted_chunk():
    psi = scenario_vector(SweepConfig(scenario="psi2")).reshape(4, 4)
    rest, boosted = _chunk_peak(psi, 0.0), _chunk_peak(psi, 1.0)
    assert rest <= 1.5 * boosted, (rest, boosted)


# --------------------------------------------------------------------------
# a 60-digit reference, and the chiral projections' invariants
# --------------------------------------------------------------------------


def _reference_60_digits(mp, psi, omega, theta):
    """``(nu, eg, negativity, bloch)`` of the float state ``psi`` boosted at 60 digits."""
    with mp.workdps(60):
        state = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in psi])
        n = (mp.sin(theta), 0, mp.cos(theta))
        generators = [mp.matrix(g.tolist()) for g in BOOST_GENERATORS]
        generator = sum((n[k] * generators[k] for k in range(3)), mp.zeros(4))
        boost = mp.cosh(mp.mpf(omega) / 2) * mp.eye(4) - mp.sinh(mp.mpf(omega) / 2) * generator
        state = boost * state * boost.T
        nu = sum(abs(z) ** 2 for z in state)
        state = state / mp.sqrt(nu)
        bloch = []
        for slot in (state * state.H, state.T * state.conjugate()):  # rho_A, rho_B on 4 dims
            for parity in (True, False):
                r = [[sum(slot[2 * i + k, 2 * j + k] if parity else slot[2 * k + i, 2 * k + j]
                          for k in range(2)) for j in range(2)] for i in range(2)]
                bloch.append([2 * mp.re(r[0][1]), -2 * mp.im(r[0][1]), mp.re(r[0][0] - r[1][1])])
        eg = sum(1 - sum(x**2 for x in b) for b in bloch) / 4
        # spin-spin matrix transposed on SA: entry [(a', b), (a, b')] of rho_SS[(a, b), (a', b')]
        transposed = mp.matrix(4, 4)
        for a, b, a2, b2 in np.ndindex(2, 2, 2, 2):
            transposed[2 * a2 + b, 2 * a + b2] = sum(
                state[2 * p + a, 2 * q + b] * mp.conj(state[2 * p + a2, 2 * q + b2])
                for p in range(2) for q in range(2)
            )
        neg = sum(abs(e) for e in mp.eighe(transposed, eigvals_only=True)) - 1
        return float(nu), float(eg), float(neg), np.array(bloch, dtype=float)


REFERENCE_POINTS = (
    [("psi1", None, omega, theta) for theta in (0.0, 1e-12, 1e-8, 1e-4)
     for omega in (20.0, 36.0, 60.0)]
    + [("psi1", None, omega, 1e-8) for omega in (-20.0, -36.0)]
    + [("chiral-psi3", (0, 0), omega, theta) for theta in (0.0, 2 * math.pi / 3)
       for omega in (10.0, 20.0, 36.0, 60.0)]
)


def test_cancelling_and_near_collinear_boosts_match_a_60_digit_reference():
    """psi1 along or nearly along its momenta, and the chiral singlet, up to omega = 60, on the
    sweep kernel and on ``boost_two_particle`` followed by the per-point measures.

    The reference boosts the float state's 16 amplitudes exactly, so it shares the
    state's rounding: near-collinear rows (true E_G 0.99999989... at theta = 1e-12,
    omega = 36) test the kernel's arithmetic, not the state's.
    """
    mp = pytest.importorskip("mpmath")
    for scenario, labels, omega, theta in REFERENCE_POINTS:
        psi = scenario_vector(SweepConfig(scenario=scenario, chiral_labels=labels)).reshape(4, 4)
        n = np.array([[math.sin(theta), 0.0, math.cos(theta)]])
        got = kernel._measure_chunk(
            kernel._tables(psi, n), np.array([omega]), np.array([theta]), np.zeros(1, int)
        )
        nu, eg, neg, bloch = _reference_60_digits(mp, psi, omega, theta)
        point = (scenario, omega, theta)
        assert abs(got[0][0] - nu) <= TOL * nu, point
        assert abs(got[1][0] - eg) <= TOL, point
        assert abs(got[2][0] - neg) <= TOL, point
        assert np.max(np.abs(got[3][0] - bloch)) <= TOL, point
        # the per-point route, from the state vector
        boosted, per_point_nu = boost_two_particle(psi.ravel(), BoostSpec(omega, n[0]))
        assert abs(per_point_nu - nu) <= TOL * nu, point
        assert abs(global_entanglement(boosted) - eg) <= TOL, point
        assert abs(negativity(boosted) - neg) <= TOL, point


@pytest.mark.parametrize("omega0", [0.3, 1.0, 2.0])
def test_chiral_projections_keep_n_nu_and_eg_from_n(omega0):
    """For every chiral projection and boost, N nu = N(0) and E_G = N^2 / 2.

    A projection fixes both parity qubits, so its spin pair is pure with concurrence
    ``N = 2 |det Psi_fg| / nu``; ``det Psi_fg`` is Lorentz invariant, and each spin qubit
    has ``1 - |r|^2 = N^2``.  ``N`` has absolute resolution, so the first bound scales
    with ``nu``.
    """
    omega_points, theta_points = np.linspace(0.0, 60.0, 31), np.linspace(0.0, math.pi, 9)
    n = kinematics._polar_directions(theta_points)
    for scenario, labels in itertools.product(("chiral-psi2", "chiral-psi3"), LABELS):
        cfg = SweepConfig(scenario=scenario, omega0=omega0, chiral_labels=labels)
        psi = scenario_vector(cfg).reshape(4, 4)
        columns = ("nu", "eg", "negativity")
        nu, eg, neg = np.concatenate(
            list(kernel._measure_grid(psi, n, omega_points, theta_points, columns))
        ).T
        neg0 = neg[0]  # the first point is omega = 0
        assert np.all(np.abs(neg * nu - neg0) <= TOL * np.maximum(nu, 1.0)), (scenario, labels)
        assert np.all(np.abs(eg - neg**2 / 2.0) <= TOL), (scenario, labels)
