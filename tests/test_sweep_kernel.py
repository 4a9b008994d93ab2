"""The batched sweep kernel against the per-point public pipeline.

The sweep evaluates its grid in chunks of ``sweep._CHUNK`` points.  These
tests run grids that span several chunks, evenly and unevenly, and compare
every row with ``boost_two_particle`` followed by the per-point measures.
Within a chunk each row takes the quadratic-form route or, where the boost
cancels the state (large ``kappa``), the amplitude route; the route tests
mix both in one chunk.
"""

import math
import tracemalloc

import numpy as np
import pytest

from diracboost import kernel, sweep
from diracboost.kinematics import E_Z, BoostSpec
from diracboost.measures import (
    bloch_vector,
    global_entanglement,
    negativity,
    single_qubit_reductions,
    spin_spin_reduced,
)
from diracboost.states import assemble_state_vector, boost_two_particle, make_psi1
from diracboost.sweep import (
    GridSpec,
    SweepConfig,
    SweepError,
    run_sweep,
    scenario_density,
    scenario_vector,
)

ALL_MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity", "bloch")
TOL = 1e-12


def _reference_row(rho0, omega, theta):
    boosted, nu = boost_two_particle(rho0, BoostSpec.from_polar_angle(omega, theta))
    values = {
        "eg": global_entanglement(boosted),
        "negativity": negativity(spin_spin_reduced(boosted)),
    }
    for tag, rho in single_qubit_reductions(boosted).items():
        b = bloch_vector(rho)
        for axis in "xyz":
            values[f"bloch_{tag.lower()}_{axis}"] = getattr(b, axis)
    return values, nu


@pytest.mark.parametrize(
    "scenario,omega_steps,theta_steps,whole_chunks",
    [
        ("psi3", 32, 16, True),  # exactly two chunks
        ("psi2", 39, 7, False),  # one full chunk and a partial one
    ],
)
def test_chunked_sweep_matches_per_point_pipeline(
    scenario, omega_steps, theta_steps, whole_chunks
):
    points = omega_steps * theta_steps
    assert points > sweep._CHUNK
    assert (points % sweep._CHUNK == 0) == whole_chunks
    cfg = SweepConfig(
        scenario=scenario,
        omega0=1.3,
        omega_grid=GridSpec(0.0, 4.0, omega_steps),
        theta_grid=GridSpec(0.0, math.pi, theta_steps),
        measures=ALL_MEASURES,
    )
    rho0 = scenario_density(cfg)
    eg0, neg0 = global_entanglement(rho0), negativity(spin_spin_reduced(rho0))
    rows = run_sweep(cfg)
    assert len(rows) == points
    for row in rows:
        want, nu = _reference_row(rho0, row.omega, row.theta)
        want["delta_eg"] = want["eg"] - eg0
        want["delta_negativity"] = want["negativity"] - neg0
        assert abs(row.nu - nu) <= TOL * max(1.0, nu)
        for name, value in row.values.items():
            assert abs(value - want[name]) <= TOL, (row.omega, row.theta, name)


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
    assert block.shape == (sweep._CHUNK, len(columns))
    assert peak < 4 * 2**20, peak


def test_rest_rows_are_exact_in_every_chunk():
    cfg = SweepConfig(
        scenario="chiral-psi2",
        chiral_labels=(0, 1),
        omega_grid=GridSpec(-1.0, 1.0, 41),
        theta_grid=GridSpec(0.0, math.pi, 13),
    )
    rows = run_sweep(cfg)
    rest = [r for r in rows if r.omega == 0.0]
    assert len(rest) == 13
    assert rows.index(rest[0]) >= sweep._CHUNK
    for row in rest:
        assert row.nu == 1.0
        assert row.values["delta_eg"] == 0.0
        assert row.values["delta_negativity"] == 0.0


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
        scenario="psi2",
        omega_grid=GridSpec(0.0, 1.0, 3),
        theta_grid=GridSpec(0.25, 0.25, 1),
    )
    with pytest.raises(SweepError, match=r"omega=0\.5, theta=0\.25.*did not converge"):
        run_sweep(cfg)


# --------------------------------------------------------------------------
# quadratic and amplitude routes
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scenario,labels", [("psi1", None), ("chiral-psi3", (0, 0))])
def test_one_chunk_mixes_both_routes_in_row_order(scenario, labels):
    cfg = SweepConfig(scenario=scenario, omega0=1.0, chiral_labels=labels)
    psi, rho0 = scenario_vector(cfg).reshape(4, 4), scenario_density(cfg)
    omegas = np.repeat(np.linspace(0.0, 6.0, 13), 4)
    thetas = np.tile([0.0, 0.6, 0.0, 2.2], 13)
    n = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    nu, eg, neg, bloch = sweep._measure_chunk(psi, omegas, thetas, n)

    # kappa = (sum_j |a_j| |B_j|_F)^2 / nu straddles the limit, so both routes run
    c, s = np.cosh(omegas / 2.0)[:, None], np.sinh(omegas / 2.0)[:, None]
    k, l = np.triu_indices(3)
    a = np.concatenate([c * c, -c * s * n, s * s * n[:, k] * n[:, l]], axis=1)
    _, norms, _ = kernel._state_tables(psi.tobytes())
    references = [_reference_row(rho0, w, th) for w, th in zip(omegas, thetas)]
    kappa = (np.abs(a) @ norms) ** 2 / np.array([ref_nu for _, ref_nu in references])
    assert (kappa > kernel._KAPPA_LIMIT).any()
    assert (kappa[omegas > 0.0] <= kernel._KAPPA_LIMIT).any()

    bloch_names = [f"bloch_{tag}_{axis}" for tag in ("pa", "sa", "pb", "sb") for axis in "xyz"]
    for p, (want, ref_nu) in enumerate(references):
        assert abs(nu[p] - ref_nu) <= TOL * max(1.0, ref_nu)
        assert abs(eg[p] - want["eg"]) <= TOL, (omegas[p], thetas[p])
        assert abs(neg[p] - want["negativity"]) <= TOL, (omegas[p], thetas[p])
        for name, value in zip(bloch_names, bloch[p].ravel()):
            assert abs(value - want[name]) <= TOL, (omegas[p], thetas[p], name)


def test_cancelling_parallel_boost_keeps_nu_at_large_rapidity():
    """psi1 boosted along its momenta keeps nu = 1 and E_G = 1/2 (check c03).

    The boost cancels the state here, so these rows need the amplitude route:
    the quadratic form alone, which loses about eps * kappa, misses the bound.
    """
    psi = assemble_state_vector(make_psi1(1.0)).reshape(4, 4)
    omegas = np.array([10.0, 15.0])
    nu, eg, _, _ = sweep._measure_chunk(psi, omegas, np.zeros(2), np.tile(E_Z, (2, 1)))
    assert np.all(np.abs(nu - 1.0) <= 1e-9), nu - 1.0
    assert np.all(np.abs(eg - 0.5) <= 1e-12), eg - 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [20.0, 36.0])
def test_cancelling_boost_past_the_precision_limit_raises(omega):
    """psi1 along its momenta loses eps * sqrt(kappa) of nu: 5.4e-8 at omega = 20.

    Without the limit the kernel printed nu = 0.78125 at omega = 36, where the exact value is 1.
    """
    cfg = SweepConfig(
        scenario="psi1", omega_grid=GridSpec(omega, omega, 1), theta_grid=GridSpec(0.0, 0.0, 1)
    )
    with pytest.raises(SweepError, match=rf"omega={omega:g}, theta=0\).*kappa = "):
        run_sweep(cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", ["psi1", "psi3"])
def test_overflow_names_its_point_on_either_route(scenario):
    cfg = SweepConfig(
        scenario=scenario,
        omega_grid=GridSpec(0.0, 400.0, 3),
        theta_grid=GridSpec(0.0, 0.25, 2),
    )
    with pytest.raises(SweepError, match=r"omega=400, theta=0\).*nu = inf"):
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
        assert abs(row.values["bloch_pa_z"]) > 1e-3
        vanishing = {k: v for k, v in row.values.items() if k not in ("bloch_pa_z", "bloch_pb_z")}
        assert set(vanishing.values()) == {0.0}, (row.omega, row.theta, vanishing)


def test_rest_rows_take_the_quadratic_route_and_equal_the_origin_row():
    """At omega = 0 every direction gives a = (1, 0, ...): each row is the table's row for psi."""
    psi = scenario_vector(SweepConfig(scenario="psi3")).reshape(4, 4)
    thetas = np.linspace(0.0, math.pi, 7)
    n = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    rest = sweep._measure_chunk(psi, np.zeros(7), thetas, n)
    origin = sweep._measure_chunk(psi, np.zeros(1), np.zeros(1), E_Z[None, :])
    for got, want in zip(rest, origin):
        assert np.array_equal(got, np.repeat(want, 7, axis=0))
    bloch = rest[3].reshape(7, 12)
    vanishing = np.delete(bloch, [2, 8], axis=1)  # all but bloch_pa_z and bloch_pb_z
    assert np.all(np.abs(bloch[:, [2, 8]]) > 1e-3)
    assert set(vanishing.ravel().tolist()) == {0.0}


def _chunk_peak(psi, omega):
    thetas = np.linspace(0.0, math.pi, sweep._CHUNK)
    n = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    omegas = np.full(sweep._CHUNK, omega)
    sweep._measure_chunk(psi, omegas, thetas, n)  # builds and caches the state's tables
    tracemalloc.start()
    try:
        sweep._measure_chunk(psi, omegas, thetas, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rest_chunk_allocates_no_more_than_a_boosted_chunk():
    psi = scenario_vector(SweepConfig(scenario="psi2")).reshape(4, 4)
    rest, boosted = _chunk_peak(psi, 0.0), _chunk_peak(psi, 1.0)
    assert rest <= 1.5 * boosted, (rest, boosted)
