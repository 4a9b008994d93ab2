"""The batched sweep kernel against the per-point public pipeline.

The sweep evaluates its grid in chunks of ``sweep._CHUNK`` points.  These
tests run grids that span several chunks, evenly and unevenly, and compare
every row with ``boost_two_particle`` followed by the per-point measures.
"""

import math

import numpy as np
import pytest

from diracboost import sweep
from diracboost.kinematics import BoostSpec
from diracboost.measures import (
    bloch_vector,
    global_entanglement,
    negativity,
    single_qubit_reductions,
    spin_spin_reduced,
)
from diracboost.states import boost_two_particle
from diracboost.sweep import GridSpec, SweepConfig, SweepError, run_sweep, scenario_density

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
