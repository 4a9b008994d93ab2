"""Output checks for the benchmark workloads, against references the package does not share.

A sweep output passes when
  * it has one row per grid point, the expected columns in order, and the
    grid coordinates in row-major order;
  * every row's ``eg``, ``negativity``, Bloch columns and ``nu`` match a
    pure-state reference written here with numpy alone: the boost
    ``S = cosh(w/2) I - sinh(w/2) sigma_x (x) n.sigma`` is applied as
    ``kron(S, S) vec``, reduced, partially transposed and solved with
    ``eigvalsh``;
  * every ``delta_*`` equals the row's value minus the ``omega = 0`` row of
    the same theta;
  * on a seeded sample of rows, ``eg`` and the Bloch columns match the
    package's closed-form oracle ``analytic_boosted_bloch``, with
    ``eg = 1 - mean |a|^2`` (Meyer-Wallach / Brennen).

Every comparison uses an absolute tolerance of 1e-10 (relative for ``nu``,
which grows like ``e^(2w)``).  A check returns a list of failure messages;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

TOL = 1e-10
ANALYTIC_SAMPLE = 12
BLOCH_TAGS = ("pa", "sa", "pb", "sb")
#: Verification checks that fail by design (see the package README).
EXPECTED_VERIFY_FAILURES = ("c05", "c08")

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class SweepSpec:
    """What a sweep output must contain: scenario, grid and requested measures."""

    scenario: str
    omega0: float
    omega: tuple[float, float, int]
    theta: tuple[float, float, int]
    measures: tuple[str, ...]
    fmt: str

    def columns(self) -> list[str]:
        cols = ["omega", "theta"]
        for m in self.measures:
            if m == "bloch":
                cols += [f"bloch_{t}_{c}" for t in BLOCH_TAGS for c in "xyz"]
            else:
                cols.append(m)
        return cols + ["nu"]

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (omega outer, theta inner) coordinates of every row."""
        om = np.linspace(*self.omega)
        th = np.linspace(*self.theta)
        return np.repeat(om, th.size), np.tile(th, om.size)

    def cli_args(self) -> list[str]:
        return [
            "sweep",
            "--scenario", self.scenario,
            "--omega0", repr(self.omega0),
            "--omega", "{}:{}:{}".format(*map(repr, self.omega[:2]), self.omega[2]),
            "--theta", "{}:{}:{}".format(*map(repr, self.theta[:2]), self.theta[2]),
            "--measures", ",".join(self.measures),
            "--format", self.fmt,
        ]


def parse_output(data: bytes, fmt: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Columns (in order) and their values from emitted CSV or JSON bytes."""
    if fmt == "csv":
        lines = data.decode("ascii").splitlines()
        columns = lines[0].split(",")
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        table = table.reshape(len(lines) - 1, len(columns))
        return columns, {c: table[:, k] for k, c in enumerate(columns)}
    rows = json.loads(data)
    columns = list(rows[0]) if rows else []
    return columns, {c: np.array([r[c] for r in rows], dtype=float) for c in columns}


def _scenario_state(spec: SweepSpec):
    """psi2 or psi3: the closed-form oracle needs a single momentum per slot, which psi1 lacks."""
    from diracboost.states import make_psi2, make_psi3

    return {"psi2": make_psi2, "psi3": make_psi3}[spec.scenario](spec.omega0)


def pure_state_reference(psi: np.ndarray, omega: np.ndarray, theta: np.ndarray) -> dict:
    """eg, negativity, Bloch components and nu of ``kron(S,S) psi`` at each grid point."""
    n = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    n_sigma = np.einsum("pk,kij->pij", n, np.array(_SIGMA))
    gen = np.einsum("ab,pij->paibj", _SIGMA[0], n_sigma).reshape(-1, 4, 4)
    s = np.cosh(omega / 2)[:, None, None] * np.eye(4) - np.sinh(omega / 2)[:, None, None] * gen
    # kron(S, S) @ vec, written without materializing the 16x16 matrices
    boosted = np.einsum("pac,pbd,cd->pab", s, s, psi.reshape(4, 4))
    nu = np.sum(np.abs(boosted) ** 2, axis=(1, 2))
    amp = (boosted / np.sqrt(nu)[:, None, None]).reshape(-1, 2, 2, 2, 2)
    amp_c = amp.conj()
    ref = {"nu": nu}
    reductions = {
        "pa": np.einsum("pabcd,pebcd->pae", amp, amp_c),
        "sa": np.einsum("pabcd,paecd->pbe", amp, amp_c),
        "pb": np.einsum("pabcd,pabed->pce", amp, amp_c),
        "sb": np.einsum("pabcd,pabce->pde", amp, amp_c),
    }
    norm_sq = np.zeros_like(omega)
    for tag, rho in reductions.items():
        for c, sigma in zip("xyz", _SIGMA):
            a = np.real(np.einsum("ij,pji->p", sigma, rho))
            ref[f"bloch_{tag}_{c}"] = a
            norm_sq += a**2
    ref["eg"] = 1.0 - norm_sq / 4.0
    # spin-spin reduction rho[sA, sB; sA', sB'], transposed on SA
    rho_ss = np.einsum("pabcd,paecf->pbdef", amp, amp_c)
    rho_pt = rho_ss.transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)
    ref["negativity"] = np.sum(np.abs(np.linalg.eigvalsh(rho_pt)), axis=1) - 1.0
    return ref


def _worst(name: str, got: np.ndarray, want: np.ndarray, scale=None) -> list[str]:
    err = np.abs(got - want)
    if scale is not None:
        err = err / scale
    bad = np.flatnonzero(~(err <= TOL))
    if bad.size == 0:
        return []
    k = int(bad[np.argmax(err[bad])])
    return [f"{name}: {bad.size} row(s) off by more than {TOL:g}; worst row {k}: "
            f"got {got[k]!r}, reference {want[k]!r}"]


def check_sweep(data: bytes, spec: SweepSpec, rng: random.Random) -> list[str]:
    """Failure messages for one emitted sweep output (empty when correct)."""
    try:
        columns, col = parse_output(data, spec.fmt)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return [f"unparseable {spec.fmt} output: {exc}"]
    if columns != spec.columns():
        return [f"columns {columns} differ from expected {spec.columns()}"]
    omega, theta = spec.grid()
    if col["omega"].size != omega.size:
        return [f"expected {omega.size} rows, got {col['omega'].size}"]
    failures = _worst("omega", col["omega"], omega) + _worst("theta", col["theta"], theta)

    from diracboost.states import assemble_state_vector

    state = _scenario_state(spec)
    ref = pure_state_reference(assemble_state_vector(state), omega, theta)
    failures += _worst("nu", col["nu"], ref["nu"], scale=np.maximum(1.0, ref["nu"]))
    for name in columns[2:-1]:
        if name in ref:
            failures += _worst(name, col[name], ref[name])
    zero_row = np.arange(omega.size) % spec.theta[2]
    for name in ("eg", "negativity"):
        if f"delta_{name}" in col:
            value = col.get(name, ref[name])
            failures += _worst(f"delta_{name}", col[f"delta_{name}"], value - value[zero_row])

    return failures + _check_analytic_sample(state, col, omega, theta, rng)


def _check_analytic_sample(state, col, omega, theta, rng) -> list[str]:
    from diracboost.kinematics import BoostSpec
    from diracboost.measures import analytic_boosted_bloch

    failures = []
    for k in sorted(rng.sample(range(omega.size), min(ANALYTIC_SAMPLE, omega.size))):
        bloch = analytic_boosted_bloch(state, BoostSpec.from_polar_angle(omega[k], theta[k]))
        oracle = {"eg": 1.0 - sum(b.norm_sq for b in bloch.values()) / 4.0}
        for tag, b in bloch.items():
            for c in "xyz":
                oracle[f"bloch_{tag.lower()}_{c}"] = getattr(b, c)
        for name, want in oracle.items():
            if name in col and not abs(col[name][k] - want) <= TOL:
                failures.append(f"{name} row {k}: got {col[name][k]!r}, "
                                f"closed-form oracle {want!r}")
    return failures


def check_verify(data: bytes, returncode: int) -> list[str]:
    """`verify --json` must exit 2 with exactly the by-design failures failing."""
    failures = []
    if returncode != 2:
        failures.append(f"verify exited {returncode}, expected 2")
    try:
        report = json.loads(data)
        failed = sorted(c["check_id"] for c in report["checks"] if not c["passed"])
        total = report["total"]
    except (ValueError, KeyError, TypeError) as exc:
        return failures + [f"unparseable verify report: {exc}"]
    if failed != list(EXPECTED_VERIFY_FAILURES):
        failures.append(f"failing checks {failed}, expected {list(EXPECTED_VERIFY_FAILURES)}")
    if total != 10:
        failures.append(f"{total} checks reported, expected 10")
    return failures


def negativity_residue_rows(data: bytes, fmt: str) -> int:
    """Rows whose printed negativity is rounding residue: 0 < N <= 1e-12."""
    _, col = parse_output(data, fmt)
    neg = col.get("negativity")
    return 0 if neg is None else int(np.count_nonzero((neg > 0.0) & (neg <= 1e-12)))
