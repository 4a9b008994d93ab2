"""Lorentz boosts of two-particle Dirac bispinor states and their entanglement.

The package models four-component bispinors as parity (x) spin qubit pairs,
applies the Hermitian (non-unitary) spinor-space boost with its trace
renormalization, and quantifies how boosts redistribute entanglement between
the parity and spin degrees of freedom of a two-particle state.
"""

from .kinematics import (
    GAMMA5,
    Bispinor,
    BoostSpec,
    FourMomentum,
    bispinor_boost,
    bispinor_u,
    bispinor_v,
    boost_four_vector,
    chiral_projector,
    helicity_spinor,
)
from .measures import (
    BlochVector,
    analytic_boosted_bloch,
    bloch_vector,
    delta_global,
    delta_negativity,
    global_entanglement,
    linear_entropy,
    negativity,
    single_qubit_entropies,
    single_qubit_reductions,
    spin_spin_reduced,
)
from .states import (
    TWO_PARTICLE_LAYOUT,
    ChiralLabelPair,
    SuperpositionTerm,
    TwoParticleState,
    assemble_state_vector,
    boost_two_particle,
    chiral_project,
    density_matrix,
    make_psi1,
    make_psi2,
    make_psi3,
)
from .sweep import (
    ConfigError,
    CustomTermSpec,
    GridSpec,
    SweepConfig,
    SweepError,
    SweepRow,
    emit,
    run_sweep,
)
from .tensor import (
    SubsystemLayout,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
)

__version__ = "0.1.0"

__all__ = [
    "GAMMA5",
    "Bispinor",
    "BlochVector",
    "BoostSpec",
    "CheckResult",
    "ChiralLabelPair",
    "ConfigError",
    "CustomTermSpec",
    "FourMomentum",
    "GridSpec",
    "SubsystemLayout",
    "SuperpositionTerm",
    "SweepConfig",
    "SweepError",
    "SweepRow",
    "TWO_PARTICLE_LAYOUT",
    "TwoParticleState",
    "analytic_boosted_bloch",
    "assemble_state_vector",
    "bispinor_boost",
    "bispinor_u",
    "bispinor_v",
    "bloch_vector",
    "boost_four_vector",
    "boost_two_particle",
    "chiral_project",
    "chiral_projector",
    "delta_global",
    "delta_negativity",
    "density_matrix",
    "emit",
    "global_entanglement",
    "helicity_spinor",
    "hermitian_eigenvalues",
    "kron",
    "linear_entropy",
    "make_psi1",
    "make_psi2",
    "make_psi3",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "run_sweep",
    "run_verification",
    "single_qubit_entropies",
    "single_qubit_reductions",
    "spin_spin_reduced",
    "__version__",
]


def __getattr__(name: str):
    # verify loads on first use, so that a sweep does not pay for importing it
    if name in ("CheckResult", "run_verification"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
