"""Lorentz boosts of two-particle Dirac bispinor states and their entanglement.

The package models four-component bispinors as parity (x) spin qubit pairs,
applies the Hermitian (non-unitary) spinor-space boost with its trace
renormalization, and quantifies how boosts redistribute entanglement between
the parity and spin degrees of freedom of a two-particle state.
"""

from .kinematics import (
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
    negativity,
    single_qubit_reductions,
    spin_spin_reduced,
)
from .states import (
    TWO_PARTICLE_LAYOUT,
    SuperpositionTerm,
    assemble_state_vector,
    boost_two_particle,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from .sweep import (
    ConfigError,
    GridSpec,
    SweepConfig,
    SweepError,
    emit,
    run_sweep,
)
from .tensor import (
    partial_trace,
    partial_transpose,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "BoostSpec",
    "ConfigError",
    "FourMomentum",
    "GridSpec",
    "SuperpositionTerm",
    "SweepConfig",
    "SweepError",
    "TWO_PARTICLE_LAYOUT",
    "analytic_boosted_bloch",
    "assemble_state_vector",
    "bispinor_boost",
    "bispinor_u",
    "bispinor_v",
    "bloch_vector",
    "boost_four_vector",
    "boost_two_particle",
    "chiral_project_vector",
    "chiral_projector",
    "delta_global",
    "delta_negativity",
    "emit",
    "global_entanglement",
    "helicity_spinor",
    "make_psi1",
    "make_psi2",
    "make_psi3",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "run_sweep",
    "single_qubit_reductions",
    "spin_spin_reduced",
    "__version__",
]

