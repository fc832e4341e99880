"""Numerical toolkit for periodically driven quantum systems.

Quasienergy spectra through extended-space diagonalization, a
time-ordered propagator as an independent time-domain oracle,
second-order high-frequency effective Hamiltonians, Chern numbers of
driven bands, and dissipative dynamics (Floquet Green's functions and
Lindblad steady states).
"""

__version__ = "0.1.0"

from .bessel import bessel_j
from .models import (
    DriveProtocol,
    FourierModeSet,
    chain_modes,
    custom_modes,
    dirac_modes,
    fourier_modes,
    haldane_bloch,
    honeycomb_modes,
    sample_chain_1d,
    sample_dirac,
    sample_honeycomb,
    suggested_n_max,
)
from .propagator import (
    BranchCutError,
    StroboscopicHF,
    evolve,
    micromotion,
    monodromy,
    quasienergies_from_monodromy,
    stroboscopic_hf,
)
from .sambe import (
    FloquetMatrix,
    QuasienergySolution,
    build_floquet_matrix,
    evolve_state_floquet,
    floquet_coefficients,
    fold_to_bz,
    physical_band,
    quasienergies,
    select_physical_band,
)
from .highfreq import (
    EffectiveHamiltonianReport,
    HaldaneParameters,
    dirac_gap,
    effective_hopping_1d,
    haldane_effective,
    van_vleck_hf,
)
from .topology import (
    BandGrid,
    CurvatureField,
    band_grid,
    berry_curvature_grid,
    bloch_band_solver,
    chern_number,
    floquet_band_solver,
)
from .open_system import (
    BathSpec,
    GreensFunctionGrid,
    LindbladSystem,
    PeriodicSteadyState,
    bath_self_energy,
    evolve_lindblad,
    find_ness,
    floquet_greens,
    lindblad_rhs,
    occupation_function,
    one_period_map,
    spectral_function,
)
