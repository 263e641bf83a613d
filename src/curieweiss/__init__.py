"""Thermodynamics of a mean-field spin-l magnet used as a measurement pointer.

The library covers the order-parameter algebra (weights, moments, cyclic
relabeling maps), the coupled free-energy functional with analytic
derivatives, equilibrium solvers for minima and transition points, an
exact finite-N enumeration oracle, and randomized symmetry verification.
The ``curieweiss`` console script exposes the same capabilities as CSV
and JSON artifacts.
"""

from .equilibrium import (
    GRAD_TOL,
    CriticalPoint,
    Minimum,
    branch_thresholds,
    critical_coupling,
    critical_temperature,
    meanfield_m2,
    minimize,
    orbit,
    spinodal_temperature,
)
from .errors import (
    CurieWeissError,
    EnsembleTooLarge,
    InfeasibleMoments,
    NonConvergence,
    NoSolutionInBracket,
)
from .oracle import (
    MAX_COMPOSITIONS,
    FiniteNEnsemble,
    canonical_sums,
    enumerate_ensemble,
    exact_free_energy,
    nearest_composition,
    paramagnet_gaussian_check,
    raw_config_free_energy,
    stirling_entropy_error,
    thermal_moments,
)
from .order_params import (
    FEASIBILITY_TOL,
    AffineMap,
    MomentVector,
    WeightVector,
    feasibility,
    moment_orbit,
    moments_to_weights,
    moments_to_weights_array,
    paramagnet_moments,
    permutation_map_m,
    permutation_map_x,
    random_weights,
    weights_to_moments,
    weights_to_moments_array,
)
from .properties import TOLERANCES, run_symmetry_suite
from .spectrum import (
    MAX_TWICE_L,
    SpinQuantum,
    TrigPoly,
    spectrum,
    spectrum_array,
    trig_poly,
)
from .thermo import (
    ModelParams,
    ThermoEval,
    alignment,
    coupling,
    coupling_two_outcome,
    energy,
    entropy,
    free_energy,
    free_energy_batch,
    free_energy_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "CriticalPoint",
    "CurieWeissError",
    "EnsembleTooLarge",
    "FEASIBILITY_TOL",
    "FiniteNEnsemble",
    "GRAD_TOL",
    "InfeasibleMoments",
    "MAX_COMPOSITIONS",
    "MAX_TWICE_L",
    "Minimum",
    "ModelParams",
    "MomentVector",
    "NoSolutionInBracket",
    "NonConvergence",
    "SpinQuantum",
    "TOLERANCES",
    "ThermoEval",
    "TrigPoly",
    "WeightVector",
    "alignment",
    "branch_thresholds",
    "canonical_sums",
    "coupling",
    "coupling_two_outcome",
    "critical_coupling",
    "critical_temperature",
    "energy",
    "entropy",
    "enumerate_ensemble",
    "exact_free_energy",
    "feasibility",
    "free_energy",
    "free_energy_batch",
    "free_energy_weights",
    "meanfield_m2",
    "minimize",
    "moment_orbit",
    "moments_to_weights",
    "moments_to_weights_array",
    "nearest_composition",
    "orbit",
    "paramagnet_gaussian_check",
    "paramagnet_moments",
    "permutation_map_m",
    "permutation_map_x",
    "random_weights",
    "raw_config_free_energy",
    "run_symmetry_suite",
    "spectrum",
    "spectrum_array",
    "spinodal_temperature",
    "stirling_entropy_error",
    "thermal_moments",
    "trig_poly",
    "weights_to_moments",
    "weights_to_moments_array",
]
