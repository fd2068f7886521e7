"""proctensor: two-qubit open processes with projective interventions.

Simulate a system-environment process interleaved with rank-1 projective
measurements, fit the measurement-restricted process tensor from tomography
records, benchmark it against a memoryless baseline, and quantify memory as a
PSD-constrained minimum relative entropy.
"""

from .qubit import (
    CNOT,
    CZ,
    FIT_BASIS_LABELS,
    OVERCOMPLETE_LABELS,
    NoiseSpec,
    apply_noise,
    bloch_vector,
    named_projector,
    projector,
    state_fidelity,
    zy_projector,
)
from .channels import (
    chi_fidelity,
    chi_from_process,
    chi_of_operator,
    reduced_map,
)
from .process import (
    ProcessSpec,
    ShotConfig,
    VanishingBranchError,
    cnot_cz_process,
    cz_cnot_process,
    generate_records,
    markov_predict,
    run_process,
)
from .tomography import (
    RestrictedProcessTensor,
    fit_restricted_tensor,
    qst_six_axis,
    records_from_arrays,
    records_from_text,
    records_to_text,
)
from .nonmarkov import (
    ChoiFamily,
    MinimizeResult,
    SupportMismatchError,
    bloch_volume,
    condition_family,
    default_theta_grid,
    minimize_nonmarkovianity,
    relative_entropy,
    sweep_theta,
    uncorrelated_choi,
)

__version__ = "0.1.0"

__all__ = [
    "CNOT", "CZ", "FIT_BASIS_LABELS", "OVERCOMPLETE_LABELS", "NoiseSpec",
    "apply_noise", "bloch_vector", "named_projector", "projector",
    "state_fidelity", "zy_projector",
    "chi_fidelity", "chi_from_process", "chi_of_operator", "reduced_map",
    "ProcessSpec", "ShotConfig", "VanishingBranchError", "cnot_cz_process",
    "cz_cnot_process", "generate_records", "markov_predict", "run_process",
    "RestrictedProcessTensor", "fit_restricted_tensor", "qst_six_axis",
    "records_from_arrays", "records_from_text", "records_to_text",
    "ChoiFamily", "MinimizeResult", "SupportMismatchError",
    "bloch_volume", "condition_family", "default_theta_grid",
    "minimize_nonmarkovianity", "relative_entropy", "sweep_theta",
    "uncorrelated_choi",
]
