"""proctensor: two-qubit open processes with projective interventions.

Simulate a system-environment process interleaved with rank-1 projective
measurements, fit the measurement-restricted process tensor from tomography
records, benchmark it against a memoryless baseline, and quantify memory as a
PSD-constrained minimum relative entropy.
"""

from .linalg import (
    HermEigen,
    herm_eig,
    kron,
    mat_log_psd,
    mat_sqrt_psd,
    partial_trace,
    project_psd,
    unvec,
    vec,
)
from .qubit import (
    CNOT,
    CZ,
    FIT_BASIS_LABELS,
    OVERCOMPLETE_LABELS,
    NoiseSpec,
    Projector,
    apply_noise,
    apply_projector,
    bloch_vector,
    named_projector,
    projector,
    rotation_gate,
    state_fidelity,
    zy_projector,
)
from .channels import (
    apply_chi,
    chi_fidelity,
    chi_from_process,
    chi_is_trace_preserving,
    chi_of_operator,
    reduced_map,
)
from .process import (
    ProcessSpec,
    ShotConfig,
    cnot_cz_process,
    cz_cnot_process,
    generate_records,
    markov_predict,
    markov_sequences,
    reduced_step_maps,
    run_process,
    run_sequences,
)
from .tomography import (
    RestrictedProcessTensor,
    TomoRecord,
    fit_restricted_tensor,
    qst_six_axis,
    records_from_text,
    records_to_text,
)
from .nonmarkov import (
    ChoiFamily,
    ChoiState,
    MinimizeResult,
    SupportMismatchError,
    VanishingBranchError,
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
    "HermEigen", "herm_eig", "kron", "mat_log_psd", "mat_sqrt_psd",
    "partial_trace", "project_psd", "unvec", "vec",
    "CNOT", "CZ", "FIT_BASIS_LABELS", "OVERCOMPLETE_LABELS", "NoiseSpec",
    "Projector", "apply_noise", "apply_projector", "bloch_vector",
    "named_projector", "projector", "rotation_gate", "state_fidelity",
    "zy_projector",
    "apply_chi", "chi_fidelity", "chi_from_process", "chi_is_trace_preserving",
    "chi_of_operator", "reduced_map",
    "ProcessSpec", "ShotConfig", "cnot_cz_process", "cz_cnot_process",
    "generate_records", "markov_predict", "markov_sequences", "reduced_step_maps",
    "run_process", "run_sequences",
    "RestrictedProcessTensor", "TomoRecord", "fit_restricted_tensor",
    "qst_six_axis", "records_from_text", "records_to_text",
    "ChoiFamily", "ChoiState", "MinimizeResult", "SupportMismatchError",
    "VanishingBranchError", "bloch_volume", "condition_family", "default_theta_grid",
    "minimize_nonmarkovianity", "relative_entropy", "sweep_theta",
    "uncorrelated_choi",
]
