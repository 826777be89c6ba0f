"""Entanglement monotones for bipartite pure states.

Schmidt decompositions, the Renyi family of entanglement entropies, monotone
construction from concave spectrum functions, elementary one-party operations
with Monte-Carlo monotonicity screens, conversion-probability bounds,
convex-roof upper bounds for mixed states, and dilution truncation curves.
"""

__version__ = "0.1.0"

from .conversion import (
    ConversionBound,
    bound_average_yield,
    bound_multicopy,
    bound_single,
    locally_equivalent,
)
from .dilution import (
    DilutionCurve,
    DilutionTarget,
    DiscontinuityRow,
    discontinuity_report,
    entropy_curves,
    fidelity_curve,
    log_binom,
    m_of_r,
    tail_mass,
    truncation_index,
    x_star,
    x_star_finite,
)
from .locc import (
    MonotonicityReport,
    PerturbationMeasurement,
    TrialRecord,
    UnilocalOperation,
    add_ancilla,
    apply_unilocal,
    check_c1,
    check_c2,
    dismiss_part,
    forget,
    perturbation_measurement,
    projective_measurement,
    random_unilocal_operation,
    unilocal_unitary,
)
from .monotones import (
    MonotoneSpec,
    MonotoneValidationError,
    alpha_entropy_spec,
    delta_e_alpha_of_fidelity,
    e_alpha,
    linear_entropy_term,
    monotone_by_name,
    monotone_from_concave,
    renyi_entropy,
    shannon_term,
    trace_fn_spec,
)
from .roof import RoofEstimate, ensemble_from_isometry, isometry_of_ensemble, roof_estimate
from .statefile import (
    StateFileError,
    load_bipartite_density,
    load_certificate,
    load_state,
    save_certificate,
)
from .states import (
    DensityMatrix,
    OutcomeEnsemble,
    PureState,
    SchmidtSpectrum,
    apply_kraus,
    density_of,
    ensure_rng,
    haar_unitary,
    maximally_entangled,
    partial_trace_a,
    partial_trace_b,
    phase_distance,
    product_state,
    random_density_matrix,
    random_pure_state,
    schmidt,
    tensor_bipartite,
)
