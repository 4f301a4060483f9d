"""pairinglab: l1-coherence, negativity, and pairing-state structure tools."""

from .linalg import (
    BipartiteState,
    DensityMatrix,
    binary_entropy,
    entrywise_l1_norm,
    partial_transpose,
    singular_values,
    trace_norm,
    von_neumann_entropy,
)
from .measures import (
    MeasureReport,
    c_l0_count,
    c_l1,
    c_log,
    c_rel_entropy,
    measure_report,
    n0_count,
    negativity,
    schmidt_negativity,
    schmidt_spectrum,
)
from .majorization import (
    MajorizationTriple,
    TraceVsL1,
    is_monomial,
    majorizes,
    trace_vs_l1,
    uvw_triple,
)
from .pairing import (
    PairingCertificate,
    PairingMeasures,
    QubitQuditDecomposition,
    detect_canonical_pairing,
    distill_witness,
    distillable_lower_bound,
    pairing_measures,
    pairing_number_bound_check,
    ppt_cost_condition,
    qubit_qudit_decompose,
)
from .constructions import (
    AppendixAChain,
    Counterexample,
    MCSpec,
    appendix_a_chain,
    cnot_embed,
    isotropic_mixture,
    make_mc_state,
    make_qubit_qudit_pairing,
    named_counterexample,
)
from .randgen import (
    RngState,
    ginibre_density,
    haar_random_pure,
    random_bipartite_state,
    random_canonical_pairing,
    random_monomial_unitary,
)

__version__ = "0.1.0"
