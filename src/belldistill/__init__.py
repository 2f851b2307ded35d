"""One-copy distillability certification for Bell-diagonal qutrit pairs.

The package builds Bell-diagonal states from probability tables, extracts
the block structure of their partial transpose, constructs a Schmidt-rank-2
ground eigenvector of the partial transpose for every NPT state, derives
the associated distillability witness and local filters, and evaluates
white-noise robustness thresholds for both the original qutrit pair and
the filtered qubit pair.
"""

__version__ = "0.1.0"

from .filtering import (
    FilterReport,
    add_white_noise,
    filter_report,
    filter_state,
    filters_from_witness,
    p_rho_max,
    p_sigma_max,
)
from .linalg import (
    HermitianEigensystem,
    SchmidtDecomposition,
    expectation,
    hermitian_eigensystem,
    kron,
    partial_transpose,
    schmidt_decompose,
)
from .simplex import (
    BOUNDARY,
    NPT,
    PPT,
    PTSpectrumReport,
    SimplexCoefficients,
    apply_weyl_channel,
    assemble_pt_from_blocks,
    build_state,
    classify,
    pt_block,
    sample_npt,
    sample_simplex,
)
from .weyl import (
    bell_unitary,
    bell_vector,
    controlled_sum,
    flip,
    fourier,
    swap_conjugation,
    weyl,
)
from .witness import (
    WitnessConstruction,
    WitnessOperator,
    construct_witness_vector,
    detect,
    product_vector_positivity_check,
    witness_operator,
)

__all__ = [
    "BOUNDARY",
    "FilterReport",
    "HermitianEigensystem",
    "NPT",
    "PPT",
    "PTSpectrumReport",
    "SchmidtDecomposition",
    "SimplexCoefficients",
    "WitnessConstruction",
    "WitnessOperator",
    "add_white_noise",
    "apply_weyl_channel",
    "assemble_pt_from_blocks",
    "bell_unitary",
    "bell_vector",
    "build_state",
    "classify",
    "construct_witness_vector",
    "controlled_sum",
    "detect",
    "expectation",
    "filter_report",
    "filter_state",
    "filters_from_witness",
    "flip",
    "fourier",
    "hermitian_eigensystem",
    "kron",
    "p_rho_max",
    "p_sigma_max",
    "partial_transpose",
    "product_vector_positivity_check",
    "pt_block",
    "sample_npt",
    "sample_simplex",
    "schmidt_decompose",
    "swap_conjugation",
    "weyl",
    "witness_operator",
]
