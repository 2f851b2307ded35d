"""One-copy distillability certification for Bell-diagonal qutrit pairs.

The package builds Bell-diagonal states from probability tables, extracts
the block structure of their partial transpose, constructs a Schmidt-rank-2
ground eigenvector of the partial transpose for every NPT state, derives
the associated distillability witness and local filters, and evaluates
white-noise robustness thresholds for both the original qutrit pair and
the filtered qubit pair.

The names exported here are that pipeline. Helpers it is built from, such
as ``kron``, ``bell_vector`` or ``pivot_index``, are imported from their
own modules.
"""

__version__ = "0.1.0"

from .filtering import FilterReport, add_white_noise, filter_report, p_rho_max, p_sigma_max
from .linalg import partial_transpose
from .simplex import (
    BOUNDARY,
    NPT,
    PPT,
    PTSpectrumReport,
    SimplexCoefficients,
    build_state,
    classify,
    pt_block,
    sample_npt,
    sample_simplex,
)
from .weyl import weyl
from .witness import WitnessConstruction, construct_witness_vector, detect

__all__ = [
    "BOUNDARY",
    "FilterReport",
    "NPT",
    "PPT",
    "PTSpectrumReport",
    "SimplexCoefficients",
    "WitnessConstruction",
    "add_white_noise",
    "build_state",
    "classify",
    "construct_witness_vector",
    "detect",
    "filter_report",
    "p_rho_max",
    "p_sigma_max",
    "partial_transpose",
    "pt_block",
    "sample_npt",
    "sample_simplex",
    "weyl",
]
