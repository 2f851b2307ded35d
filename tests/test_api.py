"""The top-level API is the pipeline; cross-check routes live in tests/reference.py."""

import importlib
import pkgutil

import belldistill
from belldistill.linalg import HermitianEigensystem, SchmidtDecomposition

PIPELINE = {
    # types
    "SimplexCoefficients", "PTSpectrumReport", "WitnessConstruction", "WitnessOperator",
    "FilterReport", "SchmidtDecomposition",
    # labels
    "NPT", "PPT", "BOUNDARY",
    # states and classification
    "sample_simplex", "sample_npt", "build_state", "pt_block", "classify",
    # witness
    "construct_witness_vector", "witness_operator", "detect",
    # filtering and noise
    "filter_report", "add_white_noise", "p_rho_max", "p_sigma_max",
    # building blocks the pipeline is stated in
    "partial_transpose", "schmidt_decompose", "weyl",
}

MOVED = ("apply_weyl_channel", "assemble_pt_from_blocks", "controlled_sum",
         "product_vector_positivity_check")


def test_all_is_the_pipeline():
    assert len(belldistill.__all__) == len(PIPELINE) == 24
    assert set(belldistill.__all__) == PIPELINE
    for name in belldistill.__all__:
        assert getattr(belldistill, name) is not None


def test_cross_check_routes_are_not_in_the_package():
    modules = [belldistill] + [
        importlib.import_module(f"belldistill.{info.name}")
        for info in pkgutil.iter_modules(belldistill.__path__)
    ]
    assert len(modules) == 9
    for module in modules:
        for name in MOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(HermitianEigensystem, "reconstruct")
    assert not hasattr(SchmidtDecomposition, "reconstruct")
