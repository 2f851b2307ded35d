"""The top-level API is the pipeline; cross-check routes live in tests/reference.py."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import belldistill
from belldistill import filtering, linalg, report, simplex, verify, witness
from belldistill.filtering import FilterReport, filter_report
from belldistill.linalg import partial_transpose
from belldistill.simplex import PTSpectrumReport, build_state, classify, sample_npt
from belldistill.witness import WitnessConstruction, construct_witness_vector

from conftest import outputs, pure_bell_table, random_table, uniform_table
from reference import SchmidtDecomposition

PIPELINE = {
    # types
    "SimplexCoefficients", "PTSpectrumReport", "WitnessConstruction", "FilterReport",
    # labels
    "NPT", "PPT", "BOUNDARY",
    # states and classification
    "sample_simplex", "sample_npt", "build_state", "pt_block", "classify",
    # witness
    "construct_witness_vector", "detect",
    # filtering and noise
    "filter_report", "add_white_noise", "p_rho_max", "p_sigma_max",
    # building blocks the pipeline is stated in
    "partial_transpose", "weyl",
}

MOVED = ("apply_weyl_channel", "assemble_pt_from_blocks", "controlled_sum",
         "product_vector_positivity_check", "SchmidtDecomposition", "schmidt_decompose",
         "filters_from_witness", "filter_state", "expectation")

#: second sources of one quantity that were deleted: the witness is the array
#: W on the construction, the sampler classifies each batch from its one eigh,
#: the noise family's signs are read by simplex.verdict alone, the block maps
#: come in stacks from simplex._block_maps, and the identities from
#: filtering._identity; rank 2 of C is an identity of the construction, so
#: its run-time certificate, the frame's rank guard and their error are gone;
#: a report is the one literal of analysis_report, with no key tuple, section
#: converters or reason constants beside it
REMOVED = ("WitnessOperator", "witness_operator", "_screen_lambda_min", "SCREEN_MARGIN",
           "SCREEN_BATCH", "MINOR_TOL", "DET_TOL", "THRESHOLD_BAND", "_block_map", "EYE9",
           "EYE2", "certify_rank_2", "_minors", "CERT_TOL", "RANK_RTOL",
           "RankCertificationError", "classification_to_json", "witness_to_json",
           "filter_to_json", "REPORT_KEYS", "REASON_PPT", "REASON_BOUNDARY")


def test_all_is_the_pipeline():
    assert len(belldistill.__all__) == len(PIPELINE) == 20
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
        for name in MOVED + REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(SchmidtDecomposition, "reconstruct")


def test_package_makes_no_svd_call():
    # the Schmidt frame comes from pivots of P_A; the SVD route is the test oracle's
    for info in pkgutil.iter_modules(belldistill.__path__):
        module = importlib.import_module(f"belldistill.{info.name}")
        assert "svd" not in inspect.getsource(module), module.__name__


def test_white_noise_family_has_one_route():
    # verify and sweep reach rho_p and sigma_p only through noise_scan
    for info in pkgutil.iter_modules(belldistill.__path__):
        if info.name != "filtering":
            module = importlib.import_module(f"belldistill.{info.name}")
            assert "add_white_noise" not in inspect.getsource(module), module.__name__
    # in filtering: the definition, and the two calls inside noise_scan
    assert inspect.getsource(filtering).count("add_white_noise(") == 3
    assert inspect.getsource(filtering.noise_scan).count("add_white_noise(") == 2


def test_spectra_come_straight_from_eigh():
    # classify keeps only B_0's ground vector; no eigensystem wrapper remains
    assert not hasattr(linalg, "hermitian_eigensystem")
    assert not hasattr(linalg, "HermitianEigensystem")
    assert [f.name for f in dataclasses.fields(PTSpectrumReport)] == [
        "eigenvalues", "lambda_min", "negative_count", "classification", "u0",
    ]


def test_u0_and_sigma_pt_spectrum_are_read_only():
    coeffs = random_table(0)
    spectrum = classify(coeffs)
    rep = filter_report(build_state(coeffs), construct_witness_vector(spectrum))
    for arr in (spectrum.u0, rep.sigma_pt_spectrum):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ------------------------------------------- one holder for each quantity

def test_filter_report_does_not_copy_the_filters():
    # P_A and P_B live on the witness construction alone
    assert [f.name for f in dataclasses.fields(FilterReport)] == [
        "q", "sigma", "sigma_pt_spectrum", "p_rho_max", "p_sigma_max",
        "qubit_more_robust", "robustness_tie",
    ]


def test_psi_is_one_read_only_constant():
    assert "psi" not in [f.name for f in dataclasses.fields(WitnessConstruction)]
    assert np.array_equal(witness.PSI, np.array([1.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0))
    with pytest.raises(ValueError):
        witness.PSI[1] = 1.0


def test_construction_holds_its_witness():
    # W is fixed once phi is, so it is a read-only field of the construction;
    # the coefficient matrix C is phi_tilde reshaped and has no field of its own
    names = [f.name for f in dataclasses.fields(WitnessConstruction)]
    assert "W" in names and "C" not in names
    for table in (pure_bell_table(), random_table(0), random_table(3)):
        wc = construct_witness_vector(classify(table))
        expected = partial_transpose(np.outer(wc.phi, wc.phi.conj()), 3, 3)
        assert np.array_equal(wc.W, expected)
        with pytest.raises(ValueError):
            wc.W[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            wc.W = expected


def test_sampler_retry_cap_is_a_constant():
    assert list(inspect.signature(sample_npt).parameters) == ["seed"]


def test_report_keys_are_one_tuple():
    # the writer returns one literal with every key in this order, and the
    # validator compares a report with the writer's report of its own input
    keys = ("tool_version", "seed_used", "input", "renormalized", "classification",
            "witness", "witness_spectrum", "filter", "reason")
    # weight 1/3 on each of the Bell states (0, 0), (0, 1) and (0, 2) is a BOUNDARY table
    boundary = simplex.SimplexCoefficients(**outputs.support_table(7))
    labelled = ((pure_bell_table(), simplex.NPT), (uniform_table(), simplex.PPT),
                (boundary, simplex.BOUNDARY))
    for table, label in labelled:
        out = report.analysis_report(table)
        assert tuple(out) == keys
        assert out["classification"]["classification"] == label
    assert "analysis_report(" in inspect.getsource(report.validate_report)


def test_one_dirichlet_draw():
    calls = []
    for info in pkgutil.iter_modules(belldistill.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"belldistill.{info.name}")))
        calls += [
            info.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dirichlet"
        ]
    assert calls == ["simplex"]


def test_one_block_builder():
    # the maps from a table to its Bell-frame blocks have one builder,
    # simplex._block_maps, the only reader of the phase table outside weyl;
    # pt_block, the solver and the verify battery reach them through _blocks
    assert not hasattr(verify, "_block_maps")
    tree = ast.parse(inspect.getsource(verify))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "simplex"
        for alias in node.names
    ]
    assert "_blocks" in imported
    assert not [name for name in imported if name.startswith("_block_map")]
    readers = set()
    for info in pkgutil.iter_modules(belldistill.__path__):
        if info.name == "weyl":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(f"belldistill.{info.name}")))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef) and any(
                isinstance(node, ast.Name) and node.id == "phase_table"
                for node in ast.walk(function)
            ):
                readers.add(f"{info.name}.{function.name}")
    assert readers == {"simplex._block_maps"}
    for function in (simplex.pt_block, simplex._solve, verify._check_invariants):
        source = inspect.getsource(function)
        assert "_blocks(" in source and "concatenate" not in source, function.__name__


def test_the_npt_band_has_one_reader(monkeypatch):
    # simplex.verdict is the one comparison with BOUNDARY_TOL and
    # filtering._identity the one holder of identity matrices; the sampler's
    # screen and the report's and the battery's negative counts read verdict
    def names_tol(node):
        return any(
            isinstance(n, ast.Name) and n.id == "BOUNDARY_TOL"
            or isinstance(n, ast.Attribute) and n.attr == "BOUNDARY_TOL"
            for n in ast.walk(node)
        )

    comparisons, identities = [], []
    for info in pkgutil.iter_modules(belldistill.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"belldistill.{info.name}")))
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(function), f"{info.name}.{function.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and names_tol(node):
                comparisons.append(owner.get(node, info.name))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.eye":
                identities.append(owner.get(node, info.name))
    assert comparisons == ["simplex.verdict"] * 2
    assert identities == ["filtering._identity"]
    for name in ("BOUNDARY_TOL", "EYE9", "EYE2"):
        assert name not in inspect.getsource(verify), name

    # just outside the band an eigenvalue is NPT, just inside and NaN are not
    tol = simplex.BOUNDARY_TOL
    below, inside, nan = -tol * (1 + 1e-3), -tol * (1 - 1e-3), float("nan")

    def npt_count(values):
        return sum(simplex.verdict(x) == simplex.NPT for x in values)

    # the report repeats each of B_0's values over its orbit of three blocks
    for row in ([below, inside, nan], [below, below, inside], [inside, inside, nan]):
        rep = simplex._spectrum_report(np.array([row]), np.eye(3, dtype=complex)[None])
        assert rep.negative_count == npt_count(rep.eigenvalues.tolist()) == 3 * npt_count(row)

    # the battery's rho^Gamma spectrum is row 0 of its stacked eigvalsh
    seed = verify.trial_seeds(0, 1)[0]
    solve = np.linalg.eigvalsh
    for low in ([below] * 3 + [inside] * 2, [below] * 2 + [inside] * 3, [below] * 4 + [inside]):
        spectrum = low + [0.1] * 3 + [nan]

        def eigvalsh(a, spectrum=spectrum):
            values = solve(a)
            if np.shape(a) == (3, 9, 9):
                values[0] = spectrum
            return values

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", eigvalsh)
            failures = verify.run_trial(seed).failures
        count = npt_count(spectrum)
        expected = [] if count == 3 else [f"negative_count: {count} negative eigenvalues"]
        assert [f for f in failures if f.startswith("negative_count")] == expected

    # sigma^Gamma's spectrum is the filter report's
    for spectrum in ([below, inside, 0.1, nan], [below, below, inside, nan], [inside] * 3 + [nan]):
        def report(rho, wc, spectrum=np.array(spectrum)):
            return dataclasses.replace(filter_report(rho, wc), sigma_pt_spectrum=spectrum)

        with monkeypatch.context() as m:
            m.setattr(verify, "filter_report", report)
            failures = verify.run_trial(seed).failures
        fired = any(f.startswith("sigma_single_negative") for f in failures)
        assert fired == (npt_count(spectrum) != 1)
