import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from belldistill import report as report_module
from belldistill.cli import main
from belldistill.filtering import filter_report
from belldistill.linalg import partial_transpose
from belldistill.report import (
    REASONS,
    analysis_report,
    dump_report,
    parse_coefficients,
    validate_report,
)
from belldistill.simplex import (
    BOUNDARY,
    BOUNDARY_TOL,
    NPT,
    PIVOT_RTOL,
    PPT,
    InvalidCoefficientsError,
    SimplexCoefficients,
    build_state,
    classify,
    sample_npt,
)
from belldistill.witness import PSI, construct_witness_vector

from conftest import NPT_SEEDS, outputs, pure_bell_table, random_table, sparse_table, uniform_table
from reference import (
    dump_json,
    matrix_to_json,
    real_vector_to_json,
    vector_to_json,
)


def pure_input():
    return {"d": 3, "c": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}


# ------------------------------------------------------------- parsing

def test_parse_exact_table():
    coeffs, renormalized = parse_coefficients(pure_input())
    assert not renormalized
    assert coeffs.c[0, 0] == 1.0


def test_parse_renormalizes_within_tolerance():
    obj = {"d": 3, "c": [[0.9999999999, 0, 0], [0, 0, 0], [0, 0, 0]]}
    coeffs, renormalized = parse_coefficients(obj)
    assert renormalized
    assert abs(coeffs.c.sum() - 1.0) < 1e-15


def test_parse_rejects_sum_beyond_tolerance():
    obj = {"d": 3, "c": [[0.9, 0, 0], [0, 0, 0], [0, 0, 0]]}
    with pytest.raises(InvalidCoefficientsError, match="sum"):
        parse_coefficients(obj)


def test_parse_rejects_negative_entry():
    obj = {"d": 3, "c": [[1.1, -0.1, 0], [0, 0, 0], [0, 0, 0]]}
    with pytest.raises(InvalidCoefficientsError, match="negative"):
        parse_coefficients(obj)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, message", [
    ([1e308, 1e308, 1e308], "too large to sum"),
    ([math.inf, -math.inf, 0.0], "non-finite"),
])
def test_parse_refuses_tables_before_their_sum_warns(row, message):
    # numpy's sum warns of an overflow on the first row and of an invalid
    # value on the second; both tables are refused before any sum is taken
    obj = {"d": 3, "c": [row, [0, 0, 0], [0, 0, 0]]}
    with pytest.raises(InvalidCoefficientsError, match=message):
        parse_coefficients(obj)


@pytest.mark.parametrize("obj", [
    {"d": 3},
    {"c": [[1]]},
    {"d": "3", "c": [[1]]},
    {"d": 2, "c": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
    {"d": 3, "c": [[1, 0, "x"], [0, 0, 0], [0, 0, 0]]},
    [1, 2, 3],
    {"d": 2, "c": [["0.5", "0"], ["0.5", "0"]]},
    {"d": 2, "c": [[True, False], [False, False]]},
    {"d": 2, "c": [[0.5, 0.5], [None, 0]]},
    {"d": True, "c": [[1]]},
])
def test_parse_rejects_malformed(obj):
    with pytest.raises(InvalidCoefficientsError):
        parse_coefficients(obj)


# -------------------------------------------------------------- reports

def test_report_npt_sections_present():
    report = analysis_report(pure_bell_table())
    assert report["classification"]["classification"] == "NPT"
    assert abs(report["classification"]["lambda_min"] - (-1 / 3)) < 1e-12
    assert abs(report["witness"]["mu0"] - 1 / np.sqrt(2)) < 1e-12
    assert abs(report["witness"]["mu1"] - 1 / np.sqrt(2)) < 1e-12
    assert abs(report["filter"]["q"] - 2 / 3) < 1e-10
    assert report["reason"] is None
    assert len(report["witness_spectrum"]) == 9
    assert len(report["witness"]["phi"]) == 9
    validate_report(report)


def test_report_ppt_sections_absent():
    report = analysis_report(uniform_table())
    assert report["classification"]["classification"] == "PPT"
    assert report["witness"] is None
    assert report["filter"] is None
    assert report["witness_spectrum"] is None
    assert report["reason"] == REASONS[PPT]
    validate_report(report)


def test_report_round_trip_is_lossless():
    report = analysis_report(random_table(12))
    text = dump_report(report)
    reloaded = json.loads(text)
    assert reloaded == report
    assert dump_report(reloaded) == text
    validate_report(reloaded)


def test_report_seed_recorded():
    # a report describes a given table, so it records seed_used as null
    report = analysis_report(pure_bell_table())
    assert "seed_used" in report and report["seed_used"] is None
    assert '"seed_used": null' in dump_report(report)
    with pytest.raises(TypeError):
        analysis_report(pure_bell_table(), seed_used=77)
    del report["seed_used"]
    with pytest.raises(ValueError, match="seed_used"):
        validate_report(report)


def test_validate_rejects_missing_keys():
    report = analysis_report(pure_bell_table())
    del report["witness"]
    with pytest.raises(ValueError, match="missing"):
        validate_report(report)


def test_validate_rejects_inconsistent_lambda():
    report = analysis_report(pure_bell_table())
    report["classification"]["lambda_min"] = 0.0
    with pytest.raises(ValueError, match="lambda_min"):
        validate_report(report)


def test_validate_rejects_npt_without_sections():
    report = analysis_report(pure_bell_table())
    report["witness"] = None
    with pytest.raises(ValueError, match="report.witness is None, not an object"):
        validate_report(report)


def test_validate_rejects_second_lambda_min():
    report = analysis_report(pure_bell_table())
    validate_report(report)
    report["witness"]["lambda_min"] = float(np.nextafter(report["witness"]["lambda_min"], 0.0))
    with pytest.raises(ValueError, match="lambda_min"):
        validate_report(report)


def _drop_eigenvalues(report):
    del report["classification"]["eigenvalues"]
    return report


def _null_classification(report):
    report["classification"] = None
    return report


def _list_witness(report):
    report["witness"] = []
    return report


def _eigenvalues_not_numbers(report):
    report["classification"]["eigenvalues"] = [None] * 9
    return report


def _ppt_report():
    # the uniform table: lambda_min = +1/9, after a JSON round trip
    return json.loads(dump_report(analysis_report(uniform_table())))


def _ppt_relabelled_npt(report):
    # sections borrowed from the NPT report, its witness lambda_min matched
    ppt = _ppt_report()
    ppt["classification"]["classification"] = NPT
    for key in ("witness", "witness_spectrum", "filter"):
        ppt[key] = report[key]
    ppt["witness"]["lambda_min"] = ppt["classification"]["lambda_min"]
    ppt["reason"] = None
    return ppt


def _negative_count_7(report):
    report["classification"]["negative_count"] = 7
    return report


def _npt_without_witness_spectrum(report):
    report["witness_spectrum"] = None
    return report


def _ppt_with_witness_spectrum(report):
    ppt = _ppt_report()
    ppt["witness_spectrum"] = report["witness_spectrum"]
    return ppt


def _ppt_with_witness(report):
    ppt = _ppt_report()
    ppt["witness"] = report["witness"]
    return ppt


def _npt_with_reason(report):
    report["reason"] = REASONS[PPT]
    return report


def _ppt_with_made_up_reason(report):
    ppt = _ppt_report()
    ppt["reason"] = "state looks fine"
    return ppt


def _ppt_without_reason(report):
    ppt = _ppt_report()
    ppt["reason"] = None
    return ppt


def _renormalized_yes(report):
    report["renormalized"] = "yes"
    return report


def _eight_eigenvalues(report):
    del report["classification"]["eigenvalues"][-1]
    return report


def _descending_eigenvalues(report):
    eigs = report["classification"]["eigenvalues"]
    eigs.reverse()
    report["classification"]["lambda_min"] = eigs[0]
    return report


def _unknown_label(report):
    report["classification"]["classification"] = "MAYBE"
    return report


def _c_entry_doubled(report):
    # the pure Bell table's C[1][1] = 0.5j becomes 1j; the validator names
    # the first of its two doubled parts
    report["witness"]["C"][1][1] = [2 * x for x in report["witness"]["C"][1][1]]
    return report


def _c_overflows(report):
    # finite entries near the square root of the largest double, whose
    # products overflow; the validator compares leaves and multiplies none
    report["witness"]["C"][1][1] = [1.5e154, 0.0]
    report["witness"]["C"][2][2] = [1e154, 1e154]
    return report


def _c_infinite(report):
    report["witness"]["C"][0][0] = [math.inf, 0.0]
    return report


def _c_huge_integer(report):
    # a JSON integer too large for a float
    report["witness"]["C"][0][0] = [10**400, 0]
    return report


def _c_removed(report):
    del report["witness"]["C"]
    return report


def _c_two_rows(report):
    del report["witness"]["C"][2]
    return report


def _ppt_largest_eigenvalue_infinite(report):
    # json.loads reads Infinity and NaN as these floats; a report the writer
    # refuses to write does not validate either
    ppt = _ppt_report()
    ppt["classification"]["eigenvalues"][-1] = math.inf
    return ppt


def _ppt_largest_eigenvalue_nan(report):
    ppt = _ppt_report()
    ppt["classification"]["eigenvalues"][-1] = math.nan
    return ppt


def _p_rho_max_5(report):
    report["filter"]["p_rho_max"] = 5.0
    return report


def _q_negative(report):
    report["filter"]["q"] = -3.0
    return report


def _witness_spectrum_zeros(report):
    report["witness_spectrum"] = [0.0] * 9
    return report


def _phi_one_pair(report):
    report["witness"]["phi"] = report["witness"]["phi"][:1]
    return report


def _sigma_entry_moved(report):
    report["filter"]["sigma"][1][2][0] += 1e-3
    return report


def _schmidt_left_entry_moved(report):
    report["witness"]["schmidt_left"][0][1][1] = 0.25
    return report


def _qubit_more_robust_flipped(report):
    report["filter"]["qubit_more_robust"] = not report["filter"]["qubit_more_robust"]
    return report


def _tool_version_made_up(report):
    report["tool_version"] = "0.0.0"
    return report


def _extra_key(report):
    report["filter"]["note"] = "hand-edited"
    return report


def _input_entry_an_integer(report):
    # the writer writes every table entry as a float
    report["input"]["c"][0][0] = 1
    return report


def _zero_sign_flipped(report):
    report["witness"]["C"][0][0][0] = -0.0
    return report


def _negative_count_a_boolean(report):
    report["classification"]["negative_count"] = True
    return report


def _q_deeply_nested(report):
    # far deeper than the recursion limit; the walk stops at the expected float
    nest = 2 / 3
    for _ in range(100_000):
        nest = [nest]
    report["filter"]["q"] = nest
    return report


def _input_deeply_nested(report):
    # deeper than the 32 dimensions numpy iterates
    nest = report["input"]["c"]
    for _ in range(70):
        nest = [nest]
    report["input"]["c"] = nest
    return report


def _input_removed(report):
    del report["input"]
    return report


@pytest.mark.parametrize(
    "malform, defect, message",
    [
        (_drop_eigenvalues, "missing keys ['eigenvalues']",
         "report.classification is missing keys ['eigenvalues']"),
        (_null_classification, "classification section must be an object, got NoneType",
         "report.classification is None, not an object"),
        (_list_witness, "witness section must be an object, got list",
         "report.witness is a list, not an object"),
        (lambda report: [report], "report must be an object, got list",
         "report must be an object, got list"),
        (_eigenvalues_not_numbers, "list of numbers",
         "report.classification.eigenvalues[0] is None, not -0.333"),
        # reports that are well formed but contradict themselves
        (_ppt_relabelled_npt, "classification NPT contradicts lambda_min 0.111",
         "report.classification.classification is 'NPT', not 'PPT'"),
        (_negative_count_7, "negative_count 7, not 3",
         "report.classification.negative_count is 7, not 3"),
        (_npt_without_witness_spectrum, "NPT report lacks a witness_spectrum",
         "report.witness_spectrum is None, not a list"),
        (_ppt_with_witness_spectrum, "PPT report carries a witness_spectrum",
         "report.witness_spectrum is a list, not None"),
        (_ppt_with_witness, "PPT report carries a witness",
         "report.witness is an object, not None"),
        (_npt_with_reason, "does not fit a NPT report", "report.reason is 'no negative"),
        (_ppt_with_made_up_reason, "does not fit a PPT report",
         "report.reason is 'state looks fine', not 'no negative"),
        (_ppt_without_reason, "None does not fit a PPT report",
         "report.reason is None, not 'no negative"),
        (_renormalized_yes, "renormalized must be a boolean, got 'yes'",
         "renormalized must be a boolean, got 'yes'"),
        (_eight_eigenvalues, "lists 8 eigenvalues for d=3",
         "report.classification.eigenvalues has 8 entries, not 9"),
        (_descending_eigenvalues, "not ascending",
         "report.classification.eigenvalues[0] is 0.333"),
        (_unknown_label, "classification MAYBE contradicts lambda_min",
         "report.classification.classification is 'MAYBE', not 'NPT'"),
        (_c_entry_doubled, "witness C fails its rank-2 certificate",
         "report.witness.C[1][1][0] is -3.9"),
        (_c_overflows, "witness C fails its rank-2 certificate",
         "report.witness.C[1][1][0] is 1.5e+154, not "),
        (_c_infinite, "witness C fails its rank-2 certificate",
         "report.witness.C[0][0][0] is inf, not 0.0"),
        (_c_huge_integer, "witness C fails its rank-2 certificate: int too large",
         "report.witness.C[0][0][0] is 1000"),
        (_c_removed, "witness section is missing keys ['C']",
         "report.witness is missing keys ['C']"),
        (_c_two_rows, "witness C must be 3 x 3", "report.witness.C has 2 entries, not 3"),
        (_ppt_largest_eigenvalue_infinite, "not JSON compliant: inf",
         "report.classification.eigenvalues[8] is inf, not 0.111"),
        (_ppt_largest_eigenvalue_nan, "not JSON compliant: nan",
         "report.classification.eigenvalues[8] is nan, not 0.111"),
        # fields that only a recomputation can check
        (_p_rho_max_5, "p_rho_max outside (0, 1)", "report.filter.p_rho_max is 5.0, not 0.75"),
        (_q_negative, "q outside (0, 1]", "report.filter.q is -3.0, not 0.666"),
        (_witness_spectrum_zeros, "witness spectrum not {-1/2, 0 x5, 1/2 x3}",
         "report.witness_spectrum[0] is 0.0, not -0.5"),
        (_phi_one_pair, "witness vector of one entry", "report.witness.phi has 1 entries, not 9"),
        (_sigma_entry_moved, "one sigma entry moved", "report.filter.sigma[1][2][0] is "),
        (_schmidt_left_entry_moved, "one frame entry moved",
         "report.witness.schmidt_left[0][1][1] is 0.25, not "),
        (_qubit_more_robust_flipped, "robustness flag flipped",
         "report.filter.qubit_more_robust is True, not False"),
        (_tool_version_made_up, "another tool version",
         "report.tool_version is '0.0.0', not "),
        (_extra_key, "a key the writer does not write", "report.filter has extra keys ['note']"),
        (_input_entry_an_integer, "an input entry written as an integer",
         "report.input.c[0][0] is 1, not 1.0"),
        (_zero_sign_flipped, "a zero of the other sign", "report.witness.C[0][0][0] is -0.0, not 0.0"),
        (_negative_count_a_boolean, "a boolean for a count",
         "report.classification.negative_count is True, not 3"),
        (_q_deeply_nested, "a deep nest for a number", "report.filter.q is a list, not 0.666"),
        (_input_deeply_nested, "an input nested beyond numpy's 32 dimensions",
         "coefficient table is not numeric"),
        (_input_removed, "no input table", 'input must be an object with keys "d" and "c"'),
    ],
)
def test_validate_raises_value_error_on_malformed_reports(malform, defect, message):
    # every report starts from the pure Bell table's report after a JSON round
    # trip; `defect` says what is wrong with it, and the ValueError names the
    # first field that differs from the report of its own input, so none of
    # these surfaces as KeyError, TypeError, OverflowError, RecursionError or
    # RuntimeError
    report = json.loads(dump_report(analysis_report(pure_bell_table())))
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_report(malform(report))


def test_validate_accepts_renormalized_inputs():
    # Dirichlet tables scaled by 1 +- up to 9e-10 are renormalized once. The
    # written input c / total is analyzed as written: on a second parse about
    # a third of them would be renormalized again, since their sum misses
    # 1.0 by an ulp, and their reports would no longer match
    parsed_again = 0
    for seed in range(500):
        coeffs, renormalized = parse_coefficients(outputs.renormalized_table(seed))
        assert renormalized, seed
        report = json.loads(dump_report(analysis_report(coeffs, renormalized)))
        validate_report(report)
        parsed_again += parse_coefficients(report["input"])[1]
    assert parsed_again >= 100


@pytest.mark.filterwarnings("error")
def test_validate_refuses_an_input_too_large_to_sum():
    # the ValueError the docstring promises, not numpy's overflow RuntimeWarning
    report = json.loads(dump_report(analysis_report(pure_bell_table())))
    report["input"]["c"][0] = [1e308, 1e308, 1e308]
    with pytest.raises(ValueError, match="coefficient table entries are too large to sum"):
        validate_report(report)


# ------------------------------------------- walks toward the PPT boundary

def _last_npt_on_path(start: SimplexCoefficients) -> SimplexCoefficients:
    """Last NPT table on the segment from ``start`` to the uniform table.

    Bisects on classify's verdict down to float resolution in the mixing
    weight, which lands on the -BOUNDARY_TOL edge of the boundary band.
    """
    def at(t):
        c = (1.0 - t) * start.c + t / 9.0
        return SimplexCoefficients(d=3, c=c / c.sum())

    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if classify(at(mid)).classification == NPT:
            lo = mid
        else:
            hi = mid
    return at(lo)


def test_last_npt_tables_toward_the_boundary_get_full_reports():
    assert len(NPT_SEEDS) >= 60
    for seed in NPT_SEEDS[:60]:
        report = analysis_report(_last_npt_on_path(random_table(seed)))
        validate_report(report)
        validate_report(json.loads(dump_report(report)))
        cls = report["classification"]
        assert cls["classification"] == NPT
        assert -2 * BOUNDARY_TOL < cls["lambda_min"] < -BOUNDARY_TOL
        assert report["witness"]["lambda_min"] == cls["lambda_min"]
        assert report["witness_spectrum"] is not None
        assert report["filter"] is not None


def test_equal_weight_supports_match_dense_oracle():
    # every nonempty support of the nine Bell weights, equal weight on each:
    # many zero weights and exact degeneracies, 24 tables exactly on the boundary
    counts = {NPT: 0, PPT: 0, BOUNDARY: 0}
    for mask in range(1, 2**9):
        coeffs = SimplexCoefficients(**outputs.support_table(mask))
        report = analysis_report(coeffs)
        text = dump_report(report)
        assert text == dump_json(report), f"support mask {mask:09b}"
        validate_report(report)
        validate_report(json.loads(text))
        assert_sections_match_oracle(coeffs, report)
        verdict = report["classification"]["classification"]
        counts[verdict] += 1
        lam = np.linalg.eigvalsh(partial_transpose(build_state(coeffs), 3, 3))[0]
        if not BOUNDARY_TOL / 2 < abs(lam) < 2 * BOUNDARY_TOL:
            oracle = NPT if lam < -BOUNDARY_TOL else PPT if lam > BOUNDARY_TOL else BOUNDARY
            assert verdict == oracle, f"support mask {mask:09b}"
    assert counts == {NPT: 315, PPT: 172, BOUNDARY: 24}


# -------------------------------------------- stability under one-ulp input changes

def _numbers(tree, path=""):
    """(path, value) for every number of a decoded report; list indices are kept."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _numbers(value, f"{path}.{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path, tree


def _pivot_margin(wc) -> float:
    """Distance of the nearest weight from the PIVOT_RTOL tie threshold, over all pivots.

    The pivots are u_0's phase pivot and the two frame pivots; relative to
    each step's largest weight.
    """
    a0 = wc.schmidt_left[0]
    margins = []
    for weights in (np.abs(wc.u[0]), wc.P_A.diagonal().real,
                    (wc.P_A - np.outer(a0, a0.conj())).diagonal().real):
        top = weights.max()
        margins.append(np.abs(weights - (1.0 - PIVOT_RTOL) * top).min() / top)
    return float(min(margins))


def test_reports_are_stable_under_one_ulp_input_changes():
    # Two entries of each table move by one ulp, one up and one down. Only a
    # table with a pivot weight within tie_band of its tie threshold may
    # change pivot, and so move its frame by O(1); such tables are counted
    # and left out
    tie_band = 1e-13
    in_band, worst = 0, {}
    for seed in range(2000):
        coeffs, spectrum = sample_npt(seed)
        if _pivot_margin(construct_witness_vector(spectrum)) < tie_band:
            in_band += 1
            continue
        flat = coeffs.c.ravel().copy()
        up, down = np.random.default_rng(seed).choice(9, size=2, replace=False)
        flat[up] = np.nextafter(flat[up], np.inf)
        flat[down] = np.nextafter(flat[down], -np.inf)
        nudged = SimplexCoefficients(d=3, c=flat.reshape(3, 3))
        before = list(_numbers(analysis_report(coeffs)))
        after = list(_numbers(analysis_report(nudged)))
        assert [p for p, _ in before] == [p for p, _ in after], seed
        for (path, x), (_, y) in zip(before, after):
            field = path.split("[")[0]
            worst[field] = max(worst.get(field, 0.0), abs(x - y))
    print(f"one-ulp probe: {in_band} of 2000 tables inside the pivot tie band")
    assert in_band <= 20
    assert max(worst.values()) <= 1e-12, {k: v for k, v in worst.items() if v > 1e-12}
    assert worst[".witness.schmidt_left"] > 0.0 and worst[".filter.sigma"] > 0.0


# ------------------------------------------------- serialisation oracle

def oracle_sections(coeffs: SimplexCoefficients) -> dict:
    """The report's array-valued sections, converted entry by entry."""
    rep = classify(coeffs)
    out = {
        "input": {"d": coeffs.d, "c": [[float(x) for x in row] for row in coeffs.c]},
        "classification": {
            "eigenvalues": real_vector_to_json(rep.eigenvalues),
            "lambda_min": float(rep.lambda_min),
            "negative_count": int(rep.negative_count),
            "classification": rep.classification,
        },
        "witness": None,
        "witness_spectrum": None,
        "filter": None,
    }
    if rep.classification != NPT:
        return out
    wc = construct_witness_vector(rep)
    fr = filter_report(build_state(coeffs), wc)
    out["witness"] = {
        "lambda_min": wc.lambda_min,
        "mu0": float(wc.schmidt_coefficients[0]),
        "mu1": float(wc.schmidt_coefficients[1]),
        "u": [vector_to_json(wc.u[m]) for m in range(3)],
        "alpha": [vector_to_json(wc.alpha[m]) for m in range(3)],
        "psi": vector_to_json(PSI),
        "C": matrix_to_json(wc.phi_tilde.reshape(3, 3)),
        "phi_tilde": vector_to_json(wc.phi_tilde),
        "phi": vector_to_json(wc.phi),
        "schmidt_coefficients": real_vector_to_json(wc.schmidt_coefficients),
        "schmidt_left": matrix_to_json(wc.schmidt_left),
        "schmidt_right": matrix_to_json(wc.schmidt_right),
        "schmidt_rank": 2,
    }
    out["witness_spectrum"] = real_vector_to_json(np.linalg.eigvalsh(wc.W))
    out["filter"] = {
        "P_A": matrix_to_json(wc.P_A),
        "P_B": matrix_to_json(wc.P_B),
        "q": fr.q,
        "sigma": matrix_to_json(fr.sigma),
        "sigma_pt_spectrum": real_vector_to_json(fr.sigma_pt_spectrum),
        "p_rho_max": fr.p_rho_max,
        "p_sigma_max": fr.p_sigma_max,
        "qubit_more_robust": fr.qubit_more_robust,
        "robustness_tie": fr.robustness_tie,
    }
    return out


def assert_sections_match_oracle(coeffs: SimplexCoefficients, report: dict) -> None:
    for key, section in oracle_sections(coeffs).items():
        assert json.dumps(report[key], indent=2) == json.dumps(section, indent=2), key


@pytest.mark.parametrize("family", ["flat", "sparse"])
def test_seeded_tables_match_serialisation_oracle(family):
    make = random_table if family == "flat" else sparse_table
    verdicts = set()
    for seed in range(200):
        coeffs = make(seed)
        report = analysis_report(coeffs)
        assert_sections_match_oracle(coeffs, report)
        assert dump_report(report) == dump_json(report), seed
        verdicts.add(report["classification"]["classification"])
    assert NPT in verdicts and PPT in verdicts


@pytest.mark.parametrize("d", [3, 2, 4, 5])
def test_written_reports_validate(d):
    # flat and sparse tables mixed with white noise at weights 0 to 1: the
    # validator's consistency checks refuse no report the package writes
    # (NPT tables with d != 3 get no report)
    verdicts = []
    for seed in range(200):
        table = (random_table if seed % 2 else sparse_table)(seed, d)
        t = (seed % 5) / 4
        coeffs = SimplexCoefficients(d=d, c=(1 - t) * table.c + t / d**2)
        if d != 3 and classify(coeffs).classification == NPT:
            continue
        report = analysis_report(coeffs)
        validate_report(json.loads(dump_report(report)))
        verdicts.append(report["classification"]["classification"])
    assert PPT in verdicts and (d != 3 or NPT in verdicts)


# ------------------------------------------------------ the report writer

_TINY = 5e-324  # the smallest subnormal
#: every row holds a -0.0 part and a subnormal part
_PARTS = np.array([
    [complex(-0.0, _TINY), 1 + 2j, complex(0.1, -3.5)],
    [complex(_TINY, -0.0), 0.1 + 0.0j, complex(-1 / 3, 2 / 3)],
    [complex(-0.0, 1e300), complex(-_TINY, 0.5), complex(7.0, -0.0)],
])


@pytest.mark.parametrize("a", [
    _PARTS[0, 0], np.array(_PARTS[0, 0]), _PARTS[1], _PARTS, _PARTS.T,
], ids=["scalar", "zero_dim", "vector", "matrix", "transposed_view"])
def test_complex_arrays_are_written_as_stacked_parts(a):
    # _json reads the [re, im] pairs from a float view of the array; the
    # pairs are the stacked real and imaginary parts, leaf for leaf by repr
    written = report_module._json(a)
    stacked = np.stack([np.real(a), np.imag(a)], -1).tolist()
    assert repr(written) == repr(stacked)
    leaves = np.ravel(written).tolist()
    assert len(leaves) == 2 * np.size(a) and all(type(x) is float for x in leaves)
    assert any(x == 0.0 and math.copysign(1.0, x) < 0 for x in leaves)
    assert _TINY in leaves or -_TINY in leaves

@pytest.mark.parametrize("d", [2, 4, 5])
def test_reports_across_dims_match_writer_oracle(d):
    # NPT tables with d != 3 are refused, so these are the non-NPT reports of
    # flat and sparse tables mixed with white noise at weights 0 to 1
    written = 0
    for seed in range(40):
        table = (random_table if seed % 2 else sparse_table)(seed, d)
        t = (seed % 5) / 4
        coeffs = SimplexCoefficients(d=d, c=(1 - t) * table.c + t / d**2)
        if classify(coeffs).classification == NPT:
            continue
        report = analysis_report(coeffs)
        assert dump_report(report) == dump_json(report), seed
        written += 1
    assert written >= 10


@pytest.mark.parametrize("npt_only", [False, True])
def test_sample_lists_match_writer_oracle(tmp_path, npt_only):
    out = tmp_path / "tables.json"
    argv = ["sample", "--count", "200", "--seed", "2", "--output", str(out)]
    assert main(argv + ["--npt-only"] * npt_only) == 0
    text = out.read_text(encoding="utf-8")
    # floats round-trip through repr, so the decoded list re-encodes to the same bytes
    assert text == dump_json(json.loads(text))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("place", [
    lambda x: x,
    lambda x: [[0.5, 0.25], [x, 0.0]],
    lambda x: [0.5, x, 0.25],
    lambda x: {"a": [1, 2], "b": x},
    lambda x: {"a": [[[0.0, np.float64(x)]]]},
], ids=["top_level", "in_matrix", "in_vector", "dict_value", "numpy_leaf"])
def test_non_finite_numbers_are_refused(bad, place):
    # RFC 8259 has no NaN or Infinity; the writer refuses them as allow_nan=False does
    obj = place(bad)
    with pytest.raises(ValueError):
        dump_json(obj)
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_report(obj)


@pytest.mark.parametrize("obj", [
    [[1.0, 2.0], [3.0]],
    [[1.0], [2.0, 3.0]],
    [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
    [[1.0, 2.0], "ab"],
    [[1.0, 2.0], (3.0, 4.0)],
    ([1.0, 2.0], [3.0, 4.0]),
    [[1.0, 2.0], {"a": 1.0, "b": 2.0}],
    [[1.0, [2.0]], [3.0, 4.0]],
    [[], []],
    [[[]]],
    [1.0, 2, 3.0],
    [1.0, True],
    [0.5, None],
    [np.float64(0.5), 1.0, -0.0, 5e-324, 1e16, 1e-5],
    {"é\n\"": ["\u2603", "\x00\t"], "": {}},
], ids=repr)
def test_near_regular_nests_match_writer_oracle(obj):
    # every case but the last two probes one way out of the regular-float-nest step
    assert dump_report(obj) == dump_json(obj)


@pytest.mark.parametrize("obj", [
    [1.0, np.int64(1)],
    [[1.0, 2.0], np.array([3.0, 4.0])],
    np.zeros(2),
    {"a": {1.0, 2.0}},
    [[np.bool_(True)]],
    {(1, 2): 1.0},
])
def test_non_json_objects_are_refused(obj):
    with pytest.raises(TypeError):
        dump_json(obj)
    with pytest.raises(TypeError):
        dump_report(obj)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    FINITE,
    FINITE.map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, 2.0**63, -(2**64), 1e308]),
    st.text(),
)
#: regular nests of floats, as report arrays are, including zero-length sides
FLOAT_NESTS = arrays(
    np.float64, array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4), elements=FINITE
).map(np.ndarray.tolist)
#: lists of float lists of varying length: ragged, or regular by chance
RAGGED = st.lists(st.lists(FINITE, min_size=1, max_size=3), min_size=1, max_size=4)
TREES = st.recursive(
    LEAVES | FLOAT_NESTS | RAGGED,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_matches_oracle_on_json_trees(obj):
    assert dump_report(obj) == dump_json(obj)
