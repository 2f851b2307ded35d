"""Machine-readable analysis reports and the coefficient-table file format.

Input files carry a coefficient table as {"d": int, "c": [[...], ...]},
row-major with c[k][l] the weight of the Bell projector with Weyl index
(k, l). Reports serialize every number as a JSON double (repr round-trips
at up to 17 significant digits) and complex entries as [re, im] pairs, so
a report reloads losslessly.

Three fields depend on a choice of basis rather than on the state alone:
``witness.schmidt_left``, ``witness.schmidt_right`` and ``filter.sigma``.
The witness vector has equal Schmidt coefficients, mu0 = mu1 = 1/sqrt 2,
so the SVD may return any orthonormal basis of that degenerate singular
subspace, and rounding differences of 1e-16 in the input can move these
fields by O(1). The projectors ``P_A`` and ``P_B``, ``q``, the thresholds
and every spectrum do not depend on that choice.
"""

import json

import numpy as np

from . import __version__
from .filtering import FilterReport, filter_report
from .simplex import (
    BOUNDARY,
    NPT,
    PPT,
    InvalidCoefficientsError,
    PTSpectrumReport,
    SimplexCoefficients,
    build_state,
    classify,
)
from .witness import WitnessConstruction, construct_witness_vector, witness_operator

#: input tables whose sum deviates from one by at most this are renormalized
RENORM_TOL = 1e-9

REASON_PPT = "no negative partial-transpose eigenvalue"
REASON_BOUNDARY = "partial transpose sits on the positivity boundary"


def _json(a) -> list:
    """Nested lists of floats for an array; complex entries become [re, im] pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], -1)
    return a.tolist()


def parse_coefficients(obj) -> tuple[SimplexCoefficients, bool]:
    """Coefficient table from a decoded input file, applying the renormalization rule.

    A sum within RENORM_TOL of one is silently scaled to exactly one (the
    report records that this happened). Shape, finiteness, negativity and
    any sum further off are left to :class:`SimplexCoefficients`; every
    rejection raises InvalidCoefficientsError.
    """
    if not isinstance(obj, dict) or "d" not in obj or "c" not in obj:
        raise InvalidCoefficientsError('input must be an object with keys "d" and "c"')
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise InvalidCoefficientsError(f'"d" must be an integer, got {d!r}')
    try:
        entries = np.asarray(obj["c"], dtype=object)
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entries.flat):
            raise TypeError("entries must be numbers, not strings, booleans or null")
        c = entries.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidCoefficientsError(f"coefficient table is not numeric: {exc}") from exc
    total = float(c.sum())
    renormalized = total != 1.0 and abs(total - 1.0) <= RENORM_TOL
    if renormalized:
        c = c / total
    return SimplexCoefficients(d=d, c=c), renormalized


def coefficients_to_json(coeffs: SimplexCoefficients) -> dict:
    return {"d": coeffs.d, "c": _json(coeffs.c)}


def classification_to_json(rep: PTSpectrumReport) -> dict:
    return {
        "eigenvalues": _json(rep.eigenvalues),
        "lambda_min": float(rep.lambda_min),
        "negative_count": int(rep.negative_count),
        "classification": rep.classification,
    }


def witness_to_json(wc: WitnessConstruction) -> dict:
    return {
        "lambda_min": wc.lambda_min,
        "mu0": float(wc.schmidt.coefficients[0]),
        "mu1": float(wc.schmidt.coefficients[1]),
        "u": _json(wc.u),
        "alpha": _json(wc.alpha),
        "psi": _json(wc.psi),
        "C": _json(wc.C),
        "minors": _json(wc.minors),
        "det_C": _json(wc.det_C),
        "phi_tilde": _json(wc.phi_tilde),
        "phi": _json(wc.phi),
        "schmidt_coefficients": _json(wc.schmidt.coefficients),
        "schmidt_left": _json(wc.schmidt.left_vectors.T),
        "schmidt_right": _json(wc.schmidt.right_vectors.T),
        "schmidt_rank": wc.schmidt.schmidt_rank,
    }


def filter_to_json(rep: FilterReport) -> dict:
    return {
        "P_A": _json(rep.P_A),
        "P_B": _json(rep.P_B),
        "q": rep.q,
        "sigma": _json(rep.sigma),
        "sigma_pt_spectrum": _json(rep.sigma_pt_spectrum),
        "p_rho_max": rep.p_rho_max,
        "p_sigma_max": rep.p_sigma_max,
        "qubit_more_robust": rep.qubit_more_robust,
        "robustness_tie": rep.robustness_tie,
    }


def analysis_report(
    coeffs: SimplexCoefficients,
    renormalized: bool = False,
    seed_used=None,
) -> dict:
    """Full pipeline report for one coefficient table.

    When the state is NPT the witness and filter sections are populated;
    otherwise they are null and ``reason`` says why.
    """
    rep = classify(coeffs)
    out = {
        "tool_version": __version__,
        "seed_used": seed_used,
        "input": coefficients_to_json(coeffs),
        "renormalized": bool(renormalized),
        "classification": classification_to_json(rep),
        "witness": None,
        "witness_spectrum": None,
        "filter": None,
        "reason": None,
    }
    if rep.classification != NPT:
        out["reason"] = REASON_PPT if rep.classification == PPT else REASON_BOUNDARY
        return out
    wc = construct_witness_vector(rep)
    wop = witness_operator(wc)
    out["witness"] = witness_to_json(wc)
    out["witness_spectrum"] = _json(np.linalg.eigvalsh(wop.W))
    out["filter"] = filter_to_json(filter_report(build_state(coeffs), wc))
    return out


def dump_report(report: dict | list) -> str:
    """JSON text of a report, or of a list of input tables: two-space indent, final newline."""
    return json.dumps(report, indent=2) + "\n"


def validate_report(report: dict) -> None:
    """Re-validate a decoded report; raises ValueError on any inconsistency."""
    required = {
        "tool_version",
        "seed_used",
        "input",
        "renormalized",
        "classification",
        "witness",
        "witness_spectrum",
        "filter",
        "reason",
    }
    missing = required - set(report)
    if missing:
        raise ValueError(f"report is missing keys {sorted(missing)}")
    coeffs, _ = parse_coefficients(report["input"])
    cls = report["classification"]
    eigs = cls["eigenvalues"]
    if len(eigs) != coeffs.d**2:
        raise ValueError(f"classification lists {len(eigs)} eigenvalues for d={coeffs.d}")
    if eigs != sorted(eigs):
        raise ValueError("classification eigenvalues are not ascending")
    if cls["lambda_min"] != eigs[0]:
        raise ValueError("lambda_min does not equal the smallest eigenvalue")
    if cls["classification"] not in (NPT, PPT, BOUNDARY):
        raise ValueError(f"unknown classification {cls['classification']!r}")
    is_npt = cls["classification"] == NPT
    if is_npt and (report["witness"] is None or report["filter"] is None):
        raise ValueError("NPT report lacks witness or filter section")
    if not is_npt and report["reason"] is None:
        raise ValueError("non-NPT report lacks a reason code")
    if not is_npt and (report["witness"] is not None or report["filter"] is not None):
        raise ValueError("non-NPT report carries witness or filter data")
    if is_npt and report["witness"]["lambda_min"] != cls["lambda_min"]:
        raise ValueError("witness lambda_min differs from the classification's lambda_min")
