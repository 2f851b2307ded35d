"""Machine-readable analysis reports and the coefficient-table file format.

Input files carry a coefficient table as {"d": int, "c": [[...], ...]},
row-major with c[k][l] the weight of the Bell projector with Weyl index
(k, l). Reports serialize every number as a JSON double (repr round-trips
at up to 17 significant digits) and complex entries as [re, im] pairs, so
a report reloads losslessly.

The witness section carries the local frame of the witness vector phi
(see :mod:`belldistill.witness`): ``schmidt_left`` lists a_0 and a_1 and
``schmidt_right`` lists b_0 and b_1, so that phi = (a_0 (x) b_0 + a_1 (x)
b_1) / sqrt 2, and ``filter.sigma`` is written in the product basis of
that frame. The frame is fixed by pivots of P_A rather than by an SVD, so
these fields move continuously with the input table. ``schmidt_coefficients``
is [mu0, mu1, mu2], where mu0 and mu1 equal 1/sqrt 2 up to rounding
and mu2, the weight of phi outside the frame, is of rounding size;
``mu0`` and ``mu1`` repeat its first two entries and ``schmidt_rank`` is
always 2, since the construction refuses any other rank.

:func:`dump_report` writes exactly the bytes of
``json.dumps(obj, indent=2, allow_nan=False)`` plus a final newline, but
without the standard library's pure-Python encoder (``json`` uses its C
encoder only when ``indent`` is None). It walks dicts, lists and scalars
recursively, and writes a list that is a regular nest of floats, which is
what every array of a report becomes, in one step: its leaves are
flattened, formatted with ``float.__repr__`` and joined with a bracket and
indent skeleton memoised per shape and depth. Like ``allow_nan=False`` it
refuses NaN and infinities with ValueError, so a report is always RFC 8259
JSON.
"""

import functools
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    verdict,
)
from .witness import (
    PSI,
    RankCertificationError,
    WitnessConstruction,
    certify_rank_2,
    construct_witness_vector,
)

#: input tables whose sum deviates from one by at most this are renormalized
RENORM_TOL = 1e-9

REASON_PPT = "no negative partial-transpose eigenvalue"
REASON_BOUNDARY = "partial transpose sits on the positivity boundary"

#: the reason code each label carries; an NPT report has none
REASONS = {NPT: None, PPT: REASON_PPT, BOUNDARY: REASON_BOUNDARY}

#: a report's top-level keys, in the order they are written
REPORT_KEYS = (
    "tool_version", "seed_used", "input", "renormalized", "classification",
    "witness", "witness_spectrum", "filter", "reason",
)


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
        "mu0": float(wc.schmidt_coefficients[0]),
        "mu1": float(wc.schmidt_coefficients[1]),
        "u": _json(wc.u),
        "alpha": _json(wc.alpha),
        "psi": _json(PSI),
        "C": _json(wc.phi_tilde.reshape(3, 3)),
        "minors": _json(wc.minors),
        "det_C": _json(wc.det_C),
        "phi_tilde": _json(wc.phi_tilde),
        "phi": _json(wc.phi),
        "schmidt_coefficients": _json(wc.schmidt_coefficients),
        "schmidt_left": _json(wc.schmidt_left),
        "schmidt_right": _json(wc.schmidt_right),
        "schmidt_rank": 2,
    }


def filter_to_json(rep: FilterReport, wc: WitnessConstruction) -> dict:
    return {
        "P_A": _json(wc.P_A),
        "P_B": _json(wc.P_B),
        "q": rep.q,
        "sigma": _json(rep.sigma),
        "sigma_pt_spectrum": _json(rep.sigma_pt_spectrum),
        "p_rho_max": rep.p_rho_max,
        "p_sigma_max": rep.p_sigma_max,
        "qubit_more_robust": rep.qubit_more_robust,
        "robustness_tie": rep.robustness_tie,
    }


def analysis_report(coeffs: SimplexCoefficients, renormalized: bool = False) -> dict:
    """Full pipeline report for one coefficient table.

    When the state is NPT the witness and filter sections are populated;
    otherwise they are null and ``reason`` says why. ``seed_used`` is
    always null: a report describes a given table, not a sampling run.
    """
    rep = classify(coeffs)
    out = dict.fromkeys(REPORT_KEYS)
    out["tool_version"] = __version__
    out["input"] = coefficients_to_json(coeffs)
    out["renormalized"] = bool(renormalized)
    out["classification"] = classification_to_json(rep)
    out["reason"] = REASONS[rep.classification]
    if rep.classification != NPT:
        return out
    wc = construct_witness_vector(rep)
    out["witness"] = witness_to_json(wc)
    out["witness_spectrum"] = _json(np.linalg.eigvalsh(wc.W))
    out["filter"] = filter_to_json(filter_report(build_state(coeffs), wc), wc)
    return out


def dump_report(report: dict | list) -> str:
    """JSON text of a report, or of a list of input tables: two-space indent, final newline.

    The bytes of ``json.dumps(report, indent=2, allow_nan=False) + "\\n"``
    for any tree of dicts with string keys, lists, tuples, strings, ints,
    floats, booleans and None; raises ValueError on NaN or an infinity and
    TypeError on anything else.
    """
    return _encode(report, 0) + "\n"


def _encode(obj, depth: int) -> str:
    """JSON text of ``obj`` whose closing bracket sits ``depth`` indents deep."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj) is list and (text := _float_nest(obj, depth)) is not None:
            return text
        inner = "\n" + "  " * (depth + 1)
        body = ("," + inner).join([_encode(x, depth + 1) for x in obj])
        return "[" + inner + body + "\n" + "  " * depth + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _encode(value, depth + 1))
        inner = "\n" + "  " * (depth + 1)
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_nest(a: list, depth: int) -> str | None:
    """JSON text of a nonempty regular nest of lists of finite floats, else None.

    The shape is probed along the first elements; every level must then
    hold lists of exactly that length, and every leaf must be a float
    (``float.__repr__`` raises TypeError on anything else).
    """
    shape = [len(a)]
    x = a[0]
    while type(x) is list and x:
        shape.append(len(x))
        x = x[0]
    level = a
    for n in shape[1:]:
        if {*map(type, level)} != {list} or {*map(len, level)} != {n}:
            return None
        level = list(chain.from_iterable(level))
    try:
        reprs = list(map(float.__repr__, level))
    except TypeError:
        return None
    parts = [None] * (2 * len(reprs) + 1)
    parts[::2] = _skeleton(tuple(shape), depth)
    parts[1::2] = reprs
    text = "".join(parts)
    # only 'nan', 'inf' and '-inf' put a letter n into the text; the
    # generic walk then raises on the offending leaf
    return None if "n" in text else text


@functools.lru_cache(maxsize=64)
def _skeleton(shape: tuple, depth: int) -> tuple:
    """The prod(shape) + 1 pieces of text between and around the leaves of a regular nest.

    Bounded so that a process dumping many shapes keeps at most 64; a
    report has about 15.
    """
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + "]"
    if len(shape) == 1:
        return ("[" + inner,) + ("," + inner,) * (shape[0] - 1) + (close,)
    first, *mid, last = _skeleton(shape[1:], depth + 1)
    mid = tuple(mid)
    return (
        ("[" + inner + first,)
        + (mid + (last + "," + inner + first,)) * (shape[0] - 1)
        + mid
        + (last + close,)
    )


#: keys that validate_report reads from each section; a section that is not
#: null must be an object carrying them, and only witness and filter may be null
SECTION_KEYS = {
    "classification": ("eigenvalues", "lambda_min", "negative_count", "classification"),
    "witness": ("lambda_min", "C", "minors", "det_C"),
    "filter": (),
}


def validate_report(report: dict) -> None:
    """Re-validate a decoded report; raises ValueError on any inconsistency.

    The report's type, and each section's type and required keys, are
    checked before they are read, so a malformed report raises ValueError
    too, not KeyError or TypeError. The label must be
    :func:`~belldistill.simplex.verdict` of lambda_min, negative_count must
    count the eigenvalues that rule calls negative, and the witness,
    witness_spectrum, filter and reason fields must be set or null as the
    label requires. An NPT report's witness lambda_min must be the
    classification's, its coefficient matrix C, decoded from [re, im] pairs,
    must pass :func:`~belldistill.witness.certify_rank_2`, and its minors
    and det_C must equal the principal minors and the determinant that the
    certificate computes from C. Last, the report must be one that
    :func:`dump_report` writes, so a NaN or an infinity anywhere raises.
    """
    if not isinstance(report, dict):
        raise ValueError(f"report must be an object, got {type(report).__name__}")
    missing = set(REPORT_KEYS) - set(report)
    if missing:
        raise ValueError(f"report is missing keys {sorted(missing)}")
    for name, keys in SECTION_KEYS.items():
        section = report[name]
        if section is None and name != "classification":
            continue
        if not isinstance(section, dict):
            raise ValueError(f"{name} section must be an object, got {type(section).__name__}")
        missing = set(keys) - set(section)
        if missing:
            raise ValueError(f"{name} section is missing keys {sorted(missing)}")
    coeffs, _ = parse_coefficients(report["input"])
    cls = report["classification"]
    eigs = cls["eigenvalues"]
    if not isinstance(eigs, list) or not all(type(x) in (int, float) for x in eigs):
        raise ValueError("classification eigenvalues must be a list of numbers")
    if len(eigs) != coeffs.d**2:
        raise ValueError(f"classification lists {len(eigs)} eigenvalues for d={coeffs.d}")
    if eigs != sorted(eigs):
        raise ValueError("classification eigenvalues are not ascending")
    if cls["lambda_min"] != eigs[0]:
        raise ValueError("lambda_min does not equal the smallest eigenvalue")
    label = cls["classification"]
    if label != verdict(cls["lambda_min"]):
        raise ValueError(f"classification {label} contradicts lambda_min {cls['lambda_min']!r}")
    negatives = sum(verdict(x) == NPT for x in eigs)
    if type(cls["negative_count"]) is not int or cls["negative_count"] != negatives:
        raise ValueError(f"negative_count {cls['negative_count']!r}, not {negatives}")
    if type(report["renormalized"]) is not bool:
        raise ValueError(f"renormalized must be a boolean, got {report['renormalized']!r}")
    is_npt = label == NPT
    absent = [report[name] is None for name in ("witness", "witness_spectrum", "filter")]
    if is_npt and any(absent):
        raise ValueError("NPT report lacks a witness, witness_spectrum or filter section")
    if not is_npt and not all(absent):
        raise ValueError(f"{label} report carries witness, witness_spectrum or filter data")
    if report["reason"] != REASONS[label]:
        raise ValueError(f"reason {report['reason']!r} does not fit a {label} report")
    if is_npt:
        witness = report["witness"]
        if witness["lambda_min"] != cls["lambda_min"]:
            raise ValueError("witness lambda_min differs from the classification's lambda_min")
        pairs = np.asarray(witness["C"], dtype=object)
        if pairs.shape != (3, 3, 2) or not all(type(x) in (int, float) for x in pairs.flat):
            raise ValueError("witness C must be 3 x 3 [re, im] pairs of numbers")
        try:
            # a view pairs re and im without arithmetic, so inf and NaN raise no warning
            minors, det = certify_rank_2(pairs.astype(float).view(complex)[..., 0])
        except (OverflowError, RankCertificationError) as exc:
            raise ValueError(f"witness C fails its rank-2 certificate: {exc}") from exc
        # compared as witness_to_json writes them; any other value or shape differs
        if witness["minors"] != _json([minors[j][j] for j in range(3)]):
            raise ValueError("witness minors differ from the principal minors of C")
        if witness["det_C"] != _json(det):
            raise ValueError("witness det_C differs from det C")
    dump_report(report)
