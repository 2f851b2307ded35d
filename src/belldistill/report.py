"""Machine-readable analysis reports and the coefficient-table file format.

Input files carry a coefficient table as {"d": int, "c": [[...], ...]},
row-major with c[k][l] the weight of the Bell projector with Weyl index
(k, l). Reports serialize every number as a JSON double (repr round-trips
at up to 17 significant digits) and complex entries as [re, im] pairs, so
a report reloads losslessly. :func:`analysis_report` writes a report as
one dict literal, its nine top-level keys in the order they are written.

The witness section carries the local frame of the witness vector phi
(see :mod:`belldistill.witness`): ``schmidt_left`` lists a_0 and a_1 and
``schmidt_right`` lists b_0 and b_1, so that phi = (a_0 (x) b_0 + a_1 (x)
b_1) / sqrt 2, and ``filter.sigma`` is written in the product basis of
that frame. The frame is fixed by pivots of P_A rather than by an SVD, so
these fields move continuously with the input table. ``schmidt_coefficients``
is [mu0, mu1, mu2], where mu0 and mu1 equal 1/sqrt 2 up to rounding
and mu2, the weight of phi outside the frame, is of rounding size;
``mu0`` and ``mu1`` repeat its first two entries and ``schmidt_rank`` is
always 2, since the construction has rank 2 by an identity. The section
carries the coefficient matrix ``C`` but not its minors or determinant,
which that identity fixes: det C = 0 for every table.

:func:`dump_report` writes exactly the bytes of
``json.dumps(obj, indent=2, allow_nan=False)`` plus a final newline, but
without the standard library's pure-Python encoder (``json`` uses its C
encoder only when ``indent`` is None). It walks dicts, lists and scalars
recursively, and writes a list that is a regular nest of floats, which is
what every array of a report becomes, in one step: its leaves are
flattened, formatted with ``float.__repr__`` and joined with the bracket and
indent skeleton that ``json.dumps`` writes for that shape, memoised per
shape and depth. Like ``allow_nan=False`` it refuses NaN and infinities
with ValueError, so a report is always RFC 8259 JSON.
"""

import functools
import json
import math
import reprlib
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .filtering import filter_report
from .simplex import (
    BOUNDARY,
    NPT,
    PPT,
    InvalidCoefficientsError,
    SimplexCoefficients,
    build_state,
    check_entries,
    classify,
)
from .witness import PSI, construct_witness_vector

#: input tables whose sum deviates from one by at most this are renormalized
RENORM_TOL = 1e-9

#: the reason code each label carries; an NPT report has none
REASONS = {NPT: None, PPT: "no negative partial-transpose eigenvalue",
           BOUNDARY: "partial transpose sits on the positivity boundary"}


def _json(a) -> list:
    """Nested lists of floats for an array; complex128 entries become [re, im] pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        # a complex128 entry is its two float64 parts in memory: [re, im]
        a = np.ascontiguousarray(a).view(np.float64).reshape(a.shape + (2,))
    return a.tolist()


def _table(obj) -> tuple[int, np.ndarray]:
    """d and the float table of a decoded input file, after its type checks."""
    if not isinstance(obj, dict) or "d" not in obj or "c" not in obj:
        raise InvalidCoefficientsError('input must be an object with keys "d" and "c"')
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise InvalidCoefficientsError(f'"d" must be an integer, got {d!r}')
    try:
        entries = np.asarray(obj["c"], dtype=object)
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entries.flat):
            raise TypeError("entries must be numbers, not strings, booleans or null")
        return d, entries.astype(float)
    except (TypeError, ValueError, OverflowError, RuntimeError) as exc:
        # RuntimeError: numpy iterates at most 32 dimensions of a deeper nest
        raise InvalidCoefficientsError(f"coefficient table is not numeric: {exc}") from exc


def parse_coefficients(obj) -> tuple[SimplexCoefficients, bool]:
    """Coefficient table from a decoded input file, applying the renormalization rule.

    A sum within RENORM_TOL of one, but not equal to it, is divided by
    that sum (the report records that this happened). The quotient's sum is
    one only up to rounding, and misses it by an ulp on about a third of
    such tables. A non-finite entry, or one too large to sum, is refused
    before the sum (:func:`check_entries`); shape, negativity and any sum
    further off are left to :class:`SimplexCoefficients`. Every rejection
    raises InvalidCoefficientsError.
    """
    d, c = _table(obj)
    check_entries(c)
    total = float(c.sum())
    renormalized = total != 1.0 and abs(total - 1.0) <= RENORM_TOL
    if renormalized:
        c = c / total
    return SimplexCoefficients(d=d, c=c), renormalized


def coefficients_to_json(coeffs: SimplexCoefficients) -> dict:
    return {"d": coeffs.d, "c": _json(coeffs.c)}


def analysis_report(coeffs: SimplexCoefficients, renormalized: bool = False) -> dict:
    """Full pipeline report for one coefficient table, its keys in the order they are written.

    When the state is NPT the witness and filter sections are populated;
    otherwise they are null and ``reason`` says why. ``seed_used`` is
    always null: a report describes a given table, not a sampling run.
    """
    rep = classify(coeffs)
    npt = rep.classification == NPT
    if npt:
        wc = construct_witness_vector(rep)
        fr = filter_report(build_state(coeffs), wc)
    return {
        "tool_version": __version__,
        "seed_used": None,
        "input": coefficients_to_json(coeffs),
        "renormalized": bool(renormalized),
        "classification": {
            "eigenvalues": _json(rep.eigenvalues),
            "lambda_min": float(rep.lambda_min),
            "negative_count": int(rep.negative_count),
            "classification": rep.classification,
        },
        "witness": {
            "lambda_min": wc.lambda_min,
            "mu0": float(wc.schmidt_coefficients[0]),
            "mu1": float(wc.schmidt_coefficients[1]),
            "u": _json(wc.u),
            "alpha": _json(wc.alpha),
            "psi": _json(PSI),
            "C": _json(wc.phi_tilde.reshape(3, 3)),
            "phi_tilde": _json(wc.phi_tilde),
            "phi": _json(wc.phi),
            "schmidt_coefficients": _json(wc.schmidt_coefficients),
            "schmidt_left": _json(wc.schmidt_left),
            "schmidt_right": _json(wc.schmidt_right),
            "schmidt_rank": 2,
        } if npt else None,
        "witness_spectrum": _json(np.linalg.eigvalsh(wc.W)) if npt else None,
        "filter": {
            "P_A": _json(wc.P_A),
            "P_B": _json(wc.P_B),
            "q": fr.q,
            "sigma": _json(fr.sigma),
            "sigma_pt_spectrum": _json(fr.sigma_pt_spectrum),
            "p_rho_max": fr.p_rho_max,
            "p_sigma_max": fr.p_sigma_max,
            "qubit_more_robust": fr.qubit_more_robust,
            "robustness_tie": fr.robustness_tie,
        } if npt else None,
        "reason": REASONS[rep.classification],
    }


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

    They are ``json.dumps`` of a nest of zeros of that shape, each newline
    indented ``depth`` levels deeper, split at its ``0.0`` leaves. Bounded so
    that a process dumping many shapes keeps at most 64; a report has about 15.
    """
    text = json.dumps(np.zeros(shape).tolist(), indent=2)
    return tuple(text.replace("\n", "\n" + "  " * depth).split("0.0"))


def validate_report(report: dict) -> None:
    """Check that a decoded report is the one :func:`analysis_report` writes for its input.

    The report's ``input`` table is analyzed as written, without a second
    renormalization, with the report's own ``renormalized`` flag, and the
    report must equal the result leaf by leaf, in type and in value (a
    float's repr, so -0.0 is not 0.0). The first leaf that differs is named
    by its path, as in ``report.filter.q is -3.0, not 0.666...``; a report
    that is not an object, a flag that is not a boolean and an input that
    does not parse raise too, all as ValueError.

    The rule is exact, so it holds for reports written by the same build:
    another numpy or LAPACK build may move the last bits of a report, and
    such a report does not validate.
    """
    if not isinstance(report, dict):
        raise ValueError(f"report must be an object, got {type(report).__name__}")
    renormalized = report.get("renormalized")
    if type(renormalized) is not bool:
        raise ValueError(f"renormalized must be a boolean, got {reprlib.repr(renormalized)}")
    expected = analysis_report(SimplexCoefficients(*_table(report.get("input"))), renormalized)
    difference = _first_difference(report, expected, "report")
    if difference is not None:
        raise ValueError(difference)


def _first_difference(got, want, path: str) -> str | None:
    """Where ``got`` first differs from ``want`` in type or value, named by path; None if nowhere.

    The walk follows ``want``, so it goes no deeper than ``want`` is nested.
    """
    if type(got) is not type(want) or (
        not isinstance(want, (dict, list)) and (got != want or repr(got) != repr(want))
    ):
        return f"{path} is {_show(got)}, not {_show(want)}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            missing = [key for key in want if key not in got]
            if missing:
                return f"{path} is missing keys {missing}"
            return f"{path} has extra keys {reprlib.repr([key for key in got if key not in want])}"
        children = ((f"{path}.{key}", got[key], want[key]) for key in want)
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path} has {len(got)} entries, not {len(want)}"
        children = ((f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(got, want)))
    else:
        return None
    for child_path, x, y in children:
        difference = _first_difference(x, y, child_path)
        if difference is not None:
            return difference
    return None


def _show(node) -> str:
    """A report node for a message: an object or a list by its kind, a leaf by a short repr."""
    return {dict: "an object", list: "a list"}.get(type(node)) or reprlib.repr(node)
