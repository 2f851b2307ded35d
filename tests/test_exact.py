"""classify against the exact d = 3 oracle of tests/exact.py."""

from fractions import Fraction

import exact
from belldistill.report import coefficients_to_json, parse_coefficients
from belldistill.simplex import BOUNDARY_TOL, classify, sample_simplex
from belldistill.verify import trial_seeds

from conftest import outputs

#: how far the float lambda_min may lie from the exact one, and the margin
#: around +-BOUNDARY_TOL inside which the float label may differ from the exact one
MARGIN = 1e-15


def _inside_margin(coeffs) -> bool:
    """Hold classify of one d = 3 table to the oracle; True if its lambda_min is near +-BOUNDARY_TOL."""
    rep = classify(coeffs)
    e = exact.characteristic(exact.block0(coeffs.c.tolist()))
    lo, hi = exact.lambda_min_bracket(e)
    # the sign read off e2 and e3 and the bisection, whose first probe is 0, agree
    sign = exact.sign_of_lambda_min(e)
    assert (lo < 0 and hi <= 0) if sign < 0 else hi == 0 if sign == 0 else lo >= 0, (sign, lo, hi)
    lam = Fraction(rep.lambda_min)
    assert max(abs(lam - lo), abs(lam - hi)) <= MARGIN, (coeffs.c.tolist(), float(lam - lo))
    if any(abs(abs(x) - BOUNDARY_TOL) <= MARGIN for x in (lo, hi)):
        return True
    # the oracle's own label, so a wrong comparison in simplex.verdict cannot pass on both sides
    assert rep.classification == exact.verdict(lo, hi, BOUNDARY_TOL), coeffs.c.tolist()
    return False


def test_classify_matches_the_exact_verdict_on_sampled_tables():
    tables = [sample_simplex(seed) for seed in trial_seeds(5, 2000)]
    inside = sum(_inside_margin(coeffs) for coeffs in tables)
    print(f"{len(tables)} sampled tables, {inside} within {MARGIN} of +-BOUNDARY_TOL")


def test_classify_matches_the_exact_verdict_on_the_output_check_families():
    # flat drawn as `sample --count 100 --seed 1`, as tools/outputs.py writes it
    flat = [coefficients_to_json(sample_simplex(s)) for s in trial_seeds(1, 100)]
    tables = [parse_coefficients(table)[0] for table in outputs.table_families(flat).values()]
    # all but the 15 tables with d in {2, 4, 5}
    tables = [coeffs for coeffs in tables if coeffs.d == 3]
    assert len(tables) == 739
    inside = sum(_inside_margin(coeffs) for coeffs in tables)
    print(f"{len(tables)} output-check tables, {inside} within {MARGIN} of +-BOUNDARY_TOL")
