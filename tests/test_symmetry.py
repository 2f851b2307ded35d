"""The report's invariants under the symmetry group of the magic simplex.

A d = 3 Bell-diagonal table is a function on the Weyl phase space Z_3 x Z_3.
Each affine map (k, l) -> M (k, l) + (a, b) mod 3 with det M = +-1 moves the
weight of the Bell projector (k, l) to its image. The translations act on
the state as the local unitaries W_ab (x) 1, the linear maps of det 1 as
local Clifford unitaries, and those of det -1 also conjugate the state, so
every map keeps the partial-transpose spectrum (Baumgartner, Hiesmayr &
Narnhofer, PRA 74, 032327 (2006)). The group has 9 x 48 = 432 elements.

The construction is not covariant: the image table may get another rank-2
vector of the ground eigenspace. What must hold is every field that is an
invariant of the state: the PT spectrum and its verdict, q, both noise
thresholds, sigma's PT spectrum, W's spectrum and the Schmidt coefficients
mu_0 and mu_1. Each image runs all 9 translations and a seeded choice of
the linear maps, composed with a seeded translation.
"""

import itertools

import numpy as np
import pytest

from belldistill.filtering import TIE_TOL, filter_report
from belldistill.simplex import NPT, SimplexCoefficients, build_state, classify
from belldistill.witness import construct_witness_vector

from conftest import NPT_SEEDS, outputs, random_table, sparse_table

#: how far an invariant of an image may lie from the table's own
TOL = 2e-15

#: the 48 matrices over Z_3 with det +-1, the identity first
LINEAR = [
    np.array(m).reshape(2, 2)
    for m in itertools.product(range(3), repeat=4)
    if (m[0] * m[3] - m[1] * m[2]) % 3
]
LINEAR.sort(key=lambda m: not np.array_equal(m, np.eye(2)))

#: affine maps (M, (a, b)) run on every table besides the nine translations
LINEAR_PER_TABLE = 12


def image(coeffs: SimplexCoefficients, m: np.ndarray, shift) -> SimplexCoefficients:
    """The table whose weight at M (k, l) + shift (mod 3) is the weight of (k, l)."""
    k, l = np.indices((3, 3)).reshape(2, -1)
    kk, ll = (m @ np.array([k, l]) + np.reshape(shift, (2, 1))) % 3
    c = np.empty((3, 3))
    c[kk, ll] = coeffs.c[k, l]
    return SimplexCoefficients(d=3, c=c)


def invariants(coeffs: SimplexCoefficients) -> tuple:
    """The report fields of an NPT table that depend on its state alone, and its robustness flags."""
    spectrum = classify(coeffs)
    wc = construct_witness_vector(spectrum)
    rep = filter_report(build_state(coeffs), wc)
    values = {
        "eigenvalues": spectrum.eigenvalues,
        "q": rep.q,
        "p_rho_max": rep.p_rho_max,
        "p_sigma_max": rep.p_sigma_max,
        "sigma_pt_spectrum": rep.sigma_pt_spectrum,
        "witness_spectrum": np.linalg.eigvalsh(wc.W),
        "mu": wc.schmidt_coefficients[:2],
    }
    labels = (spectrum.classification, spectrum.negative_count)
    return values, labels, (rep.robustness_tie, rep.qubit_more_robust)


def npt(tables) -> list:
    return [c for c in tables if classify(c).classification == NPT]


FAMILIES = {
    "flat": [random_table(s) for s in NPT_SEEDS[:60]],
    "sparse": npt(sparse_table(s) for s in range(100)),
    "face_edge": npt(SimplexCoefficients(**outputs.face_table(*e, 1e-3)) for e in outputs.EDGES),
}


def test_the_group_has_432_elements():
    assert len(LINEAR) == 48 and np.array_equal(LINEAR[0], np.eye(2))
    maps = {(image(random_table(0), m, s).c.tobytes()) for m in LINEAR for s in np.ndindex(3, 3)}
    assert len(maps) == 432
    assert [len(tables) for tables in FAMILIES.values()] == [60, 90, 12]


@pytest.mark.parametrize("family", FAMILIES)
def test_invariants_hold_on_the_orbit(family):
    rng = np.random.default_rng(list(FAMILIES).index(family))
    worst = 0.0
    for coeffs in FAMILIES[family]:
        values, labels, flags = invariants(coeffs)
        gap = abs(values["p_sigma_max"] - values["p_rho_max"])
        picks = rng.choice(len(LINEAR) - 1, LINEAR_PER_TABLE, replace=False) + 1
        maps = [(LINEAR[0], s) for s in np.ndindex(3, 3)]
        maps += [(LINEAR[j], rng.integers(3, size=2)) for j in picks]
        for m, shift in maps:
            got, got_labels, got_flags = invariants(image(coeffs, m, shift))
            where = (coeffs.c.tolist(), m.tolist(), list(shift))
            assert got_labels == labels, where
            for key, value in values.items():
                dev = float(np.abs(np.subtract(got[key], value)).max())
                assert dev <= TOL, (key, dev, where)
                worst = max(worst, dev)
            # the flags compare thresholds, so they agree away from the TIE_TOL edge
            if gap > 2 * TIE_TOL:
                assert got_flags == flags, where
    print(f"{family}: {len(FAMILIES[family])} tables, worst deviation {worst:.3g}")
