import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistill import simplex
from belldistill.linalg import dag, partial_transpose
from belldistill.simplex import (
    BOUNDARY,
    BOUNDARY_TOL,
    NPT,
    PPT,
    InvalidCoefficientsError,
    SamplingExhaustedError,
    SimplexCoefficients,
    build_state,
    classify,
    lambda_min_multiplicity,
    pt_block,
    sample_npt,
    sample_simplex,
)
from belldistill.weyl import bell_unitary, fourier, weyl

from conftest import isotropic_table, random_table, sparse_table, uniform_table
from reference import apply_weyl_channel, assemble_pt_from_blocks


# ------------------------------------------------------------ validation

def test_rejects_negative_entry():
    c = np.full((3, 3), 1 / 9)
    c[0, 0] = -1 / 9
    c[1, 1] = 3 / 9
    with pytest.raises(InvalidCoefficientsError, match="negative"):
        SimplexCoefficients(d=3, c=c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entry(bad):
    # the only gate in front of classify's eigensolves: no NaN or inf gets past it
    c = np.full((3, 3), 1.0 / 9.0)
    c[1, 2] = bad
    with pytest.raises(InvalidCoefficientsError, match="non-finite"):
        SimplexCoefficients(d=3, c=c)


def test_rejects_bad_sum():
    with pytest.raises(InvalidCoefficientsError, match="sum"):
        SimplexCoefficients(d=3, c=np.full((3, 3), 0.1))


@pytest.mark.filterwarnings("error")
def test_rejects_entries_too_large_to_sum():
    # three finite entries of 1e308 overflow a float sum; the table is refused
    # before the sum is taken, so numpy raises no RuntimeWarning
    c = np.zeros((3, 3))
    c[0] = 1e308
    with pytest.raises(InvalidCoefficientsError, match="too large to sum"):
        SimplexCoefficients(d=3, c=c)


@pytest.mark.filterwarnings("error")
def test_entries_at_the_size_bound_sum_without_overflow():
    # nine entries of max / 18 pass the size check and sum to max / 2; one
    # step above that bound is refused
    bound = np.finfo(float).max / 18
    with pytest.raises(InvalidCoefficientsError, match=r"sum to 8\.98\d*e\+307, not 1"):
        SimplexCoefficients(d=3, c=np.full((3, 3), bound))
    with pytest.raises(InvalidCoefficientsError, match="too large to sum"):
        SimplexCoefficients(d=3, c=np.full((3, 3), np.nextafter(bound, np.inf)))


def test_rejects_shape_mismatch():
    with pytest.raises(InvalidCoefficientsError):
        SimplexCoefficients(d=3, c=np.full((2, 2), 0.25))


def test_table_is_read_only():
    coeffs = uniform_table()
    with pytest.raises(ValueError):
        coeffs.c[0, 0] = 0.5


# ----------------------------------------------------------- build_state

def test_build_state_pure_bell(pure_bell):
    omega = np.zeros(9, dtype=complex)
    omega[[0, 4, 8]] = 1 / np.sqrt(3)
    expected = np.outer(omega, omega.conj())
    assert np.abs(build_state(pure_bell) - expected).max() < 1e-15


def test_build_state_uniform(uniform):
    assert np.abs(build_state(uniform) - np.eye(9) / 9).max() < 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_state_spectrum_is_the_coefficient_table(seed):
    coeffs = random_table(seed)
    rho = build_state(coeffs)
    eigs = np.linalg.eigvalsh(rho)
    assert np.abs(eigs - np.sort(coeffs.c.ravel())).max() < 1e-12


def test_isotropic_state_spectrum():
    coeffs = isotropic_table(0.5)
    eigs = np.linalg.eigvalsh(build_state(coeffs))
    expected = np.sort(np.array([1 - 8 * 0.5 / 9] + [0.5 / 9] * 8))
    assert np.abs(eigs - expected).max() < 1e-12


def test_state_properties(pure_bell):
    rho = build_state(random_table(7))
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - dag(rho)).max() < 1e-15
    assert np.linalg.eigvalsh(rho)[0] > -1e-14


# ----------------------------------------------------- the Weyl channel

def test_channel_fixes_pure_bell(pure_bell):
    assert np.abs(apply_weyl_channel(pure_bell) - build_state(pure_bell)).max() < 1e-15


def test_channel_depolarizes(uniform):
    assert np.abs(apply_weyl_channel(uniform) - np.eye(9) / 9).max() < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_channel_matches_projector_sum(seed):
    coeffs = random_table(seed)
    assert np.abs(apply_weyl_channel(coeffs) - build_state(coeffs)).max() <= 1e-12


# ------------------------------------------------------------- PT blocks

def test_block_of_pure_bell(pure_bell):
    expected = np.zeros((3, 3))
    expected[0, 0] = 1 / 3
    expected[1, 2] = expected[2, 1] = 1 / 3
    assert np.abs(pt_block(pure_bell, 0) - expected).max() < 1e-15


def test_block_of_uniform(uniform):
    for m in range(3):
        assert np.abs(pt_block(uniform, m) - np.eye(3) / 9).max() < 1e-15


def test_block_index_out_of_range(uniform):
    with pytest.raises(ValueError):
        pt_block(uniform, 3)


@pytest.mark.parametrize("seed", range(5))
def test_blocks_match_direct_partial_transpose(seed):
    # independent route: conjugate the direct partial transpose into the
    # Bell frame and cut out the diagonal blocks
    coeffs = random_table(seed)
    u = bell_unitary(3)
    frame = u @ partial_transpose(build_state(coeffs), 3, 3) @ dag(u)
    for m in range(3):
        block = frame[m * 3:(m + 1) * 3, m * 3:(m + 1) * 3]
        assert np.abs(block - pt_block(coeffs, m)).max() <= 1e-12
    # off-diagonal blocks vanish
    for m in range(3):
        for n in range(3):
            if m != n:
                assert np.abs(frame[m * 3:(m + 1) * 3, n * 3:(n + 1) * 3]).max() < 1e-13


@pytest.mark.parametrize("d", [3, 4, 5])
def test_block_shift_relation(d):
    coeffs = random_table(17, d=d)
    w10 = weyl(d, 1, 0)
    for m in range(d):
        lhs = pt_block(coeffs, (m + 2) % d)
        rhs = w10 @ pt_block(coeffs, m) @ dag(w10)
        assert np.abs(lhs - rhs).max() <= 1e-13


@pytest.mark.parametrize("d", [3, 5])
def test_blocks_share_spectrum_for_odd_dimension(d):
    coeffs = random_table(23, d=d)
    spectra = [np.linalg.eigvalsh(pt_block(coeffs, m)) for m in range(d)]
    for spec in spectra[1:]:
        assert np.abs(spec - spectra[0]).max() <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_fourier_frame_block_diagonal(seed):
    # <k| F^dag B_m F |k> equals the marginal sum c[m-k, :] / 3, hence >= 0
    coeffs = random_table(seed + 40)
    f = fourier(3)
    for m in range(3):
        diag = np.diagonal(dag(f) @ pt_block(coeffs, m) @ f)
        expected = np.array([coeffs.c[(m - k) % 3, :].sum() / 3 for k in range(3)])
        assert np.abs(diag - expected).max() < 1e-13
        assert diag.real.min() >= -1e-12


# ------------------------------------------------------ block assembly

def test_assemble_pure_bell(pure_bell):
    fl = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            fl[b * 3 + a, a * 3 + b] = 1.0
    assert np.abs(assemble_pt_from_blocks(pure_bell) - fl / 3).max() <= 1e-12


def test_assemble_uniform(uniform):
    assert np.abs(assemble_pt_from_blocks(uniform) - np.eye(9) / 9).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_assemble_matches_direct_pt_across_dims(d):
    for seed in range(10):
        coeffs = random_table(seed, d=d)
        direct = partial_transpose(build_state(coeffs), d, d)
        assert np.abs(assemble_pt_from_blocks(coeffs) - direct).max() <= 1e-12


# -------------------------------------------------------- classification

def test_classify_pure_bell(pure_bell):
    rep = classify(pure_bell)
    assert rep.classification == NPT
    assert abs(rep.lambda_min - (-1 / 3)) < 1e-14
    assert rep.negative_count == 3
    assert rep.lambda_min == rep.eigenvalues[0]


def test_classify_uniform(uniform):
    rep = classify(uniform)
    assert rep.classification == PPT
    assert abs(rep.lambda_min - 1 / 9) < 1e-14
    assert rep.negative_count == 0


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.74, 0.76, 0.9, 1.0])
def test_classify_isotropic_family(p):
    # lambda_min is affine in the noise weight: -(1-p)/3 + p/9
    rep = classify(isotropic_table(p))
    expected = -(1 - p) / 3 + p / 9
    assert abs(rep.lambda_min - expected) < 1e-12
    assert rep.classification == (NPT if p < 0.75 else PPT)


def test_classify_isotropic_boundary():
    rep = classify(isotropic_table(0.75))
    assert abs(rep.lambda_min) <= 1e-12
    assert rep.classification == BOUNDARY


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classify_invariant_under_rebuild(seed):
    # recover the table from the state's Bell-diagonal entries, rebuild, reclassify
    coeffs = random_table(seed)
    rho = build_state(coeffs)
    from belldistill.weyl import bell_vector

    recovered = np.empty((3, 3))
    for k in range(3):
        for l in range(3):
            v = bell_vector(3, k, l)
            recovered[k, l] = (v.conj() @ rho @ v).real
    rebuilt = SimplexCoefficients(d=3, c=recovered / recovered.sum())
    rep_a, rep_b = classify(coeffs), classify(rebuilt)
    assert rep_a.classification == rep_b.classification
    assert np.abs(rep_a.eigenvalues - rep_b.eigenvalues).max() < 1e-12


def _isotropic_qudit_table(d: int, fidelity: float) -> SimplexCoefficients:
    """Weight ``fidelity`` on Omega_00, the rest spread evenly; PPT iff fidelity <= 1/d."""
    c = np.full((d, d), (1.0 - fidelity) / (d * d - 1))
    c[0, 0] = fidelity
    return SimplexCoefficients(d=d, c=c / c.sum())


CLASSIFY_FAMILIES = {
    "flat": lambda d: [random_table(seed, d=d) for seed in range(20)],
    "sparse": lambda d: [sparse_table(seed, d) for seed in range(20)],
    "near_boundary": lambda d: [
        _isotropic_qudit_table(d, 1.0 / d + delta)
        for delta in (-1e-3, -1e-9, -1e-11, -1e-13, 0.0, 1e-13, 1e-11, 1e-9, 1e-3)
    ],
}


@pytest.mark.parametrize("family", sorted(CLASSIFY_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_classify_matches_dense_oracle(d, family):
    # the block route against build_state -> partial_transpose -> eigvalsh
    for coeffs in CLASSIFY_FAMILIES[family](d):
        rep = classify(coeffs)
        dense = np.linalg.eigvalsh(partial_transpose(build_state(coeffs), d, d))
        assert np.abs(rep.eigenvalues - dense).max() <= 1e-12
        assert rep.lambda_min == rep.eigenvalues[0]
        if abs(dense[0]) > BOUNDARY_TOL:
            assert rep.classification == (NPT if dense[0] < 0 else PPT)


def _b0_relative_gaps(flat: np.ndarray) -> np.ndarray:
    """(lambda_1 - lambda_0) / |lambda_0| of B_0 for the NPT rows of an (n, 9) stack."""
    values = simplex._solve(flat, 3)[0][:, 0]
    lam = values[values[:, 0] < -BOUNDARY_TOL]
    return (lam[:, 1] - lam[:, 0]) / np.abs(lam[:, 0])


def test_b0_relative_gap_is_at_least_two():
    # lambda_0 + lambda_1 >= 0 for d = 3 (see classify), so an NPT block's
    # relative gap is >= 2 up to rounding; sparse supports reach equality
    rng = np.random.default_rng(123)
    flat = simplex._flat_tables(rng, 4000)
    sparse = np.where(rng.random(flat.shape) < 0.3, 0.0, flat)
    sparse = sparse[sparse.sum(axis=1) > 0]
    sparse /= sparse.sum(axis=1, keepdims=True)
    masks = (np.arange(1, 2**9)[:, None] >> np.arange(9)) & 1
    supports = masks / masks.sum(axis=1, keepdims=True)
    gaps = [_b0_relative_gaps(tables) for tables in (flat, sparse, supports)]
    assert min(gaps[0].size, gaps[1].size) > 1000
    assert gaps[2].size == 315
    for g in gaps:
        assert g.min() >= 2.0 - 1e-12
    assert abs(gaps[2].min() - 2.0) <= 1e-12


# --------------------------------------------------------------- sampling

def test_sample_simplex_deterministic():
    a = sample_simplex(424242)
    b = sample_simplex(424242)
    assert np.array_equal(a.c, b.c)
    assert not np.array_equal(a.c, sample_simplex(424243).c)


def test_sample_simplex_valid():
    for seed in range(50):
        coeffs = sample_simplex(seed)
        assert coeffs.c.min() >= 0.0
        assert abs(coeffs.c.sum() - 1.0) <= 1e-12


def test_sample_simplex_mean():
    # flat Dirichlet over 9 coordinates: mean 1/9, var (8/81)/10 per coordinate
    n = 100_000
    total = np.zeros(9)
    for seed in range(n):
        total += sample_simplex(seed).c.ravel()
    mean = total / n
    stderr = np.sqrt((8 / 81) / 10 / n)
    assert np.abs(mean - 1 / 9).max() < 3 * stderr


def test_sample_npt_postcondition_and_degeneracy():
    # every accepted sample is NPT with a unique, three-fold degenerate
    # negative eigenvalue of the partial transpose; classify repeats B_0's
    # spectrum by construction, so the degeneracy is read off the dense route
    for seed in range(10_000):
        coeffs, rep = sample_npt(seed)
        assert np.array_equal(rep.eigenvalues, classify(coeffs).eigenvalues)
        assert rep.classification == NPT
        assert rep.negative_count == 3
        dense = np.linalg.eigvalsh(partial_transpose(build_state(coeffs), 3, 3))
        assert int(np.sum(dense < -BOUNDARY_TOL)) == 3
        assert lambda_min_multiplicity(dense) == 3


def test_sample_npt_deterministic():
    assert np.array_equal(sample_npt(99)[0].c, sample_npt(99)[0].c)


def test_sample_npt_exhaustion(monkeypatch):
    # seed 2's first simplex draw is PPT, so a cap of one try must fail
    first_draw = sample_simplex(2)
    assert classify(first_draw).classification != NPT
    monkeypatch.setattr(simplex, "MAX_TRIES", 1)
    with pytest.raises(SamplingExhaustedError):
        sample_npt(2)
