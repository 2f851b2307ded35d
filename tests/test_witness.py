import dataclasses

import numpy as np
import pytest

from belldistill.linalg import partial_transpose
from belldistill.simplex import (
    BOUNDARY,
    NPT,
    PIVOT_RTOL,
    PTSpectrumReport,
    SimplexCoefficients,
    build_state,
    classify,
    pt_block,
    sample_npt,
)
from belldistill.weyl import bell_unitary, flip, weyl
from belldistill.witness import PSI, W10, NotNPTError, construct_witness_vector, detect

from conftest import (
    NPT_SEEDS,
    isotropic_table,
    outputs,
    pure_bell_table,
    random_table,
    uniform_table,
)
from reference import (
    eigenvector_residual,
    expectation,
    product_vector_positivity_check,
    witness_expectation_from_state,
)


def singular_values(wc) -> np.ndarray:
    """Descending singular values of the coefficient matrix C = phi_tilde reshaped to 3 x 3."""
    return np.linalg.svd(wc.phi_tilde.reshape(3, 3), compute_uv=False)


def assert_rank_2(wc, tol):
    # C's singular values are (1/sqrt 2, 1/sqrt 2, 0), and mu2 vanishes, within tol
    assert np.abs(singular_values(wc) - [np.sqrt(0.5), np.sqrt(0.5), 0.0]).max() <= tol
    mu = wc.schmidt_coefficients
    assert np.abs(mu[:2] - np.sqrt(0.5)).max() <= tol
    assert mu[2] <= tol


# ------------------------------------------------- pure Bell closed forms

def test_pure_bell_lambda_and_ground_vector():
    wc = construct_witness_vector(classify(pure_bell_table()))
    assert abs(wc.lambda_min - (-1 / 3)) < 1e-14
    # block ground vector (|1> - |2>)/sqrt(2) under the phase convention
    expected_u0 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2)
    assert np.abs(wc.u[0] - expected_u0).max() < 1e-14


def test_pure_bell_alpha_and_coefficient_matrix():
    wc = construct_witness_vector(classify(pure_bell_table()))
    expected_alpha0 = np.array([0.0, 1j, -1j]) / np.sqrt(2)
    assert np.abs(wc.alpha[0] - expected_alpha0).max() < 1e-14
    expected_c = np.array(
        [[0.0, 0.0, -0.5j], [0.5j, 0.5j, 0.0], [0.0, 0.0, -0.5j]]
    )
    assert np.abs(wc.phi_tilde.reshape(3, 3) - expected_c).max() < 1e-14
    assert_rank_2(wc, 1e-15)


def test_pure_bell_schmidt_data():
    wc = construct_witness_vector(classify(pure_bell_table()))
    mu = wc.schmidt_coefficients
    assert mu[1] > 1e-9 and mu[2] < 1e-9 * mu[0]
    assert np.abs(mu[:2] - 1 / np.sqrt(2)).max() < 1e-12
    # the eigenvector of flip/3 at -1/3 is antisymmetric
    assert np.abs(flip(3) @ wc.phi + wc.phi).max() < 1e-12
    assert abs(witness_expectation_from_state(pure_bell_table(), wc) - (-1 / 3)) < 1e-10


def test_isotropic_half_noise():
    # by linearity lambda_min = -(1/2)/3 + (1/2)/9 = -1/9
    wc = construct_witness_vector(classify(isotropic_table(0.5)))
    assert abs(wc.lambda_min - (-1 / 9)) < 1e-12
    assert abs(witness_expectation_from_state(isotropic_table(0.5), wc) - (-1 / 9)) < 1e-10


# ------------------------------------------------------- preconditions

def test_rejects_ppt_input():
    with pytest.raises(NotNPTError):
        construct_witness_vector(classify(uniform_table()))


def test_rejects_boundary_input():
    with pytest.raises(NotNPTError):
        construct_witness_vector(classify(isotropic_table(0.75)))


def test_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="d=3"):
        construct_witness_vector(classify(random_table(0, d=4)))


@pytest.mark.parametrize(
    "scale", [2.0, np.nan, 1.0 + 1e-9], ids=["double", "nan", "off_by_1e-9"]
)
def test_rejects_a_u0_that_is_not_a_unit_vector(scale):
    # rank 2 is an identity for every u0, but Schmidt coefficients 1/sqrt 2
    # need a unit u0: the construction's one guard refuses any other, NaN too
    _, spectrum = sample_npt(NPT_SEEDS[0])
    construct_witness_vector(dataclasses.replace(spectrum, u0=(1.0 + 1e-12) * spectrum.u0))
    with pytest.raises(ValueError, match="not a unit vector"):
        construct_witness_vector(dataclasses.replace(spectrum, u0=scale * spectrum.u0))


# --------------------------------------------- construction invariants

@pytest.mark.parametrize("seed", NPT_SEEDS[:40])
def test_construction_invariants(seed):
    coeffs = random_table(seed)
    wc = construct_witness_vector(classify(coeffs))
    lam = wc.lambda_min
    assert lam < 0

    # each derived vector is a ground eigenvector of its own block
    for m in range(3):
        assert np.abs(pt_block(coeffs, m) @ wc.u[m] - lam * wc.u[m]).max() <= 1e-10

    # u_{m+2} = W_{1,0} u_m holds exactly as constructed
    w10 = weyl(3, 1, 0)
    assert np.array_equal(wc.u[2], w10 @ wc.u[0])
    assert np.array_equal(wc.u[1], w10 @ wc.u[2])

    # index shift of the Fourier-transformed vectors
    for m in range(3):
        assert np.abs(np.roll(wc.alpha[m], -1) - wc.alpha[(m + 2) % 3]).max() <= 1e-12

    # Schmidt rank 2 with equal coefficients
    assert_rank_2(wc, 1e-14)

    # ground eigenvector of the full partial transpose
    assert eigenvector_residual(coeffs, wc) <= 1e-10
    assert abs(witness_expectation_from_state(coeffs, wc) - lam) <= 1e-10
    assert abs(np.linalg.norm(wc.phi) - 1.0) < 1e-12


# ------------------------------------------------------ the rank-2 identity

def cofactor_det(m) -> complex:
    """det of a 3 x 3 nested list along its first row, in Python complex arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_rank_2_identity_is_exact():
    # C = [[a, 0, b], [c, -b, 0], [0, -a, -c]] has C C^dag = S 1 - v v^dag with
    # v = conj(c, -a, b), S = |a|^2 + |b|^2 + |c|^2, and C (b, c, -a)^T = 0, so
    # det C = 0 for every a, b, c. Products and sums of complex numbers with
    # small integer parts (here at most 20, so every sum stays below 2^53) are
    # exact in float64, so each equation holds with ==
    rng = np.random.default_rng(2024)
    parts = rng.integers(-20, 21, size=(2000, 3, 2)).astype(float)
    a, b, c = (parts[:, k, 0] + 1j * parts[:, k, 1] for k in range(3))
    C = np.zeros((2000, 3, 3), dtype=complex)
    C[:, 0, 0], C[:, 0, 2] = a, b
    C[:, 1, 0], C[:, 1, 1] = c, -b
    C[:, 2, 1], C[:, 2, 2] = -a, -c
    v = np.stack([c, -a, b], axis=1).conj()
    S = (parts**2).sum(axis=(1, 2))
    gram = C @ np.swapaxes(C, 1, 2).conj()
    assert np.array_equal(gram, S[:, None, None] * np.eye(3) - v[:, :, None] * v[:, None, :].conj())
    kernel = np.stack([b, c, -a], axis=1)
    assert np.array_equal(C @ kernel[:, :, None], np.zeros((2000, 3, 1)))
    assert all(cofactor_det(m) == 0 for m in C.tolist())


@pytest.mark.parametrize("seed", NPT_SEEDS[:40])
def test_coefficient_matrix_has_the_identity_pattern(seed):
    # the construction's C has exact zeros at (0, 1), (1, 2) and (2, 0), and
    # C[1, 1] = -C[0, 2], C[2, 1] = -C[0, 0], C[2, 2] = -C[1, 0] up to the
    # rounding of the alpha shift
    c = construct_witness_vector(classify(random_table(seed))).phi_tilde.reshape(3, 3)
    assert [c[0, 1], c[1, 2], c[2, 0]] == [0j, 0j, 0j]
    pairs = [((1, 1), (0, 2)), ((2, 1), (0, 0)), ((2, 2), (1, 0))]
    assert max(abs(c[x] + c[y]) for x, y in pairs) <= 1e-15


@pytest.mark.parametrize("images", [0, 1, 2])
def test_certificate_holds_where_principal_minors_vanish(images):
    # u0 = (1, 1, 1)/sqrt 3 and its W_{1,0} images, as synthetic NPT reports with
    # lambda_min = -0.1 three-fold: all three principal minors of C are of
    # rounding size, yet C has rank 2 with two equal singular values
    u0 = np.ones(3, dtype=complex) / np.sqrt(3.0)
    for _ in range(images):
        u0 = W10 @ u0
    eigenvalues = np.array([-0.1] * 3 + [0.1] * 6)
    wc = construct_witness_vector(PTSpectrumReport(eigenvalues, -0.1, 3, NPT, u0))
    c = wc.phi_tilde.reshape(3, 3)
    principal = [np.linalg.det(np.delete(np.delete(c, j, 0), j, 1)) for j in range(3)]
    assert np.abs(principal).max() <= 1e-15
    assert_rank_2(wc, 1e-15)


@pytest.mark.parametrize("face, k, l", outputs.EDGES)
def test_certificate_margin_at_the_face_edge(face, k, l):
    # (1 - t) face + t (Bell weight (k, l) outside it): lambda_min ~ -t^2/3,
    # so the NPT edge lies between t = 1.732e-6 (BOUNDARY) and t = 1.733e-6
    # (lambda_min ~ -1.001e-12); rank 2 with equal coefficients holds to
    # rounding all the way to it
    def edge(t):
        return classify(SimplexCoefficients(**outputs.face_table(face, k, l, t)))

    for t in (1e-6, 1.732e-6):
        assert edge(t).classification == BOUNDARY
    for t in (1e-3, 1e-5, 1.733e-6):
        spectrum = edge(t)
        assert_rank_2(construct_witness_vector(spectrum), 1e-15)
        if t == 1.733e-6:
            assert -1.002e-12 < spectrum.lambda_min < -1.001e-12


@pytest.mark.parametrize("seed", NPT_SEEDS[:20])
def test_phi_equals_direct_bell_frame_route(seed):
    # independent route: phi = U^dag (sum_i psi_i |i> (x) u_i)
    wc = construct_witness_vector(classify(random_table(seed)))
    psi_vec = np.zeros(9, dtype=complex)
    for i in range(3):
        psi_vec[i * 3:(i + 1) * 3] = PSI[i] * wc.u[i]
    direct = bell_unitary(3).conj().T @ psi_vec
    assert np.abs(wc.phi - direct).max() <= 1e-13


@pytest.mark.parametrize("seed", NPT_SEEDS[:20])
def test_coefficient_matrix_singular_values_match_schmidt(seed):
    wc = construct_witness_vector(classify(random_table(seed)))
    singular = singular_values(wc)
    assert np.abs(singular[:2] - wc.schmidt_coefficients[:2]).max() <= 1e-10
    assert singular[2] <= 1e-10


def test_construction_deterministic():
    first = construct_witness_vector(classify(random_table(NPT_SEEDS[0])))
    second = construct_witness_vector(classify(random_table(NPT_SEEDS[0])))
    assert np.array_equal(first.phi, second.phi)
    assert np.array_equal(first.u, second.u)
    assert first.lambda_min == second.lambda_min


# ----------------------------------------------------------- local frame

def test_frame_pivots_break_ties_at_the_lowest_index():
    # Equal weight on the Bell projectors (0,0), (0,2) and (1,1), support mask
    # 000010101 among the 511 equal-weight supports. Exactly, P_A has diagonal
    # (2/3, 2/3, 2/3), and P_A - a_0 a_0^dag has diagonal (0, 1/2, 1/2); in
    # floating point the later entries round larger, so a plain argmax would
    # pick index 2 at both steps
    c = np.zeros((3, 3))
    c[0, 0] = c[0, 2] = c[1, 1] = 1 / 3
    wc = construct_witness_vector(classify(SimplexCoefficients(d=3, c=c)))
    p_a = wc.P_A
    a0 = wc.schmidt_left[0]
    rest = p_a - np.outer(a0, a0.conj())
    for weights, tied in [(p_a.diagonal().real, [0, 1, 2]), (rest.diagonal().real, [1, 2])]:
        top = weights.max()
        assert np.flatnonzero(weights >= (1 - PIVOT_RTOL) * top).tolist() == tied
        assert np.ptp(weights[tied]) > 0.0
    assert np.array_equal(a0, p_a[:, 0] / np.linalg.norm(p_a[:, 0]))
    assert np.array_equal(wc.schmidt_left[1], rest[:, 1] / np.linalg.norm(rest[:, 1]))
    rebuilt = (wc.schmidt_left.T @ wc.schmidt_right).ravel() / np.sqrt(2)
    assert np.abs(rebuilt - wc.phi).max() <= 1e-14


# ------------------------------------------------------ witness operator

def test_witness_spectrum_pure_bell():
    wc = construct_witness_vector(classify(pure_bell_table()))
    w = wc.W
    eigs = np.linalg.eigvalsh(w)
    expected = np.array([-0.5, 0, 0, 0, 0, 0, 0.5, 0.5, 0.5])
    assert np.abs(eigs - expected).max() < 1e-12


@pytest.mark.parametrize("seed", NPT_SEEDS[:25])
def test_witness_operator_invariants(seed):
    coeffs = random_table(seed)
    wc = construct_witness_vector(classify(coeffs))
    w = wc.W
    assert w.shape == (9, 9) and not w.flags.writeable
    eigs = np.linalg.eigvalsh(w)
    mu0, mu1 = wc.schmidt_coefficients[:2]
    expected = np.sort([mu0**2, mu1**2, mu0 * mu1, -mu0 * mu1, 0, 0, 0, 0, 0])
    assert np.abs(eigs - expected).max() <= 1e-9
    assert abs(np.trace(w).real - 1.0) <= 1e-11
    # trace identity against the quadratic form on the partial transpose
    rho = build_state(coeffs)
    lhs = np.trace(w @ rho).real
    rhs = expectation(partial_transpose(rho, 3, 3), wc.phi).real
    assert abs(lhs - rhs) <= 1e-11
    # mirrored operator is positive semidefinite
    assert np.linalg.eigvalsh(mu0**2 * np.eye(9) - w)[0] >= -1e-10


# ---------------------------------------------------------------- detect

def test_detect_on_generating_state():
    coeffs = pure_bell_table()
    wc = construct_witness_vector(classify(coeffs))
    w = wc.W
    assert abs(detect(w, build_state(coeffs)) - wc.lambda_min) <= 1e-10


def test_detect_on_maximally_mixed():
    wc = construct_witness_vector(classify(pure_bell_table()))
    w = wc.W
    assert abs(detect(w, np.eye(9) / 9) - 1 / 9) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.3, 0.75])
def test_detect_affine_in_noise(p):
    # (1-p) <phi|rho^G|phi> + p / 9 for the white-noise admixture
    coeffs = random_table(NPT_SEEDS[1])
    wc = construct_witness_vector(classify(coeffs))
    w = wc.W
    rho = build_state(coeffs)
    noisy = (1 - p) * rho + p / 9 * np.eye(9)
    expected = (1 - p) * wc.lambda_min + p / 9
    assert abs(detect(w, noisy) - expected) <= 1e-11


def test_detect_dimension_mismatch():
    w = construct_witness_vector(classify(pure_bell_table())).W
    with pytest.raises(ValueError, match="shape"):
        detect(w, np.eye(4))


def test_detect_rejects_large_imaginary_part():
    wc = construct_witness_vector(classify(random_table(NPT_SEEDS[2])))
    w = wc.W
    # pick the entry with the largest imaginary part and feed the matching
    # non-Hermitian basis unit; trace(W E_jk) = W[k, j]
    k, j = np.unravel_index(np.argmax(np.abs(w.imag)), w.shape)
    assert abs(w[k, j].imag) > 1e-3
    state = np.zeros((9, 9), dtype=complex)
    state[j, k] = 1.0
    with pytest.raises(ValueError, match="imaginary"):
        detect(w, state)


def test_detect_on_a_stack():
    # a single state gives a float, a stack an array; one non-Hermitian
    # state anywhere in a stack raises
    wc = construct_witness_vector(classify(random_table(NPT_SEEDS[2])))
    w = wc.W
    stack = np.array([np.eye(9) / 9] * 5, dtype=complex)
    assert isinstance(detect(w, stack[0]), float)
    values = detect(w, stack)
    assert values.shape == (5,)
    assert np.abs(values - 1 / 9).max() <= 1e-12
    k, j = np.unravel_index(np.argmax(np.abs(w.imag)), w.shape)
    stack[3, j, k] = 1.0
    with pytest.raises(ValueError, match="imaginary"):
        detect(w, stack)
    with pytest.raises(ValueError, match="shape"):
        detect(w, np.zeros((5, 4, 4)))


def test_detect_rejects_nan():
    w = construct_witness_vector(classify(random_table(NPT_SEEDS[2]))).W
    with pytest.raises(ValueError, match="imaginary"):
        detect(w, np.full((9, 9), complex(0, np.nan)))
    with pytest.raises(ValueError, match="imaginary"):
        detect(w, np.array([np.eye(9) / 9, np.full((9, 9), np.nan)]))
    assert abs(detect(w, np.eye(9, dtype=complex) / 9) - 1 / 9) <= 1e-12


def test_detect_on_an_empty_stack():
    # no states give no values; a NaN imaginary part anywhere in a stack still raises
    w = construct_witness_vector(classify(random_table(NPT_SEEDS[2]))).W
    values = detect(w, np.zeros((0, 9, 9), dtype=complex))
    assert isinstance(values, np.ndarray) and values.shape == (0,)
    stack = np.array([np.eye(9) / 9] * 3, dtype=complex)
    stack[2, 0, 0] = complex(1 / 9, np.nan)
    with pytest.raises(ValueError, match="imaginary part nan"):
        detect(w, stack)
    with pytest.raises(ValueError, match="imaginary part nan"):
        detect(w, stack[2])


# ------------------------------------------- product-vector positivity

def test_product_positivity_pure_bell():
    w = construct_witness_vector(classify(pure_bell_table())).W
    assert product_vector_positivity_check(w, 10_000, seed=5) >= -1e-10


@pytest.mark.parametrize("seed", NPT_SEEDS[:5])
def test_product_positivity_random_states(seed):
    w = construct_witness_vector(classify(random_table(seed))).W
    assert product_vector_positivity_check(w, 2_000, seed=seed) >= -1e-10


@pytest.mark.parametrize("seed", NPT_SEEDS[:10])
def test_weak_optimality_vector(seed):
    # the product vector |a_0, b_1*> lies in the witness kernel
    wc = construct_witness_vector(classify(random_table(seed)))
    w = wc.W
    a0 = wc.schmidt_left[0]
    b1_star = wc.schmidt_right[1].conj()
    v = np.kron(a0, b1_star)
    assert abs(expectation(w, v)) <= 1e-10


def test_product_positivity_rejects_bad_trials():
    w = construct_witness_vector(classify(pure_bell_table())).W
    with pytest.raises(ValueError):
        product_vector_positivity_check(w, 0, seed=1)
