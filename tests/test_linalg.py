import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistill.linalg import kron, partial_transpose
from belldistill.simplex import SimplexCoefficients, _fix_phase, build_state, classify, pt_block
from belldistill.weyl import weyl

from conftest import outputs, pure_bell_table, random_table, uniform_table
from reference import expectation, schmidt_decompose, schmidt_reconstruct


def basis_ket(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def flip9():
    # |a,b> -> |b,a> on two qutrits, written out independently of the package
    f = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            f[b * 3 + a, a * 3 + b] = 1.0
    return f


def random_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------- kron

def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_factor():
    w = np.exp(2j * np.pi / 3)
    d = np.diag([1.0, w])
    assert np.array_equal(kron(d, np.eye(1)), d)


def test_kron_against_index_oracle():
    a = weyl(3, 1, 0)
    b = weyl(3, 0, 1)
    out = kron(a, b)
    # direct double loop over the defining index formula
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert out[i * 3 + k, j * 3 + l] == a[i, j] * b[k, l]


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((d, d), (d, d)) for d in (2, 3, 4, 5)]
    + [((3, 2), (3, 2)), ((9, 4), (1, 1))],
)
def test_kron_matches_numpy_bit_for_bit(shape_a, shape_b):
    rng = np.random.default_rng(sum(shape_a) * 100 + sum(shape_b))
    for _ in range(20):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.array_equal(kron(a, b), np.kron(a, b))
        real = np.kron(a.real.astype(complex), b.real.astype(complex))
        assert np.array_equal(kron(a.real, b.real), real)


def test_kron_rejects_unequal_ranks():
    # it takes two matrices: a vector is refused next to a matrix and next to a vector
    for a, b, ranks in ((np.eye(2), np.ones(2), "2 and 1"), (np.ones(2), np.ones(2), "1 and 1")):
        with pytest.raises(ValueError, match=f"ranks {ranks}$"):
            kron(a, b)


# --------------------------------------------------- partial transpose

def test_partial_transpose_of_a_stack():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((2, 3, 6, 6)) + 1j * rng.standard_normal((2, 3, 6, 6))
    out = partial_transpose(stack, 2, 3)
    assert out.shape == stack.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], partial_transpose(stack[i, j], 2, 3))
    with pytest.raises(ValueError, match="shape"):
        partial_transpose(stack, 3, 3)


def test_partial_transpose_identity():
    assert np.array_equal(partial_transpose(np.eye(9), 3, 3), np.eye(9))


def test_partial_transpose_basis_unit():
    # |0><1| (x) |1><0|  ->  |0><1| (x) |0><1|
    m = kron(np.outer(basis_ket(2, 0), basis_ket(2, 1)),
             np.outer(basis_ket(2, 1), basis_ket(2, 0)))
    expected = kron(np.outer(basis_ket(2, 0), basis_ket(2, 1)),
                    np.outer(basis_ket(2, 0), basis_ket(2, 1)))
    assert np.array_equal(partial_transpose(m, 2, 2), expected)


def test_partial_transpose_of_bell_projector():
    omega = sum(np.kron(basis_ket(3, i), basis_ket(3, i)) for i in range(3)) / np.sqrt(3)
    p00 = np.outer(omega, omega.conj())
    pt = partial_transpose(p00, 3, 3)
    assert np.abs(pt - flip9() / 3).max() < 1e-15
    # eigenvalues -1/3 on the antisymmetric triplet, +1/3 on the symmetric six
    eigs = np.linalg.eigvalsh(pt)
    expected = np.array([-1 / 3] * 3 + [1 / 3] * 6)
    assert np.abs(eigs - expected).max() < 1e-14


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6), 3, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 2)]))
def test_partial_transpose_involution_and_trace(seed, dims):
    d_a, d_b = dims
    n = d_a * d_b
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pt = partial_transpose(m, d_a, d_b)
    assert np.array_equal(partial_transpose(pt, d_a, d_b), m)
    assert np.trace(pt) == np.trace(m)


def test_partial_transpose_preserves_hermiticity():
    h = random_hermitian(5, 9)
    pt = partial_transpose(h, 3, 3)
    assert np.abs(pt - pt.conj().T).max() == 0.0


# ------------------------------------ B_0 eigensolve and phase convention

def _pivot_is_real_positive(v) -> bool:
    pivot = v[np.argmax(np.abs(v))]
    return abs(pivot.imag) < 1e-15 * abs(pivot) and pivot.real > 0.0


def test_eigensystem_diagonal_case():
    # c[k, l] = p_l / 3 is constant down each column, so the Weyl phases of
    # every off-diagonal entry of B_0 sum to zero: B_0 = diag(p) / 3
    p = np.array([3.0, 1.0, 2.0]) / 6.0
    rep = classify(SimplexCoefficients(d=3, c=np.tile(p / 3.0, (3, 1))))
    assert np.abs(rep.eigenvalues - np.repeat([1 / 18, 1 / 9, 1 / 6], 3)).max() < 1e-15
    assert np.abs(rep.u0 - np.array([0.0, 1.0, 0.0])).max() < 1e-15


def test_eigensystem_pure_bell_block():
    # partial-transpose block of the canonical Bell projector
    b0 = np.zeros((3, 3))
    b0[0, 0] = 1 / 3
    b0[1, 2] = b0[2, 1] = 1 / 3
    assert np.abs(pt_block(pure_bell_table(), 0) - b0).max() < 1e-15
    # independent oracle: roots of the characteristic polynomial
    # det(B - x) = (1/3 - x) (x^2 - 1/9)
    oracle = np.sort(np.roots([-1.0, np.trace(b0),
                               -(b0[0, 0] * b0[1, 1] + b0[0, 0] * b0[2, 2]
                                 + b0[1, 1] * b0[2, 2]
                                 - b0[1, 2] * b0[2, 1] - b0[0, 1] * b0[1, 0]
                                 - b0[0, 2] * b0[2, 0]),
                               np.linalg.det(b0)]).real)
    # the double root limits the polynomial oracle to ~sqrt(eps) accuracy
    assert np.abs(oracle - np.array([-1 / 3, 1 / 3, 1 / 3])).max() < 1e-6
    rep = classify(pure_bell_table())
    assert np.abs(rep.eigenvalues - np.repeat([-1 / 3, 1 / 3], [3, 6])).max() < 1e-12
    # the pivot of (0, 1, -1)/sqrt 2 is its first entry of largest modulus
    assert np.abs(rep.u0 - np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)).max() < 1e-15


def test_eigensystem_maximally_mixed():
    rep = classify(uniform_table())
    assert np.abs(rep.eigenvalues - 1 / 9).max() < 1e-15


@pytest.mark.parametrize("seed,n", [(0, 3), (1, 5), (2, 9), (3, 9)])
def test_eigensystem_invariants_on_random_hermitian(seed, n):
    # B_0 of a random table of odd dimension n is a random Hermitian block
    # whose spectrum, repeated over the n blocks, is the dense PT spectrum
    coeffs = random_table(seed, d=n)
    rep = classify(coeffs)
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    dense = np.linalg.eigvalsh(partial_transpose(build_state(coeffs), n, n))
    assert np.abs(rep.eigenvalues - dense).max() < 1e-12
    assert abs(np.linalg.norm(rep.u0) - 1.0) < 1e-14
    b0 = pt_block(coeffs, 0)
    assert np.abs(b0 @ rep.u0 - rep.lambda_min * rep.u0).max() < 1e-12
    assert _pivot_is_real_positive(rep.u0)


def test_eigensystem_phase_convention():
    vectors = np.linalg.eigh(random_hermitian(11, 6)).eigenvectors
    for i in range(6):
        assert _pivot_is_real_positive(_fix_phase(vectors[:, i]))
    for seed in range(20):
        assert _pivot_is_real_positive(classify(random_table(seed)).u0)


def test_eigensystem_deterministic():
    coeffs = random_table(12, d=9)
    first = classify(coeffs)
    second = classify(coeffs)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.u0, second.u0)


# ------------------------------------------------- Schmidt decomposition

def test_schmidt_product_vector():
    v = np.kron(basis_ket(3, 0), basis_ket(3, 0))
    dec = schmidt_decompose(v, 3, 3)
    assert dec.schmidt_rank == 1
    assert np.allclose(dec.coefficients[:1], [1.0], atol=1e-15)
    assert np.abs(dec.coefficients[1:]).max(initial=0.0) < 1e-15


def test_schmidt_bell_pair():
    v = (np.kron(basis_ket(2, 0), basis_ket(2, 0))
         + np.kron(basis_ket(2, 1), basis_ket(2, 1))) / np.sqrt(2)
    dec = schmidt_decompose(v, 2, 2)
    assert dec.schmidt_rank == 2
    assert np.abs(dec.coefficients - 1 / np.sqrt(2)).max() < 1e-15


def test_schmidt_antisymmetric_pair():
    v = (np.kron(basis_ket(2, 0), basis_ket(2, 1))
         - np.kron(basis_ket(2, 1), basis_ket(2, 0))) / np.sqrt(2)
    dec = schmidt_decompose(v, 2, 2)
    assert dec.schmidt_rank == 2
    assert np.abs(dec.coefficients - 1 / np.sqrt(2)).max() < 1e-15


def random_unitary(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("seed", range(5))
def test_schmidt_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed + 100)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    dec = schmidt_decompose(v, 3, 3)
    rotated = np.kron(random_unitary(seed, 3), random_unitary(seed + 50, 3)) @ v
    dec_rot = schmidt_decompose(rotated, 3, 3)
    assert np.abs(dec.coefficients - dec_rot.coefficients).max() < 1e-10


@pytest.mark.parametrize("seed,scale", [(0, 1.0), (1, 0.5), (2, 2.0)])
def test_schmidt_norm_and_reconstruction(seed, scale):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v = scale * v / np.linalg.norm(v)
    dec = schmidt_decompose(v, 3, 4)
    assert abs(np.sum(dec.coefficients**2) - scale**2) < 1e-10
    assert np.abs(schmidt_reconstruct(dec) - v).max() < 1e-10
    k = dec.coefficients.size
    left, right = dec.left_vectors, dec.right_vectors
    assert np.abs(left.conj().T @ left - np.eye(k)).max() < 1e-10
    assert np.abs(right.conj().T @ right - np.eye(k)).max() < 1e-10


def test_schmidt_rank_tolerance():
    # third coefficient far below the relative threshold must not count
    v = (np.kron(basis_ket(3, 0), basis_ket(3, 0)) * 0.8
         + np.kron(basis_ket(3, 1), basis_ket(3, 1)) * 0.6
         + np.kron(basis_ket(3, 2), basis_ket(3, 2)) * 1e-12)
    dec = schmidt_decompose(v, 3, 3)
    assert dec.schmidt_rank == 2


def test_schmidt_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        schmidt_decompose(np.zeros(9), 3, 3)


def test_schmidt_dimension_mismatch():
    with pytest.raises(ValueError):
        schmidt_decompose(np.ones(8), 3, 3)


# ------------------------------------------------------- expectation

def test_expectation_identity():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v /= np.linalg.norm(v)
    assert abs(expectation(np.eye(5), v) - 1.0) < 1e-14


def test_expectation_flip_on_antisymmetric():
    # flip eigenvector with eigenvalue -1, embedded in two qutrits
    v = np.zeros(9, dtype=complex)
    v[0 * 3 + 1] = 1 / np.sqrt(2)
    v[1 * 3 + 0] = -1 / np.sqrt(2)
    value = expectation(flip9() / 3, v)
    assert abs(value - (-1 / 3)) < 1e-14
    assert abs(value.imag) < 1e-14


def test_expectation_basis_case():
    m = np.diag([0.0] * 8 + [5.0])
    assert abs(expectation(m, np.eye(9)[:, 8]) - 5.0) == 0.0


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(4), np.ones(5))


def _one_ulp_perturbation(h: np.ndarray, rng) -> np.ndarray:
    """Move every real and imaginary part of ``h`` one ulp up or down at random."""
    toward = np.where(rng.random(h.shape + (2,)) < 0.5, -np.inf, np.inf)
    parts = np.stack([h.real, h.imag], -1)
    moved = np.nextafter(parts, toward)
    return moved[..., 0] + 1j * moved[..., 1]


def test_phase_convention_is_stable_under_one_ulp():
    # equal-weight supports whose ground vector of B_0 has entries of equal
    # modulus, e.g. (0, 1, -1)/sqrt 2 for the pure Bell table: the pivot must
    # not depend on which of them rounds larger
    rng = np.random.default_rng(11)
    checked = 0
    for mask in range(1, 2**9):
        coeffs = SimplexCoefficients(**outputs.support_table(mask))
        b0 = pt_block(coeffs, 0)
        lam = np.linalg.eigvalsh(b0)
        if lam[1] - lam[0] < 1e-6:
            continue  # degenerate ground space: no vector to compare
        ref = classify(coeffs).u0
        mod = np.abs(ref)
        if np.sum(mod >= mod.max() - 1e-12) < 2:
            continue
        checked += 1
        for _ in range(20):
            moved = _fix_phase(np.linalg.eigh(_one_ulp_perturbation(b0, rng)).eigenvectors[:, 0])
            assert np.abs(moved - ref).max() <= 1e-12
    assert checked >= 20
