"""Second routes to the package's quantities, kept as test oracles.

The package holds one route per quantity; each function here reaches the
same quantity another way, so that the tests can compare the two:

- ``pt_block_loop`` and ``build_state_loop`` spell out term by term the
  Bell-frame kernel that ``pt_block`` and ``build_state`` evaluate in
  closed form;
- ``apply_weyl_channel`` builds the state as a Weyl channel acting on one
  side of the canonical Bell projector, and ``assemble_pt_from_blocks``
  rebuilds the partial transpose from its Bell-frame blocks;
- ``controlled_sum`` is the permutation unitary of the factorisation
  U = (F (x) 1) C_s of the Bell unitary;
- ``product_vector_positivity_check`` samples the witness on random
  product vectors;
- ``schmidt_decompose`` is the SVD route to the Schmidt data that the
  witness construction reads off its pivot frame; ``schmidt_reconstruct``
  rebuilds a vector from that decomposition;
- ``filters_from_witness`` and ``filter_state`` project and compress the
  state with 9 x 9 products in the SVD frame, where ``filter_report``
  compresses it with the construction's 9 x 4 frame matrix;
- ``sample_npt_sequential`` draws and fully classifies one table at a time;
- ``expectation`` is the checked quadratic form <v|M|v>;
  ``eigenvector_residual`` and ``witness_expectation_from_state`` are the
  two dense quantities that the verify battery computes inline;
- ``mix_loop`` builds alpha and phi_tilde from u_0 one numpy scalar at a
  time, where ``construct_witness_vector`` mixes each PSI term as one
  indexed array update;
- ``battery_residuals_loop`` computes the verify battery's residuals with
  a loop over the blocks and the alpha shifts and one ``eigvalsh`` call per
  dense spectrum, where the battery stacks each of the three;
- ``complex_to_json``, ``vector_to_json``, ``matrix_to_json`` and
  ``real_vector_to_json`` convert entry by entry, the serialisation the
  report writer's array conversion must match byte for byte;
- ``dump_json`` is the standard library's encoder, whose bytes
  ``dump_report`` must reproduce and whose refusals it must share.

Each is built from package pieces other than the route it checks.
"""

import json
from dataclasses import dataclass

import numpy as np

from belldistill import simplex
from belldistill.filtering import MIN_Q, FilterAnnihilationError, filter_report
from belldistill.linalg import dag, kron, partial_transpose
from belldistill.simplex import SamplingExhaustedError, SimplexCoefficients, build_state, pt_block
from belldistill.weyl import _check_dim, bell_unitary, bell_vector, phase_table, weyl
from belldistill.witness import F3, PSI, W10, detect

#: a singular value counts toward the Schmidt rank iff above RANK_RTOL times the largest
RANK_RTOL = 1e-9


def pt_block_loop(coeffs: SimplexCoefficients, m: int) -> np.ndarray:
    """B_m = (1/d) sum_{k,l,y} omega^(y (k-m)) c[k,l] |l-y><l+y|, indices mod d."""
    d = coeffs.d
    tab = phase_table(d)
    b = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            w = coeffs.c[k, l]
            if w == 0.0:
                continue
            for y in range(d):
                b[(l - y) % d, (l + y) % d] += tab[(y * (k - m)) % d] * w
    return b / d


def build_state_loop(coeffs: SimplexCoefficients) -> np.ndarray:
    """Density matrix sum_kl c[k,l] |Omega_kl><Omega_kl|, one outer product per term."""
    d = coeffs.d
    rho = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            v = bell_vector(d, k, l)
            rho += coeffs.c[k, l] * np.outer(v, v.conj())
    return rho


def apply_weyl_channel(coeffs: SimplexCoefficients) -> np.ndarray:
    """Action of the Weyl channel on one side of the canonical Bell projector.

    Conjugates |Omega_00><Omega_00| by the Kraus operators W_kl (x) 1 with
    weights c[k, l]. Agrees with :func:`build_state` and serves as its
    independent cross-check.
    """
    d = coeffs.d
    omega00 = bell_vector(d, 0, 0)
    p00 = np.outer(omega00, omega00.conj())
    eye = np.eye(d)
    rho = np.zeros_like(p00)
    for k in range(d):
        for l in range(d):
            kraus = kron(weyl(d, k, l), eye)
            rho += coeffs.c[k, l] * (kraus @ p00 @ dag(kraus))
    return rho


def assemble_pt_from_blocks(coeffs: SimplexCoefficients) -> np.ndarray:
    """Partial transpose rebuilt as U^dag (sum_m |m><m| (x) B_m) U.

    Must agree with the direct partial transpose of :func:`build_state`;
    the pair of routes is used as a consistency oracle in the tests.
    """
    d = coeffs.d
    blocks = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        blocks[m * d:(m + 1) * d, m * d:(m + 1) * d] = pt_block(coeffs, m)
    u = bell_unitary(d)
    return dag(u) @ blocks @ u


def controlled_sum(d: int) -> np.ndarray:
    """Permutation unitary mapping |i,j> to |i, j-i mod d>."""
    d = _check_dim(d)
    cs = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            cs[i * d + (j - i) % d, i * d + j] = 1.0
    return cs


def product_vector_positivity_check(w: np.ndarray, trials: int, seed) -> float:
    """Minimum of <a,b|W|a,b> over random product vectors, for the 9 x 9 witness ``w``.

    Samples ``trials`` isotropically random product vectors and returns the
    smallest expectation, which for a valid witness never drops below zero
    beyond roundoff.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((trials, 3)) + 1j * rng.standard_normal((trials, 3))
    b = rng.standard_normal((trials, 3)) + 1j * rng.standard_normal((trials, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    products = np.einsum("ni,nj->nij", a, b).reshape(trials, 9)
    values = np.einsum("ni,ij,nj->n", products.conj(), w, products).real
    return float(values.min())


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite vector.

    coefficients are strictly positive and descending; left_vectors[:, i]
    and right_vectors[:, i] are the matching orthonormal local vectors, so
    the input equals sum_i coefficients[i] * np.kron(left[:, i], right[:, i]).
    schmidt_rank counts coefficients above RANK_RTOL times the largest.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    schmidt_rank: int


def schmidt_decompose(v: np.ndarray, d_a: int, d_b: int) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite vector via SVD of its coefficient matrix.

    Works for any nonzero vector; for a unit vector the squared coefficients
    sum to one. Raises ValueError on a zero vector or a dimension mismatch.
    """
    v = np.asarray(v, dtype=complex)
    if v.size != d_a * d_b:
        raise ValueError(f"vector dim {v.size} does not match dims ({d_a},{d_b})")
    if np.linalg.norm(v) == 0.0:
        raise ValueError("cannot Schmidt-decompose the zero vector")
    u, s, vh = np.linalg.svd(v.reshape(d_a, d_b), full_matrices=False)
    keep = s > 0.0
    s = s[keep]
    left = u[:, keep].copy()
    right = vh[keep, :].T.copy()
    # phase freedom sits in the pair (a_i, b_i); rotate it into the convention
    for i in range(s.size):
        pivot = left[int(np.argmax(np.abs(left[:, i]))), i]
        ph = abs(pivot) / pivot
        left[:, i] *= ph
        right[:, i] /= ph
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return SchmidtDecomposition(
        coefficients=s, left_vectors=left, right_vectors=right, schmidt_rank=rank
    )


def filters_from_witness(wc) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto span{a0, a1} and span{b0*, b1*} of the SVD Schmidt vectors of phi."""
    dec = schmidt_decompose(wc.phi, 3, 3)
    if dec.schmidt_rank != 2:
        raise ValueError(f"need Schmidt rank 2, got {dec.schmidt_rank}")
    a = dec.left_vectors[:, :2]
    b_star = dec.right_vectors[:, :2].conj()
    return a @ dag(a), b_star @ dag(b_star)


def filter_state(rho: np.ndarray, p_a: np.ndarray, p_b: np.ndarray, schmidt):
    """Filtered two-qubit state sigma and the success probability q.

    sigma = (P_A (x) P_B) rho (P_A (x) P_B) / q compressed to the 4 x 4
    representation in the basis {a0, a1} (x) {b0*, b1*} taken from the
    Schmidt data. Raises FilterAnnihilationError when q falls below MIN_Q.
    """
    joint = kron(p_a, p_b)
    q = float(np.trace(joint @ rho).real)
    if q <= MIN_Q:
        raise FilterAnnihilationError(f"filter success probability {q!r} vanishes")
    sigma9 = joint @ rho @ joint / q
    a = schmidt.left_vectors
    b_star = schmidt.right_vectors.conj()
    # column 2i+j is a_i (x) b*_j
    embed = (a[:, None, :2, None] * b_star[None, :, None, :2]).reshape(9, 4)
    return dag(embed) @ sigma9 @ embed, q


def schmidt_reconstruct(dec) -> np.ndarray:
    """Sum of mu_i a_i (x) b_i for a SchmidtDecomposition."""
    out = np.zeros(dec.left_vectors.shape[0] * dec.right_vectors.shape[0], dtype=complex)
    for mu, a, b in zip(dec.coefficients, dec.left_vectors.T, dec.right_vectors.T):
        out += mu * np.kron(a, b)
    return out


def sample_npt_sequential(seed, max_tries: int = 1000):
    """Rejection sampler drawing and fully classifying one table at a time.

    Calls ``simplex.classify`` through the module. Its verdict comes from
    ``simplex._spectrum_report``, the builder that ``sample_npt`` calls on
    each batch row, so a test that patches the builder patches this
    sampler and the package's alike.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        c = rng.dirichlet(np.ones(9))
        coeffs = SimplexCoefficients(d=3, c=(c / c.sum()).reshape(3, 3))
        spectrum = simplex.classify(coeffs)
        if spectrum.classification == simplex.NPT:
            return coeffs, spectrum
    raise SamplingExhaustedError(f"no NPT sample within {max_tries} tries")


def expectation(m: np.ndarray, v: np.ndarray) -> complex:
    """Quadratic form <v|M|v>, refusing a matrix whose shape does not match ``v``."""
    m = np.asarray(m)
    v = np.asarray(v, dtype=complex)
    if m.shape != (v.size, v.size):
        raise ValueError(f"matrix shape {m.shape} does not match vector dim {v.size}")
    return complex(v.conj() @ m @ v)


def eigenvector_residual(coeffs: SimplexCoefficients, wc) -> float:
    """Max-norm of rho^Gamma phi - lambda_min phi for the generating state."""
    rho_pt = partial_transpose(build_state_loop(coeffs), 3, 3)
    return float(np.abs(rho_pt @ wc.phi - wc.lambda_min * wc.phi).max())


def witness_expectation_from_state(coeffs: SimplexCoefficients, wc) -> float:
    """<phi| rho^Gamma |phi> evaluated directly on the generating state."""
    rho_pt = partial_transpose(build_state_loop(coeffs), 3, 3)
    return expectation(rho_pt, wc.phi).real


def mix_loop(u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and phi_tilde of the construction, with PSI[i] alpha[i, k] added entry by entry."""
    u2 = W10 @ u0
    u = np.array([u0, W10 @ u2, u2])
    alpha = np.array([dag(F3) @ u[m] for m in range(3)])
    phi_tilde = np.zeros(9, dtype=complex)
    for i in range(3):
        if PSI[i] == 0.0:
            continue
        for k in range(3):
            phi_tilde[3 * k + (k + i) % 3] += PSI[i] * alpha[i, k]
    return alpha, phi_tilde


def battery_residuals_loop(coeffs: SimplexCoefficients, wc) -> dict:
    """The verify battery's 12 residuals, block by block and one eigvalsh call per spectrum."""
    rho = build_state(coeffs)
    rho_pt = partial_transpose(rho, 3, 3)
    lam = wc.lambda_min
    mu = wc.schmidt_coefficients
    mu0, mu1 = float(mu[0]), float(mu[1])
    w_eigs = np.linalg.eigvalsh(wc.W)
    expected = np.sort([mu0**2, mu1**2, mu0 * mu1, -mu0 * mu1, 0, 0, 0, 0, 0])
    mirror_floor = float(np.linalg.eigvalsh(mu0**2 * np.eye(9) - wc.W)[0])
    rep = filter_report(rho, wc)
    sigma_eigs = np.linalg.eigvalsh(rep.sigma)
    return {
        "block_eigen_residual": max(
            float(np.abs(pt_block(coeffs, m) @ wc.u[m] - lam * wc.u[m]).max()) for m in range(3)
        ),
        "alpha_shift_residual": max(
            float(np.abs(np.roll(wc.alpha[m], -1) - wc.alpha[(m + 2) % 3]).max())
            for m in range(3)
        ),
        "eigenvector_residual": float(np.abs(rho_pt @ wc.phi - lam * wc.phi).max()),
        "expectation_minus_lambda": abs(complex(wc.phi.conj() @ rho_pt @ wc.phi).real - lam),
        "schmidt_third_relative": float(mu[2] / mu[0]),
        "witness_spectrum_dev": float(np.abs(w_eigs - expected).max()),
        "witness_trace_identity": abs(detect(wc.W, rho) - lam),
        "mirror_negative_part": max(0.0, -mirror_floor),
        "filter_fixpoint_residual": float(np.abs(kron(wc.P_A, wc.P_B.T) @ wc.phi - wc.phi).max()),
        "sigma_trace_dev": abs(float(np.trace(rep.sigma).real) - 1.0),
        "sigma_negative_part": max(0.0, -float(sigma_eigs[0])),
        "sigma_lambda_ratio_dev": abs(float(rep.sigma_pt_spectrum[0]) - lam / rep.q),
    }


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_json(v) -> list:
    return [complex_to_json(z) for z in np.asarray(v).ravel()]


def matrix_to_json(m) -> list:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m)]


def real_vector_to_json(v) -> list:
    return [float(x) for x in np.asarray(v).ravel()]


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
