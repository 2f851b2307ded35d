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
- ``schmidt_reconstruct`` rebuilds a vector from its Schmidt decomposition;
- ``sample_npt_sequential`` draws and fully classifies one table at a time;
- ``eigenvector_residual`` and ``witness_expectation_from_state`` are the
  two dense quantities that the verify battery computes inline;
- ``complex_to_json``, ``vector_to_json``, ``matrix_to_json`` and
  ``real_vector_to_json`` convert entry by entry, the serialisation the
  report writer's array conversion must match byte for byte;
- ``dump_json`` is the standard library's encoder, whose bytes
  ``dump_report`` must reproduce and whose refusals it must share.

Each is built from package pieces other than the route it checks.
"""

import json

import numpy as np

from belldistill import simplex
from belldistill.linalg import dag, expectation, kron, partial_transpose
from belldistill.simplex import SamplingExhaustedError, SimplexCoefficients, pt_block
from belldistill.weyl import _check_dim, bell_unitary, bell_vector, phase_table, weyl
from belldistill.witness import WitnessOperator


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


def product_vector_positivity_check(wop: WitnessOperator, trials: int, seed) -> float:
    """Minimum of <a,b|W|a,b> over random product vectors.

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
    values = np.einsum("ni,ij,nj->n", products.conj(), wop.W, products).real
    return float(values.min())


def schmidt_reconstruct(dec) -> np.ndarray:
    """Sum of mu_i a_i (x) b_i for a SchmidtDecomposition."""
    out = np.zeros(dec.left_vectors.shape[0] * dec.right_vectors.shape[0], dtype=complex)
    for mu, a, b in zip(dec.coefficients, dec.left_vectors.T, dec.right_vectors.T):
        out += mu * np.kron(a, b)
    return out


def sample_npt_sequential(seed, max_tries: int = 1000):
    """Rejection sampler drawing and fully classifying one table at a time.

    Calls ``simplex.classify`` through the module, so a test that patches it
    patches this sampler and the package's alike.
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


def eigenvector_residual(coeffs: SimplexCoefficients, wc) -> float:
    """Max-norm of rho^Gamma phi - lambda_min phi for the generating state."""
    rho_pt = partial_transpose(build_state_loop(coeffs), 3, 3)
    return float(np.abs(rho_pt @ wc.phi - wc.lambda_min * wc.phi).max())


def witness_expectation_from_state(coeffs: SimplexCoefficients, wc) -> float:
    """<phi| rho^Gamma |phi> evaluated directly on the generating state."""
    rho_pt = partial_transpose(build_state_loop(coeffs), 3, 3)
    return expectation(rho_pt, wc.phi).real


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
