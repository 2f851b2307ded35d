"""Loop forms of the Bell-frame kernel and of the sampler, kept as test oracles.

Each function spells out the definition the package evaluates in closed
form: ``pt_block`` and ``build_state`` term by term, ``sample_npt`` one
draw and one full classification at a time, and the two dense quantities
that the verify battery computes inline. None of them shares code with the
package's fast paths beyond ``weyl`` and ``classify``.
"""

import numpy as np

from belldistill import simplex
from belldistill.linalg import expectation, partial_transpose
from belldistill.simplex import SamplingExhaustedError, SimplexCoefficients
from belldistill.weyl import bell_vector, phase_table


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
