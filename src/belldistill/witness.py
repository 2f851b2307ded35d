"""Rank-2 eigenvector construction and the one-copy distillability witness.

For an NPT Bell-diagonal qutrit pair the smallest eigenvalue of the
partially transposed state admits an eigenvector of Schmidt rank 2. It is
assembled from the ground eigenvector of block B_0, which classification
already solved: Weyl conjugation propagates it through the other blocks, a
Fourier transform turns the triple into coefficient vectors, and a fixed
two-term superposition followed by the Bell-frame swap yields the vector.
Its partially transposed projector W is an entanglement witness whose
negative expectation certifies one-copy distillability. W is fixed once phi
is, so the construction holds it as a plain read-only 9 x 9 array: its
spectrum and mirror mu0^2 * 1 - W follow from the construction's Schmidt
coefficients, so nothing else is stored with it.

The vector phi has two equal Schmidt coefficients, mu0 = mu1 = 1/sqrt 2,
so its Schmidt bases are not unique and an SVD would pick one of them
arbitrarily. The construction fixes them instead from M, phi reshaped to
3 x 3: P_A = 2 M M^dag and P_B = 2 M^dag M are the local projectors, a_0
and a_1 are the Gram-Schmidt pivot columns of P_A, and b_i = sqrt 2 M^T
a_i^*, so that phi = (a_0 (x) b_0 + a_1 (x) b_1) / sqrt 2. Every pivot is
chosen by :func:`~belldistill.simplex.pivot_index`, so the frame moves
continuously with the input table except where a pivot weight crosses its
tie threshold.

Rank 2 is an identity of the construction, not a property of the input.
For any u_0 the coefficient matrix C = phi_tilde reshaped to 3 x 3 has the
pattern [[a, 0, b], [c, -b, 0], [0, -a, -c]], so C C^dag = S 1 - v v^dag
with v = conj(c, -a, b) and S = |a|^2 + |b|^2 + |c|^2 = ||u_0||^2 / 2, and
C (b, c, -a)^T = 0: det C = 0 and the singular values are (sqrt S, sqrt S,
0). The equal coefficients 1/sqrt 2 need a unit u_0, which is checked, and
only the eigenvector property rho^Gamma phi = lambda phi needs u_0 to be
B_0's ground vector. So the third frame vector is written down rather than
solved for: a_2 = sqrt 2 F^dag conj(b, c, -a) spans the left kernel of M.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dag, partial_transpose
from .simplex import NPT, PTSpectrumReport, pivot_index
from .weyl import fourier, swap_conjugation, weyl

#: u_0 counts as a unit vector iff | ||u_0||^2 - 1 | is at most this; B_0's
#: ground vector misses by rounding, measured at most 2e-15 over 3000 samples
UNIT_TOL = 1e-10

#: imaginary parts above this in a witness expectation signal a Hermiticity bug
IMAG_TOL = 1e-11

#: the d = 3 constants of the construction, built once and shared read-only:
#: the diagonal Weyl operator W_{1,0}, the Fourier matrix F and F^dag (a
#: transposed view, the layout ``dag`` returns), the Bell-frame swap
#: (F^dag (x) F) flip and the fixed mixing amplitudes psi = (1, 0, -1)/sqrt 2
W10 = weyl(3, 1, 0)
F3 = fourier(3)
F3_DAG = dag(F3)
SWAP3 = swap_conjugation(3)
PSI = np.array([1.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
for _const in (W10, F3, F3_DAG, SWAP3, PSI):
    _const.setflags(write=False)

#: (i, entries) for each nonzero PSI[i], which mixes alpha[i, k] into entry
#: 3k + (k + i) mod 3 of phi_tilde
_MIX = tuple((i, np.array([3 * k + (k + i) % 3 for k in range(3)])) for i in range(3) if PSI[i])


class NotNPTError(ValueError):
    """Witness construction requires a strictly NPT input state."""


@dataclass(frozen=True)
class WitnessConstruction:
    """Full trace of the rank-2 eigenvector build.

    u[m] is the ground eigenvector of block B_m (row m of a 3 x 3 array),
    alpha[m] its Fourier transform, phi_tilde the pre-swap vector that
    mixes the alpha[m] with the fixed amplitudes PSI, and phi the
    normalized rank-2 eigenvector. The coefficient matrix C is phi_tilde
    reshaped to 3 x 3, so it is not held apart; by the module's identity
    its singular values are (1/sqrt 2, 1/sqrt 2, 0) up to rounding.

    W = (|phi><phi|)^Gamma is the witness, a read-only 9 x 9 array. Its
    spectrum is {mu0^2, mu1^2, mu0 mu1, -mu0 mu1, 0 x5}, so mu0^2 * 1 - W
    is positive semidefinite.

    P_A and P_B are the local rank-2 projectors of phi, the filters of
    :func:`~belldistill.filtering.filter_report`. schmidt_left holds
    the frame vectors a_0, a_1 as rows and schmidt_right b_0, b_1, so that
    phi = sum_i a_i (x) b_i / sqrt 2. schmidt_coefficients is
    [mu0, mu1, mu2] with mu_i = |a_i^dag M| and a_2 the closed-form left
    kernel vector of M; mu2 measures the part of phi outside the frame, and
    is of rounding size.
    """

    lambda_min: float
    u: np.ndarray
    alpha: np.ndarray
    phi_tilde: np.ndarray
    phi: np.ndarray
    W: np.ndarray
    P_A: np.ndarray
    P_B: np.ndarray
    schmidt_coefficients: np.ndarray
    schmidt_left: np.ndarray
    schmidt_right: np.ndarray


def construct_witness_vector(spectrum: PTSpectrumReport) -> WitnessConstruction:
    """Build the Schmidt-rank-2 ground eigenvector of the partial transpose.

    ``spectrum`` is the :func:`~belldistill.simplex.classify` report of the
    table; lambda_min and u_0, the ground vector of B_0, are read from it.
    Only d = 3 is supported and the report must say NPT; PPT and boundary
    tables are refused because the construction has no meaning there, and
    so is a u_0 that is not a finite unit vector (ValueError). The result is
    deterministic for identical input.
    """
    u0 = spectrum.u0
    if u0.size != 3:
        raise ValueError(f"construction is specific to d=3, got d={u0.size}")
    lambda_min = spectrum.lambda_min
    verdict = spectrum.classification
    if verdict != NPT:
        raise NotNPTError(f"state classifies as {verdict} (lambda_min = {lambda_min!r}); need NPT")
    norm2 = float(np.vdot(u0, u0).real)
    if not abs(norm2 - 1.0) <= UNIT_TOL:  # NaN fails too
        raise ValueError(f"u0 is not a unit vector: ||u0||^2 = {norm2!r}")

    # u_{m+2} = W_{1,0} u_m keeps the relative phases the identities need;
    # only u_0 comes from an eigensolve, the other two are derived.
    u2 = W10 @ u0
    u1 = W10 @ u2
    u = np.array([u0, u1, u2])

    alpha = np.array([F3_DAG @ u[m] for m in range(3)])

    phi_tilde = np.zeros(9, dtype=complex)
    for i, entries in _MIX:
        phi_tilde[entries] += PSI[i] * alpha[i]

    phi = SWAP3 @ phi_tilde
    m = phi.reshape(3, 3)
    p_a = 2.0 * (m @ dag(m))
    p_b = 2.0 * (dag(m) @ m)
    a0 = _pivot_column(p_a)
    a1 = _pivot_column(p_a - _outer(a0, a0))
    # C = [[a, 0, b], [c, -b, 0], [0, -a, -c]] has C (b, c, -a)^T = 0, so the
    # unit vector a_2 = sqrt 2 F^dag conj(b, c, -a) spans the left kernel of M
    a2 = np.sqrt(2.0) * (F3_DAG @ (phi_tilde[[2, 3, 0]].conj() * [1.0, 1.0, -1.0]))
    # row i is a_i^dag M: rows 0 and 1 are b_0^T and b_1^T over sqrt 2, row 2 is
    # the part of phi outside the frame
    rows = np.array([a0, a1, a2]).conj() @ m
    # np.linalg.norm(rows, axis=1), spelled out
    mu = np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=1))
    left = np.array([a0, a1])
    right = np.sqrt(2.0) * rows[:2]
    w = partial_transpose(_outer(phi, phi), 3, 3)

    for arr in (u, alpha, phi_tilde, phi, w, p_a, p_b, mu, left, right):
        arr.setflags(write=False)
    return WitnessConstruction(
        lambda_min=lambda_min,
        u=u,
        alpha=alpha,
        phi_tilde=phi_tilde,
        phi=phi,
        W=w,
        P_A=p_a,
        P_B=p_b,
        schmidt_coefficients=mu,
        schmidt_left=left,
        schmidt_right=right,
    )


def _pivot_column(p: np.ndarray) -> np.ndarray:
    """Unit column of the projector ``p`` at its pivot_index diagonal entry."""
    column = p[:, pivot_index(p.diagonal().real)]
    # np.linalg.norm(column), spelled out
    re, im = column.real, column.imag
    return column / math.sqrt(re.dot(re) + im.dot(im))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a><b|, the products of np.outer(a, b.conj()) without its set-up."""
    return a[:, None] * b.conj()[None, :]


def detect(w: np.ndarray, test_state: np.ndarray) -> float | np.ndarray:
    """Witness expectation trace(W rho) as a real number, for the witness array ``w``.

    Negative values certify one-copy distillability of ``test_state``. A
    single 9 x 9 state gives a float; a stack of shape (..., 9, 9) gives the
    array of its expectations, bit for bit the values of single calls. An
    imaginary part above IMAG_TOL, or NaN, in any of them raises, catching
    non-Hermitian input early.
    """
    test_state = np.asarray(test_state)
    if test_state.shape[-2:] != w.shape:
        raise ValueError(f"state shape {test_state.shape} does not match witness {w.shape}")
    values = np.trace(w @ test_state, axis1=-2, axis2=-1)
    imag = np.abs(values.imag)
    if not imag.max(initial=0.0) <= IMAG_TOL:  # NaN parts fail too
        worst = values.imag.flat[np.argmax(imag)]
        raise ValueError(f"witness expectation has imaginary part {worst:.3e}")
    return float(values.real) if values.ndim == 0 else values.real
