"""Local filtering to an entangled two-qubit state and white-noise thresholds.

The Schmidt vectors of the rank-2 witness vector define local rank-2
projectors. Sandwiching the qutrit state between them and renormalizing
yields a 4 x 4 state sigma on the filtered qubit pair, with success
probability q. Because the witness vector is a ground eigenvector of the
partial transpose, sigma's partial transpose has smallest eigenvalue
exactly lambda_min / q, which fixes closed-form white-noise thresholds for
both the original state and the filtered pair.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import dag, kron, partial_transpose
from .witness import WitnessConstruction

#: thresholds closer than this count as a tie in the robustness comparison
TIE_TOL = 1e-10

#: filtering below this success probability is treated as annihilation
MIN_Q = 1e-12


class FilterAnnihilationError(ValueError):
    """The projector pair removed (numerically) all weight from the state."""


@dataclass(frozen=True)
class FilterReport:
    """Filtering outcome plus the noise-threshold comparison.

    sigma is expressed in the ordered product basis (a0,b0*), (a0,b1*),
    (a1,b0*), (a1,b1*) built from the witness Schmidt vectors.
    qubit_more_robust records p_sigma_max > p_rho_max, which coincides
    with q < 4/9; robustness_tie is set when the two thresholds agree
    within TIE_TOL, which happens exactly at q = 4/9.
    """

    P_A: np.ndarray
    P_B: np.ndarray
    q: float
    sigma: np.ndarray
    sigma_pt_spectrum: np.ndarray
    p_rho_max: float
    p_sigma_max: float
    qubit_more_robust: bool
    robustness_tie: bool


def filters_from_witness(wc: WitnessConstruction) -> tuple[np.ndarray, np.ndarray]:
    """Local rank-2 projectors spanned by the witness Schmidt vectors.

    P_A projects onto span{a0, a1}; P_B onto span{b0*, b1*}. The pair
    satisfies (P_A (x) P_B^T) phi = phi.
    """
    if wc.schmidt.schmidt_rank != 2:
        raise ValueError(f"need Schmidt rank 2, got {wc.schmidt.schmidt_rank}")
    a = wc.schmidt.left_vectors
    b_star = wc.schmidt.right_vectors.conj()
    p_a = np.outer(a[:, 0], a[:, 0].conj()) + np.outer(a[:, 1], a[:, 1].conj())
    p_b = np.outer(b_star[:, 0], b_star[:, 0].conj()) + np.outer(b_star[:, 1], b_star[:, 1].conj())
    return p_a, p_b


def filter_state(
    rho: np.ndarray,
    p_a: np.ndarray,
    p_b: np.ndarray,
    schmidt,
) -> tuple[np.ndarray, float]:
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
    sigma = dag(embed) @ sigma9 @ embed
    return sigma, q


def p_rho_max(expectation_value: float, d: int) -> float:
    """Largest white-noise weight at which the witness still fires.

    For trace(W rho) = e < 0 the noisy state (1-p) rho + p/d^2 stays
    detected while p < -d^2 e / (1 - d^2 e). Strictly increasing as e
    decreases; e must lie in [-1/2, 0).
    """
    if not -0.5 - 1e-12 <= expectation_value < 0.0:
        raise ValueError(f"expectation {expectation_value!r} outside [-1/2, 0)")
    scaled = d * d * expectation_value
    return -scaled / (1.0 - scaled)


def p_sigma_max(lambda_min_rho: float, q: float) -> float:
    """Largest white-noise weight keeping the filtered qubit pair NPT.

    With lambda_min(sigma^Gamma) = lambda / q the threshold is
    -4 lambda / (q - 4 lambda).
    """
    if lambda_min_rho >= 0.0:
        raise ValueError(f"lambda_min must be negative, got {lambda_min_rho!r}")
    if not 0.0 < q <= 1.0 + 1e-12:
        raise ValueError(f"success probability {q!r} outside (0, 1]")
    return 4.0 * lambda_min_rho / (4.0 * lambda_min_rho - q)


def add_white_noise(state: np.ndarray, p) -> np.ndarray:
    """Mix a state with the maximally mixed one: (1-p) state + p/n * 1.

    ``p`` is one weight or an array of weights; for an array the result is
    the stack of mixtures, shape p.shape + (n, n), each bit for bit the
    single-weight result. Every weight must lie in [0, 1].
    """
    p = np.asarray(p, dtype=float)
    outside = ~((0.0 <= p) & (p <= 1.0))
    if np.any(outside):
        raise ValueError(f"noise weight {float(p[outside][0])!r} outside [0, 1]")
    state = np.asarray(state, dtype=complex)
    n = state.shape[0]
    p = p[..., None, None]
    return (1.0 - p) * state + (p / n) * np.eye(n)


def filter_report(rho: np.ndarray, wc: WitnessConstruction) -> FilterReport:
    """Run the whole filtering stage for a state and its witness construction."""
    p_a, p_b = filters_from_witness(wc)
    sigma, q = filter_state(rho, p_a, p_b, wc.schmidt)
    # eigh, not eigvalsh: the report writes these bytes and eigvalsh moves their last digits
    spectrum = np.linalg.eigh(partial_transpose(sigma, 2, 2)).eigenvalues
    rho_threshold = p_rho_max(wc.lambda_min, 3)
    sigma_threshold = p_sigma_max(wc.lambda_min, q)
    tie = abs(sigma_threshold - rho_threshold) <= TIE_TOL
    for arr in (p_a, p_b, sigma, spectrum):
        arr.setflags(write=False)
    return FilterReport(
        P_A=p_a,
        P_B=p_b,
        q=q,
        sigma=sigma,
        sigma_pt_spectrum=spectrum,
        p_rho_max=rho_threshold,
        p_sigma_max=sigma_threshold,
        qubit_more_robust=bool(sigma_threshold > rho_threshold),
        robustness_tie=tie,
    )
