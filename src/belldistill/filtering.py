"""Local filtering to an entangled two-qubit state and white-noise thresholds.

The witness construction's local frame {a_0, a_1} (x) {b_0^*, b_1^*}
spans the ranges of the rank-2 projectors P_A and P_B. With E the 9 x 4
matrix of the frame's product vectors, E E^dag = P_A (x) P_B, so
compressing the qutrit state to the frame, sigma = E^dag rho E / q with
q = trace(E^dag rho E), is the filtered state
(P_A (x) P_B) rho (P_A (x) P_B) / q of the qubit pair, reached with
success probability q. Because the witness vector is a ground eigenvector
of the partial transpose, sigma's partial transpose has smallest eigenvalue
exactly lambda_min / q, which fixes closed-form white-noise thresholds for
both the original state and the filtered pair.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import dag, kron, partial_transpose
from .witness import WitnessConstruction, detect

#: thresholds closer than this count as a tie in the robustness comparison
TIE_TOL = 1e-10

#: filtering below this success probability is treated as annihilation. On
#: the pipeline's path it cannot fire: sigma is a two-qubit state, so
#: lambda / q = lambda_min(sigma^Gamma) >= -1/2 (Rana, PRA 87, 054301 (2013)),
#: and q >= 2 |lambda| > 2 BOUNDARY_TOL > MIN_Q on every NPT table; the guard
#: is for direct calls with other states
MIN_Q = 1e-12


class FilterAnnihilationError(ValueError):
    """The projector pair removed (numerically) all weight from the state."""


@dataclass(frozen=True)
class FilterReport:
    """Filtering outcome plus the noise-threshold comparison.

    The filters P_A and P_B are held by the witness construction alone
    (``WitnessConstruction.P_A`` and ``.P_B``); sigma is expressed in the
    ordered product basis (a0,b0*), (a0,b1*), (a1,b0*), (a1,b1*) of its frame.
    qubit_more_robust records p_sigma_max > p_rho_max, which coincides
    with q < 4/9; robustness_tie is set when the two thresholds agree
    within TIE_TOL, which happens exactly at q = 4/9.
    """

    q: float
    sigma: np.ndarray
    sigma_pt_spectrum: np.ndarray
    p_rho_max: float
    p_sigma_max: float
    qubit_more_robust: bool
    robustness_tie: bool


def p_rho_max(expectation_value: float) -> float:
    """Largest white-noise weight at which the witness still fires.

    The witness is qutrit-only, so d = 3 is fixed: for trace(W rho) = e < 0
    the noisy state (1-p) rho + p/9 stays detected while p < -9e / (1 - 9e).
    Strictly increasing as e decreases; e must lie in [-1/2, 0).
    """
    if not -0.5 - 1e-12 <= expectation_value < 0.0:
        raise ValueError(f"expectation {expectation_value!r} outside [-1/2, 0)")
    scaled = 9 * expectation_value
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
    # NaN fails both comparisons; the offending weight is looked up only then
    if not (p.min(initial=0.0) >= 0.0 and p.max(initial=0.0) <= 1.0):
        outside = ~((0.0 <= p) & (p <= 1.0))
        raise ValueError(f"noise weight {float(p[outside][0])!r} outside [0, 1]")
    state = np.asarray(state, dtype=complex)
    n = state.shape[0]
    p = p[..., None, None]
    return (1.0 - p) * state + (p / n) * _identity(n)


@functools.lru_cache(maxsize=3)
def _identity(n: int) -> np.ndarray:
    """The n x n identity of :func:`add_white_noise`, built once per n and read-only.

    Bounded because add_white_noise is public and takes states of any size;
    the package itself reads only n = 9, 4 and 2, which the three entries hold.
    """
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def noise_scan(w: np.ndarray, rho: np.ndarray, sigma: np.ndarray, ps) -> tuple:
    """The white-noise family of a state and its filtered pair over weights ``ps``.

    Returns two arrays over ``ps``: trace(W rho_p), the witness value of
    rho_p = (1-p) rho + p/9, and the smallest eigenvalue of sigma_p^Gamma,
    the partial transpose of sigma_p = (1-p) sigma + p/4. Each comes from one
    stacked call, and each entry is bit for bit the single-weight value.
    """
    values = detect(w, add_white_noise(rho, ps))
    sigma_pt = partial_transpose(add_white_noise(sigma, ps), 2, 2)
    return values, np.linalg.eigvalsh(sigma_pt)[..., 0]


def filter_report(rho: np.ndarray, wc: WitnessConstruction) -> FilterReport:
    """Run the whole filtering stage for a state and its witness construction.

    Raises FilterAnnihilationError when q falls below MIN_Q. For the
    construction's own state this cannot happen: lambda_min(sigma^Gamma) =
    lambda / q is at least -1/2 for a two-qubit state, so
    q >= 2 |lambda| > 2 BOUNDARY_TOL > MIN_Q on every NPT table.
    """
    # column 2i + j is a_i (x) b*_j
    embed = kron(wc.schmidt_left.T, wc.schmidt_right.conj().T)
    compressed = dag(embed) @ rho @ embed
    q = float(np.trace(compressed).real)
    if q <= MIN_Q:
        raise FilterAnnihilationError(f"filter success probability {q!r} vanishes")
    sigma = compressed / q
    # eigh, not eigvalsh: the report writes these bytes and eigvalsh moves their last digits
    spectrum = np.linalg.eigh(partial_transpose(sigma, 2, 2)).eigenvalues
    rho_threshold = p_rho_max(wc.lambda_min)
    sigma_threshold = p_sigma_max(wc.lambda_min, q)
    tie = abs(sigma_threshold - rho_threshold) <= TIE_TOL
    for arr in (sigma, spectrum):
        arr.setflags(write=False)
    return FilterReport(
        q=q,
        sigma=sigma,
        sigma_pt_spectrum=spectrum,
        p_rho_max=rho_threshold,
        p_sigma_max=sigma_threshold,
        qubit_more_robust=bool(sigma_threshold > rho_threshold),
        robustness_tie=tie,
    )
