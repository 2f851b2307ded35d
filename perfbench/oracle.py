"""Checks of belldistill's outputs against an independent dense computation.

The oracle rebuilds the Bell-diagonal state of a coefficient table with
plain numpy, from the documented convention alone: c[k, l] weighs the Bell
vector (W_{k,l} (x) 1) |Omega_00>, where W_{k,l} has entry omega^(j k) at
(j, j + l mod 3). It takes the partial transpose by an index swap and
solves it densely, sharing no code with the package.
"""

import numpy as np

D = 3

#: verdict band and tolerances the package documents
BOUNDARY_TOL = 1e-12
LAMBDA_TOL = 1e-12
SIGMA_RATIO_TOL = 1e-9
Q_TOL = 1e-12


def _bell_projectors() -> np.ndarray:
    omega = np.exp(2j * np.pi / D)
    omega00 = np.eye(D).reshape(D * D) / np.sqrt(D)
    projectors = np.empty((D * D, D * D, D * D), dtype=complex)
    for k in range(D):
        for l in range(D):
            w = np.zeros((D, D), dtype=complex)
            for j in range(D):
                w[j, (j + l) % D] = omega ** ((j * k) % D)
            v = np.kron(w, np.eye(D)) @ omega00
            projectors[k * D + l] = np.outer(v, v.conj())
    return projectors


PROJECTORS = _bell_projectors()


def partial_transpose(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    n = d_a * d_b
    return m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(n, n)


def state(c: np.ndarray) -> np.ndarray:
    """Density matrix of the Bell-diagonal state with table ``c``."""
    return np.tensordot(np.asarray(c, dtype=float).ravel(), PROJECTORS, axes=1)


def state_pt(c: np.ndarray) -> np.ndarray:
    return partial_transpose(state(c), D, D)


def lambda_min(c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(state_pt(c))[0])


def verdict(lambda_min: float) -> str:
    if lambda_min < -BOUNDARY_TOL:
        return "NPT"
    if lambda_min > BOUNDARY_TOL:
        return "PPT"
    return "BOUNDARY"


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_analysis(c: np.ndarray, exit_code: int, report: dict, validate_report) -> list:
    """Misses of one ``analyze`` call on table ``c``; an empty list is a pass.

    ``report`` is the decoded report file and ``validate_report`` the
    package's own validator, which the report must also pass.
    """
    misses = []
    rho = state(c)
    rho_pt = partial_transpose(rho, D, D)
    lam = float(np.linalg.eigvalsh(rho_pt)[0])
    expected = verdict(lam)
    if exit_code != (0 if expected == "NPT" else 2):
        misses.append(f"exit code {exit_code} for a {expected} table")
    try:
        validate_report(report)
    except (ValueError, KeyError, TypeError) as exc:
        misses.append(f"validate_report: {exc}")
        return misses
    got = report["classification"]
    if got["classification"] != expected:
        misses.append(f"verdict {got['classification']} != oracle {expected}")
    if abs(got["lambda_min"] - lam) > LAMBDA_TOL:
        misses.append(f"lambda_min {got['lambda_min']!r} != oracle {lam!r}")
    if expected != "NPT" or got["classification"] != "NPT":
        return misses
    phi = _complex(report["witness"]["phi"])
    detection = float(np.real(phi.conj() @ rho_pt @ phi))
    if not detection < 0.0:
        misses.append(f"witness does not detect: trace(W rho) = {detection!r}")
    filt = report["filter"]
    joint = np.kron(_complex(filt["P_A"]), _complex(filt["P_B"]))
    q = float(np.real(np.trace(joint @ rho)))
    if abs(filt["q"] - q) > Q_TOL:
        misses.append(f"q {filt['q']!r} != oracle trace((P_A x P_B) rho) {q!r}")
    sigma = _complex(filt["sigma"])
    sigma_min = float(np.linalg.eigvalsh(partial_transpose(sigma, 2, 2))[0])
    ratio_dev = abs(sigma_min - lam / filt["q"])
    if ratio_dev > SIGMA_RATIO_TOL:
        misses.append(f"|sigma^Gamma_min - lambda/q| = {ratio_dev:.3e}")
    return misses


def check_campaign(campaign, summary: str, count: int) -> list:
    """Misses of one ``verify`` campaign of ``count`` trials."""
    misses = []
    if campaign.count != count:
        misses.append(f"campaign ran {campaign.count} trials, asked for {count}")
    if not campaign.ok:
        misses.append(f"{len(campaign.failed_trials)} failed trials")
    if not summary.endswith("\nPASS\n"):
        misses.append("summary does not end in PASS")
    return misses
