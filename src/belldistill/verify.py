"""Monte-Carlo verification campaign over random NPT Bell-diagonal qutrits.

Each trial samples an NPT coefficient table from its own seed, runs the
complete pipeline and checks every identity the construction promises:
ground-eigenvector property, Schmidt coefficients mu0 = mu1 = 1/sqrt 2, a
third coefficient mu2 of rounding size, an orthonormal local frame that
rebuilds the witness vector, the three-fold degeneracy of the negative
eigenvalue, the witness spectrum, the filtered state's spectrum and the
white-noise thresholds. Rank 2 is an identity of the construction, which
therefore guards nothing about it at run time; mu2, the weight of phi on
the closed-form kernel vector a_2, is the battery's check that the
identity was written correctly. The battery checks the
construction rather than repeating it: every check reads an identity from
the construction's output that no step of the construction computes or
guards, so each of them can fail. On a p-grid that holds both thresholds,
the witness must fire on exactly the noisy states that are still NPT and
the filtered pair's noisy states must turn PPT at p_sigma_max; every sign
is read by :func:`~belldistill.simplex.verdict`, so each family reads
BOUNDARY at its own threshold. The grid starts at p = 0, so its first
witness value is trace(W rho) itself, and the battery reads it there
rather than calling ``detect`` again. After the sampler's one stacked
``eigh`` per batch of draws, a trial makes four solver calls. Trials are
pure functions of their seed, so campaigns parallelize and aggregate
order-independently.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .filtering import _identity, filter_report, noise_scan
from .linalg import kron, partial_transpose
from .simplex import (
    BOUNDARY,
    GENERATOR_NAME,
    NPT,
    SamplingExhaustedError,
    _blocks,
    build_state,
    lambda_min_multiplicity,
    sample_npt,
    verdict,
)
from .witness import construct_witness_vector

#: white-noise grid for threshold-semantics checks, as plain floats; it
#: starts at p = 0, where the noisy state is rho itself
NOISE_GRID = tuple(np.linspace(0.0, 1.0, 21).tolist())

#: ascending spectrum of W at mu0 = mu1 = 1/sqrt 2: -1/2, 0 five times, 1/2 three times
W_SPECTRUM = np.array([-0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
W_SPECTRUM.setflags(write=False)

#: residual names in fixed reporting order; sigma_trace_dev alone is
#: recorded but not checked, because sigma's normalization, sigma =
#: compressed / q, already bounds it
RESIDUAL_KEYS = (
    "block_eigen_residual",
    "alpha_shift_residual",
    "eigenvector_residual",
    "expectation_minus_lambda",
    "schmidt_third_relative",
    "witness_spectrum_dev",
    "witness_trace_identity",
    "mirror_negative_part",
    "filter_fixpoint_residual",
    "sigma_trace_dev",
    "sigma_negative_part",
    "sigma_lambda_ratio_dev",
)


@dataclass
class TrialResult:
    seed: int
    coefficients: np.ndarray | None
    failures: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class CampaignResult:
    count: int
    master_seed: int
    residual_max: dict
    failed_trials: list

    @property
    def ok(self) -> bool:
        return not self.failed_trials


def _seed_words(master_seed: int, count: int) -> np.ndarray:
    """The ``count`` uint64 words behind :func:`trial_seeds`, 8 bytes per trial."""
    return np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)


def trial_seeds(master_seed: int, count: int) -> list:
    """Disjoint per-trial integer seeds derived from one master seed."""
    return [int(w) for w in _seed_words(master_seed, count)]


def run_trial(seed: int) -> TrialResult:
    """Sample one NPT state from ``seed`` and check the full invariant battery.

    A sampler that gives up, SamplingExhaustedError, fails this trial
    instead of aborting the campaign. No construction error is caught:
    sample_npt's u_0 comes from an eigensolver, so it is a unit vector, and
    NotNPTError cannot arise either, since sample_npt accepts a table only
    when verdict labels B_0's smallest eigenvalue NPT, and for d = 3 that
    same float is the report's lambda_min, which verdict reads the same way.
    """
    result = TrialResult(seed=seed, coefficients=None)
    try:
        coeffs, spectrum = sample_npt(seed)
        result.coefficients = np.asarray(coeffs.c)
        _check_invariants(coeffs, spectrum, result)
    except SamplingExhaustedError as exc:
        result.failures.append(f"{type(exc).__name__}: {exc}")
    return result


def _check_invariants(coeffs, spectrum, result: TrialResult) -> None:
    """The invariant battery of :func:`run_trial`; records into ``result``.

    ``spectrum`` is the classification report of ``coeffs``. The battery
    reads its three dense 9 x 9 spectra, of rho^Gamma, W and mu0^2 * 1 - W,
    from one stacked ``eigvalsh``, each row bit for bit its own call's, and
    its three blocks B_m from simplex's one block builder,
    :func:`~belldistill.simplex._blocks`. trace(W rho) is the noise grid's
    value at p = 0.
    """
    res = result.residuals

    def check(name, condition, detail):
        # detail() formats the message; it runs only when the check fails
        if not condition:
            result.failures.append(f"{name}: {detail()}")

    def bounded(name, key, value, bound, word="residual"):
        # record residual ``key`` and check it against ``bound``
        res[key] = value
        check(name, value <= bound, lambda: f"{word} {value:.3e}")

    wc = construct_witness_vector(spectrum)
    rho = build_state(coeffs)
    rho_pt = partial_transpose(rho, 3, 3)
    mu = wc.schmidt_coefficients
    mu0, mu1 = float(mu[0]), float(mu[1])
    pt_eigs, w_eigs, mirror_eigs = np.linalg.eigvalsh(
        np.array([rho_pt, wc.W, mu0**2 * _identity(9) - wc.W])
    )

    negatives = sum(verdict(x) == NPT for x in pt_eigs.tolist())
    check("negative_count", negatives == 3, lambda: f"{negatives} negative eigenvalues")
    mult = lambda_min_multiplicity(pt_eigs)
    check("lambda_min_multiplicity", mult == 3, lambda: f"multiplicity {mult}")

    lam = wc.lambda_min
    blocks = _blocks(coeffs.c.reshape(1, 9), 3, (0, 1, 2))[0]
    block_res = float(np.abs((blocks @ wc.u[:, :, None])[..., 0] - lam * wc.u).max())
    bounded("block_eigenvectors", "block_eigen_residual", block_res, 1e-10)
    # row m: alpha_m shifted by one entry against alpha_{m+2}
    alpha_res = float(np.abs(wc.alpha[:, (1, 2, 0)] - wc.alpha[(2, 0, 1), :]).max())
    bounded("alpha_shift_relation", "alpha_shift_residual", alpha_res, 1e-12)

    eig_res = float(np.abs(rho_pt @ wc.phi - lam * wc.phi).max())
    bounded("eigenvector_property", "eigenvector_residual", eig_res, 1e-10)

    exp_dev = abs(complex(wc.phi.conj() @ rho_pt @ wc.phi).real - lam)
    bounded("expectation_equals_lambda", "expectation_minus_lambda", exp_dev, 1e-10, "deviation")

    # mu2 is the weight of phi on the closed-form kernel vector a_2; no
    # construction step bounds it, so a wrong a_2 fails here
    bounded("schmidt_rank_2", "schmidt_third_relative", float(mu[2] / mu[0]), 1e-12)
    # the closed forms P_A = 2 M M^dag and P_B = 2 M^dag M assume mu0 = mu1 = 1/sqrt 2
    mu_dev = float(np.abs(mu[:2] - np.sqrt(0.5)).max())
    check("schmidt_equal_coefficients", mu_dev <= 1e-9, lambda: f"coefficients {mu}")
    left, right = wc.schmidt_left, wc.schmidt_right
    gram_dev = max(float(np.abs(f.conj() @ f.T - _identity(2)).max()) for f in (left, right))
    check("frame_orthonormal", gram_dev <= 1e-12, lambda: f"deviation {gram_dev:.3e}")
    rebuild_dev = float(np.abs((left.T @ right).ravel() / np.sqrt(2.0) - wc.phi).max())
    check("frame_rebuilds_phi", rebuild_dev <= 1e-12, lambda: f"deviation {rebuild_dev:.3e}")

    expected = np.sort([mu0**2, mu1**2, mu0 * mu1, -mu0 * mu1, 0, 0, 0, 0, 0])
    spec_dev = float(np.abs(w_eigs - expected).max())
    bounded("witness_spectrum", "witness_spectrum_dev", spec_dev, 1e-9, "deviation")
    closed_dev = float(np.abs(w_eigs - W_SPECTRUM).max())
    check("witness_spectrum_closed_form", closed_dev <= 1e-9, lambda: f"spectrum {w_eigs}")

    rep = filter_report(rho, wc)
    points = NOISE_GRID + (rep.p_rho_max, rep.p_sigma_max)
    values, sigma_minima = (a.tolist() for a in noise_scan(wc.W, rho, rep.sigma, np.array(points)))
    # trace(W rho) is the value at the grid's first point, p = 0
    value = values[0]
    trace_dev = abs(value - lam)
    res["witness_trace_identity"] = trace_dev
    check(
        "witness_detects",
        verdict(value) == NPT and trace_dev <= 1e-10,
        lambda: f"trace(W rho) {value!r}",
    )

    mirror_floor = float(mirror_eigs[0])
    res["mirror_negative_part"] = max(0.0, -mirror_floor)
    check("mirror_psd", mirror_floor >= -1e-10, lambda: f"floor {mirror_floor:.3e}")

    fix_res = float(np.abs(kron(wc.P_A, wc.P_B.T) @ wc.phi - wc.phi).max())
    bounded("filter_fixpoint", "filter_fixpoint_residual", fix_res, 1e-10)

    sigma_eigs = np.linalg.eigvalsh(rep.sigma)
    res["sigma_negative_part"] = max(0.0, -float(sigma_eigs[0]))
    check("sigma_psd", sigma_eigs[0] >= -1e-10, lambda: f"floor {sigma_eigs[0]:.3e}")
    res["sigma_trace_dev"] = abs(float(np.trace(rep.sigma).real) - 1.0)

    ratio_dev = abs(float(rep.sigma_pt_spectrum[0]) - lam / rep.q)
    bounded("sigma_pt_minimum", "sigma_lambda_ratio_dev", ratio_dev, 1e-9, "deviation")
    check(
        "sigma_single_negative",
        sum(verdict(x) == NPT for x in rep.sigma_pt_spectrum.tolist()) == 1,
        lambda: f"spectrum {rep.sigma_pt_spectrum}",
    )

    if not rep.robustness_tie:
        check(
            "robustness_equivalence",
            rep.qubit_more_robust == (rep.q < 4.0 / 9.0),
            lambda: f"q {rep.q!r}, thresholds {rep.p_rho_max!r} / {rep.p_sigma_max!r}",
        )

    # adding (p/n) 1 shifts every partial-transpose eigenvalue by p/n, so
    # each family's minimum is affine in p: the label of every noise_scan
    # value must be verdict of its closed form from the dense spectra above,
    # and BOUNDARY at the family's own threshold. For rho this says the
    # witness detects exactly the noisy states that are still NPT. Failures
    # are reported point by point, rho before sigma.
    rho_low, sigma_low = float(pt_eigs[0]), float(rep.sigma_pt_spectrum[0])
    for p, value, low in zip(points, values, sigma_minima):
        for name, got, closed, threshold in (
            ("rho", value, (1 - p) * rho_low + p / 9, rep.p_rho_max),
            ("sigma", low, (1 - p) * sigma_low + p / 4, rep.p_sigma_max),
        ):
            label = verdict(got)
            expected = BOUNDARY if p == threshold else verdict(closed)
            if label != expected:
                result.failures.append(
                    f"{name}_threshold_semantics: p={p!r} value={got!r} reads {label}, "
                    f"not {expected}; threshold={threshold!r}"
                )


def run_campaign(count: int, master_seed: int, jobs: int = 1) -> CampaignResult:
    """Run ``count`` independent trials and aggregate order-independently.

    Each trial is folded into the residual maxima and the failure list as it
    arrives, in seed order, so only failed trials are kept. The seeds are
    those of :func:`trial_seeds`, held as one array of uint64 words and
    turned into ints one at a time as trials are dispatched.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = map(int, _seed_words(master_seed, count))
    residual_max = dict.fromkeys(RESIDUAL_KEYS, 0.0)
    failed = []

    def fold(results):
        for r in results:
            for key in RESIDUAL_KEYS:
                if key in r.residuals:
                    residual_max[key] = max(residual_max[key], r.residuals[key])
            if not r.ok:
                failed.append(r)

    # the pool forks all its workers at the first submit, so ask for no more than can work
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers == 1:
        fold(map(run_trial, seeds))
    else:
        # imported here so that one-job runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            fold(pool.map(run_trial, seeds, chunksize=max(1, count // (4 * workers))))
    return CampaignResult(
        count=count, master_seed=master_seed, residual_max=residual_max, failed_trials=failed
    )


def summary_text(campaign: CampaignResult) -> str:
    """Deterministic, byte-stable text summary of a campaign."""
    lines = [
        "one-copy distillability verification campaign",
        f"  trials        : {campaign.count}",
        f"  master seed   : {campaign.master_seed}",
        f"  bit generator : {GENERATOR_NAME}",
        f"  failures      : {len(campaign.failed_trials)}",
        "  residual maxima over all trials:",
    ]
    for key in RESIDUAL_KEYS:
        lines.append(f"    {key:<26s}: {campaign.residual_max[key]:.6e}")
    for trial in campaign.failed_trials:
        lines.append(f"  FAILED trial seed {trial.seed}")
        if trial.coefficients is not None:
            lines.append("    coefficients:")
            for row in trial.coefficients:
                lines.append("      [" + ", ".join(repr(float(x)) for x in row) + "]")
        for msg in trial.failures:
            lines.append(f"    {msg}")
    lines.append("PASS" if campaign.ok else "FAIL")
    return "\n".join(lines) + "\n"
