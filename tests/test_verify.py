import dataclasses
import tracemalloc

import numpy as np
import pytest

from belldistill import verify, witness
from belldistill.filtering import add_white_noise, noise_scan
from belldistill.linalg import dag, partial_transpose
from belldistill.simplex import (
    BOUNDARY,
    SimplexCoefficients,
    build_state,
    classify,
    sample_npt,
    verdict,
)
from belldistill.weyl import fourier, swap_conjugation, weyl
from belldistill.witness import construct_witness_vector, detect

from reference import battery_residuals_loop, mix_loop


def halved_thresholds(filter_report):
    def report(rho, wc):
        rep = filter_report(rho, wc)
        return dataclasses.replace(
            rep, p_rho_max=rep.p_rho_max / 2, p_sigma_max=rep.p_sigma_max / 2
        )

    return report


def test_threshold_failures_are_reported_point_by_point(monkeypatch):
    # with halved thresholds every grid point still reads the verdict of its
    # closed form, but each family's halved threshold point must read
    # BOUNDARY and reads NPT: exactly two lines, rho before sigma, each at
    # its own point, which prints as a plain float
    halved = halved_thresholds(verify.filter_report)
    monkeypatch.setattr(verify, "filter_report", halved)
    seed = verify.trial_seeds(0, 1)[0]
    result = verify.run_trial(seed)

    coeffs = SimplexCoefficients(d=3, c=result.coefficients)
    wc = construct_witness_vector(classify(coeffs))
    rho = build_state(coeffs)
    rep = halved(rho, wc)
    value = detect(wc.W, add_white_noise(rho, rep.p_rho_max))
    noisy_pt = partial_transpose(add_white_noise(rep.sigma, rep.p_sigma_max), 2, 2)
    low = float(np.linalg.eigvalsh(noisy_pt)[0])
    assert value < -1e-3 and low < -1e-3
    assert result.failures == [
        f"rho_threshold_semantics: p={rep.p_rho_max!r} value={value!r} reads NPT, "
        f"not BOUNDARY; threshold={rep.p_rho_max!r}",
        f"sigma_threshold_semantics: p={rep.p_sigma_max!r} value={low!r} reads NPT, "
        f"not BOUNDARY; threshold={rep.p_sigma_max!r}",
    ]


def test_untight_witness_fails_at_its_threshold(monkeypatch):
    # W + eps 1 still detects the same states away from the threshold, but
    # reads PPT where rho_p turns PPT: the battery's noise check sees that
    # the witness no longer fires on exactly the NPT noisy states
    eps = 1e-9
    construct = verify.construct_witness_vector

    def shifted(spectrum):
        wc = construct(spectrum)
        return dataclasses.replace(wc, W=wc.W + eps * np.eye(9))

    seed = verify.trial_seeds(0, 1)[0]
    coeffs, spectrum = sample_npt(seed)
    rep = verify.filter_report(build_state(coeffs), construct_witness_vector(spectrum))
    monkeypatch.setattr(verify, "construct_witness_vector", shifted)
    noise = [m for m in verify.run_trial(seed).failures if "_threshold_semantics" in m]
    assert len(noise) == 1
    assert noise[0].startswith(f"rho_threshold_semantics: p={rep.p_rho_max!r} ")
    assert "reads PPT, not BOUNDARY" in noise[0]


def test_witness_detects_exactly_the_npt_noisy_states():
    # dense oracle over the battery's grid: the verdict of trace(W rho_p)
    # is that of the smallest eigenvalue of rho_p^Gamma, formed here with
    # numpy alone, and both read BOUNDARY at p_rho_max
    boundary_points = 0
    for seed in verify.trial_seeds(1, 200):
        coeffs, spectrum = sample_npt(seed)
        wc = construct_witness_vector(spectrum)
        rho = build_state(coeffs)
        rep = verify.filter_report(rho, wc)
        ps = np.array(verify.NOISE_GRID + (rep.p_rho_max, rep.p_sigma_max))
        values, _ = noise_scan(wc.W, rho, rep.sigma, ps)
        noisy = (1 - ps)[:, None, None] * rho + (ps / 9)[:, None, None] * np.eye(9)
        noisy_pt = noisy.reshape(-1, 3, 3, 3, 3).transpose(0, 1, 4, 3, 2).reshape(-1, 9, 9)
        minima = np.linalg.eigvalsh(noisy_pt)[:, 0]
        for p, value, low in zip(ps.tolist(), values.tolist(), minima.tolist()):
            assert verdict(value) == verdict(low), (seed, p, value, low)
            assert (verdict(value) == BOUNDARY) == (p == rep.p_rho_max), (seed, p)
            boundary_points += p == rep.p_rho_max
    assert boundary_points == 200


@pytest.mark.parametrize(
    "name, fresh",
    [
        ("W10", lambda: weyl(3, 1, 0)),
        ("F3", lambda: fourier(3)),
        ("F3_DAG", lambda: dag(fourier(3))),
        ("SWAP3", lambda: swap_conjugation(3)),
    ],
)
def test_shared_unitaries_are_read_only(name, fresh):
    # built once at import and used by every trial, so no caller may write
    # them; each keeps the layout of a fresh build, so products keep their bits
    const = getattr(witness, name)
    assert np.array_equal(const, fresh()) and const.strides == fresh().strides
    with pytest.raises(ValueError):
        const[0, 0] = 0.0
    assert np.array_equal(const, fresh())


class _SerialPool:
    """Stand-in for ProcessPoolExecutor that records its size and starts no process."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("cpus, expected", [(64, [3]), (2, [2]), (None, [])])
def test_campaign_never_asks_for_more_workers_than_it_can_use(monkeypatch, cpus, expected):
    # the pool forks every worker at its first submit, so --jobs 10000 for
    # three trials must ask for at most three, and one worker runs serially
    import concurrent.futures

    _SerialPool.asked = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    campaign = verify.run_campaign(3, 0, jobs=10_000)
    assert _SerialPool.asked == expected
    serial = verify.run_campaign(3, 0, jobs=1)
    assert verify.summary_text(campaign) == verify.summary_text(serial)


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_keeps_no_passing_trial(monkeypatch, jobs):
    # trials are folded in as they arrive, so the memory held when the last
    # trial runs is that held at trial 100; a list of all results would add
    # about 800 bytes per trial
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    count, calls, held = 4000, [0], {}

    def stub(seed):
        calls[0] += 1
        if calls[0] in (100, count):
            held[calls[0]] = tracemalloc.get_traced_memory()[0]
        residuals = dict.fromkeys(verify.RESIDUAL_KEYS, 1e-16)
        return verify.TrialResult(seed, np.full((3, 3), 1 / 9), residuals=residuals)

    monkeypatch.setattr(verify, "run_trial", stub)
    tracemalloc.start()
    try:
        campaign = verify.run_campaign(count, 0, jobs=jobs)
    finally:
        tracemalloc.stop()
    assert campaign.ok
    assert campaign.residual_max == dict.fromkeys(verify.RESIDUAL_KEYS, 1e-16)
    assert held[count] - held[100] <= 4096


def test_campaign_holds_seeds_as_words(monkeypatch):
    # the seeds are trial_seeds', dispatched as ints, but held as one uint64
    # array: numpy's generate_state peaks at 24 B per word while it runs and
    # holds 8 B after, where a list of ints held about 50 B per trial
    seen, passed = [], verify.TrialResult(0, None)
    monkeypatch.setattr(verify, "run_trial", lambda seed: seen.append(seed) or passed)
    verify.run_campaign(1000, 7)
    assert seen == verify.trial_seeds(7, 1000)
    assert {type(seed) for seed in seen} == {int}

    count = 200_000
    monkeypatch.setattr(verify, "run_trial", lambda seed: passed)
    tracemalloc.start()
    try:
        campaign = verify.run_campaign(count, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert campaign.ok
    assert peak <= 26 * count, peak / count


@pytest.mark.parametrize("count, jobs, match", [
    (0, 1, "count must be >= 1, got 0"),
    (1, 0, "jobs must be >= 1, got 0"),
])
def test_campaign_refuses_empty_runs(count, jobs, match):
    with pytest.raises(ValueError, match=match):
        verify.run_campaign(count, 0, jobs=jobs)


def test_passing_trial_records_every_residual_key():
    # the summary prints a maximum for each RESIDUAL_KEYS entry, and a key
    # the battery never records would print 0 forever
    result = verify.run_trial(verify.trial_seeds(0, 1)[0])
    assert result.ok
    assert sorted(result.residuals) == sorted(verify.RESIDUAL_KEYS)


def test_battery_residuals_match_the_loop_forms(monkeypatch):
    # the stacked spectra, the stacked block product, the indexed alpha
    # shift and the indexed PSI mixing give every residual, alpha and
    # phi_tilde the bits of the loop forms, and each stacked spectrum the
    # bits of its own eigvalsh call
    stacks = []

    def eigvalsh(a, _solve=np.linalg.eigvalsh):
        values = _solve(a)
        if np.shape(a) == (3, 9, 9):
            stacks.append((np.array(a), values))
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for seed in verify.trial_seeds(0, 2000):
        del stacks[:]
        result = verify.run_trial(seed)
        assert result.ok, (seed, result.failures)
        coeffs, spectrum = sample_npt(seed)
        wc = construct_witness_vector(spectrum)
        expected = battery_residuals_loop(coeffs, wc)
        assert {k: float(v).hex() for k, v in result.residuals.items()} == {
            k: float(v).hex() for k, v in expected.items()
        }, seed
        alpha, phi_tilde = mix_loop(spectrum.u0)
        assert alpha.tobytes() == wc.alpha.tobytes(), seed
        assert phi_tilde.tobytes() == wc.phi_tilde.tobytes(), seed
        [(matrices, spectra)] = stacks
        assert np.array_equal(matrices[0], partial_transpose(build_state(coeffs), 3, 3))
        for matrix, values in zip(matrices, spectra):
            assert values.tobytes() == np.linalg.eigvalsh(matrix).tobytes(), seed


def test_verify_reuses_the_read_only_weyl_operator():
    assert verify.W10 is witness.W10
    with pytest.raises(ValueError):
        verify.W10[1, 1] = 1.0


def test_frame_and_closed_form_checks_fire_only_when_broken(monkeypatch):
    # P_A = 2 M M^dag and the frame rest on mu0 = mu1 = 1/sqrt 2 and on W's
    # spectrum {-1/2, 0 x5, 1/2 x3}; the battery names each broken fact and
    # stays silent while they hold
    seed = verify.trial_seeds(0, 1)[0]
    assert verify.run_trial(seed).ok
    construct = verify.construct_witness_vector

    def scaled_frame(spectrum):
        wc = construct(spectrum)
        return dataclasses.replace(
            wc,
            schmidt_coefficients=1.01 * wc.schmidt_coefficients,
            schmidt_left=1.01 * wc.schmidt_left,
            W=0.99 * wc.W,
        )

    monkeypatch.setattr(verify, "construct_witness_vector", scaled_frame)
    names = {line.split(":")[0] for line in verify.run_trial(seed).failures}
    assert {
        "schmidt_equal_coefficients",
        "frame_orthonormal",
        "frame_rebuilds_phi",
        "witness_spectrum_closed_form",
    } <= names


def test_rank_certificate_check_fires_only_when_broken(monkeypatch):
    # the battery re-reads C = phi_tilde through witness.certify_rank_2; a C
    # scaled by 1.01 keeps det C = 0 but has ||adj C||_F = 1.0201 / 2
    seed = verify.trial_seeds(0, 1)[0]
    assert verify.run_trial(seed).ok
    construct = verify.construct_witness_vector

    def scaled_c(spectrum):
        wc = construct(spectrum)
        return dataclasses.replace(wc, phi_tilde=1.01 * wc.phi_tilde)

    monkeypatch.setattr(verify, "construct_witness_vector", scaled_c)
    lines = [line for line in verify.run_trial(seed).failures if "rank_certificate" in line]
    assert len(lines) == 1
    assert lines[0].startswith("rank_certificate: |det C| = ")
    assert lines[0].endswith(", ||adj C||_F - 1/2 = 1.005e-02")
