import dataclasses
import tracemalloc

import numpy as np
import pytest

from belldistill import verify, witness
from belldistill.filtering import add_white_noise
from belldistill.linalg import partial_transpose
from belldistill.simplex import SimplexCoefficients, build_state, classify
from belldistill.weyl import fourier, swap_conjugation, weyl
from belldistill.witness import construct_witness_vector, detect


def halved_thresholds(filter_report):
    def report(rho, wc):
        rep = filter_report(rho, wc)
        return dataclasses.replace(
            rep, p_rho_max=rep.p_rho_max / 2, p_sigma_max=rep.p_sigma_max / 2
        )

    return report


def test_threshold_failures_are_reported_point_by_point(monkeypatch):
    # with halved thresholds the grid points between half and the true
    # threshold fail; the expected lines come from one scalar evaluation per
    # point, the rho line before the sigma line at each point, and every
    # point prints as a plain float
    halved = halved_thresholds(verify.filter_report)
    monkeypatch.setattr(verify, "filter_report", halved)
    seed = verify.trial_seeds(0, 1)[0]
    result = verify.run_trial(seed)

    coeffs = SimplexCoefficients(d=3, c=result.coefficients)
    wc = construct_witness_vector(classify(coeffs))
    w = wc.W
    rho = build_state(coeffs)
    rep = halved(rho, wc)
    points = np.linspace(0.0, 1.0, 21).tolist()
    points += [rep.p_rho_max - 1e-6, rep.p_rho_max + 1e-6]
    points += [rep.p_sigma_max - 1e-6, rep.p_sigma_max + 1e-6]
    band = verify.THRESHOLD_BAND - 1e-15
    expected = []
    for p in points:
        if not 0.0 <= p <= 1.0:
            continue
        if abs(p - rep.p_rho_max) >= band:
            detected = detect(w, add_white_noise(rho, p)) < 0.0
            if detected != (p < rep.p_rho_max):
                expected.append(
                    f"rho_threshold_semantics: p={p!r} detected={detected} "
                    f"threshold={rep.p_rho_max!r}"
                )
        if abs(p - rep.p_sigma_max) >= band:
            noisy_pt = partial_transpose(add_white_noise(rep.sigma, p), 2, 2)
            npt = float(np.linalg.eigvalsh(noisy_pt)[0]) < 0.0
            if npt != (p < rep.p_sigma_max):
                expected.append(
                    f"sigma_threshold_semantics: p={p!r} npt={npt} "
                    f"threshold={rep.p_sigma_max!r}"
                )
    assert any(line.startswith("rho_") for line in expected)
    assert any(line.startswith("sigma_") for line in expected)
    assert result.failures == expected


@pytest.mark.parametrize(
    "name, fresh",
    [
        ("W10", lambda: weyl(3, 1, 0)),
        ("F3", lambda: fourier(3)),
        ("SWAP3", lambda: swap_conjugation(3)),
    ],
)
def test_shared_unitaries_are_read_only(name, fresh):
    # built once at import and used by every trial, so no caller may write them
    const = getattr(witness, name)
    assert np.array_equal(const, fresh())
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
