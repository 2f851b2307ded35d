import ast
import dataclasses
import functools
import inspect
import tracemalloc

import numpy as np
import pytest

from belldistill import filtering, simplex, verify, witness
from belldistill.filtering import add_white_noise, filter_report, noise_scan
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
        ("verify.W_SPECTRUM", lambda: np.array([-0.5] + [0.0] * 5 + [0.5] * 3)),
        (
            "simplex._block_maps(3, (0, 1, 2))",
            lambda: simplex._block_maps.__wrapped__(3, (0, 1, 2)),
        ),
        ("filtering._identity(2)", lambda: np.eye(2)),
        ("filtering._identity(4)", lambda: np.eye(4)),
        ("filtering._identity(9)", lambda: np.eye(9)),
    ],
)
def test_shared_unitaries_are_read_only(name, fresh):
    # built once and used by every trial, so no caller may write them; each
    # keeps the bytes and layout of a fresh build, so products keep their
    # bits. A bare name is witness's; a call is a cached builder, which
    # returns the same array every time
    module, _, attr = name.rpartition(".")
    owner = {"": witness, "verify": verify, "filtering": filtering, "simplex": simplex}[module]
    if attr.endswith(")"):
        builder, _, arg = attr[:-1].partition("(")
        args = ast.literal_eval(f"({arg},)") if arg else ()
        const = getattr(owner, builder)(*args)
        assert const is getattr(owner, builder)(*args)
    else:
        const = getattr(owner, attr)
    assert const.tobytes() == fresh().tobytes() and const.strides == fresh().strides
    assert const.dtype == fresh().dtype and const.shape == fresh().shape
    with pytest.raises(ValueError):
        const[(0,) * const.ndim] = 0.0
    assert const.tobytes() == fresh().tobytes()


def test_noise_grid_starts_at_zero():
    # the battery reads trace(W rho) off the grid's first value
    assert verify.NOISE_GRID[0] == 0.0 and type(verify.NOISE_GRID[0]) is float


def test_grid_zero_value_is_the_witness_value():
    # at p = 0 the noisy state is rho itself, so the grid's first value is,
    # bit for bit, the single detect call it replaces
    for seed in verify.trial_seeds(0, 2000):
        coeffs, spectrum = sample_npt(seed)
        wc = construct_witness_vector(spectrum)
        rho = build_state(coeffs)
        rep = filter_report(rho, wc)
        points = np.array(verify.NOISE_GRID + (rep.p_rho_max, rep.p_sigma_max))
        values, _ = noise_scan(wc.W, rho, rep.sigma, points)
        assert values.tolist()[0].hex() == detect(wc.W, rho).hex(), seed


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


def with_fields(call, **maps):
    """verify's attribute ``call`` and a stand-in that maps the named fields of its result."""

    def patched(*args):
        out = call(*args)
        return dataclasses.replace(out, **{k: f(getattr(out, k)) for k, f in maps.items()})

    return call.__name__, patched


construction_with = functools.partial(with_fields, construct_witness_vector)
report_with = functools.partial(with_fields, filter_report)


def noise_scan_with_shifted_values(w, rho, sigma, ps):
    values, sigma_minima = noise_scan(w, rho, sigma, ps)
    return values + 1e-6, sigma_minima


def noise_scan_with_shifted_minima(w, rho, sigma, ps):
    values, sigma_minima = noise_scan(w, rho, sigma, ps)
    return values, sigma_minima + 1e-9


#: each battery check, and the package call whose output breaks it: verify's
#: attribute and its replacement
MUTATIONS = {
    # rho^Gamma + 1 has no negative eigenvalue
    "negative_count": ("partial_transpose", lambda m, a, b: partial_transpose(m, a, b) + np.eye(9)),
    # a diagonal tilt of 1e-3 splits the three-fold minimum and keeps it negative
    "lambda_min_multiplicity": (
        "partial_transpose",
        lambda m, a, b: partial_transpose(m, a, b) - 1e-3 * np.diag(np.arange(9.0)) / 8,
    ),
    # 1.001 B_m keeps B_m's eigenvectors, at 1.001 times their eigenvalues
    "block_eigenvectors": (
        "_blocks", lambda flat, d, ms, blocks=verify._blocks: 1.001 * blocks(flat, d, ms)
    ),
    "alpha_shift_relation": construction_with(alpha=lambda a: a * [[1.0], [1.0], [1.001]]),
    "eigenvector_property": (
        "build_state", lambda c: build_state(c) + 1e-6 * np.diag(np.arange(9.0))
    ),
    # 1.01 phi is still an eigenvector, of norm 1.01
    "expectation_equals_lambda": construction_with(phi=lambda v: 1.01 * v),
    "schmidt_equal_coefficients": construction_with(schmidt_coefficients=lambda mu: 1.01 * mu),
    # phi with weight 1e-9 on the kernel vector a_2, outside its frame
    "schmidt_rank_2": construction_with(schmidt_coefficients=lambda mu: mu + [0.0, 0.0, 1e-9]),
    "frame_orthonormal": construction_with(schmidt_left=lambda a: 1.01 * a),
    # b_0 and b_1 swapped stay orthonormal but rebuild another vector
    "frame_rebuilds_phi": construction_with(schmidt_right=lambda b: b[::-1]),
    "witness_spectrum": construction_with(schmidt_coefficients=lambda mu: mu * [1.0, 0.99, 1.0]),
    "witness_spectrum_closed_form": construction_with(W=lambda w: 0.99 * w),
    # trace(W rho) is read from the grid's p = 0 value
    "witness_detects": ("noise_scan", noise_scan_with_shifted_values),
    "mirror_psd": construction_with(W=lambda w: 1.01 * w),
    "filter_fixpoint": construction_with(P_A=lambda p: 0.99 * p),
    # sigma's smallest eigenvalue is at most 1/4
    "sigma_psd": report_with(sigma=lambda s: s - 0.3 * np.eye(4)),
    "sigma_pt_minimum": report_with(q=lambda q: 1.01 * q),
    "sigma_single_negative": report_with(
        sigma_pt_spectrum=lambda s: np.array([s[0], s[0] / 2, s[2], s[3]])
    ),
    "robustness_equivalence": report_with(qubit_more_robust=lambda more: not more),
    # W + eps 1 still detects the same states away from the threshold, but
    # reads PPT where rho_p turns PPT
    "rho_threshold_semantics": construction_with(W=lambda w: w + 1e-9 * np.eye(9)),
    "sigma_threshold_semantics": ("noise_scan", noise_scan_with_shifted_minima),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_check_fires_under_its_mutation(monkeypatch, name):
    # a check that no broken input can fail checks nothing: each one names
    # itself once the package call it reads is broken, and is silent before
    seed = verify.trial_seeds(0, 1)[0]
    assert verify.run_trial(seed).ok
    attribute, replacement = MUTATIONS[name]
    monkeypatch.setattr(verify, attribute, replacement)
    names = {line.split(":")[0] for line in verify.run_trial(seed).failures}
    assert name in names, names


def test_mutation_table_names_every_check():
    # the checks are the names passed to check and bounded, plus the two
    # noise families, whose lines are the battery's only other failure; a
    # check added without a mutation fails here
    tree = ast.parse(inspect.getsource(verify._check_invariants))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = {
        call.args[0].value
        for call in calls
        if isinstance(call.func, ast.Name)
        and call.func.id in ("check", "bounded")
        and isinstance(call.args[0], ast.Constant)
    }
    appends = [ast.unparse(c.func) for c in calls if isinstance(c.func, ast.Attribute)]
    assert appends.count("result.failures.append") == 2  # check's line and the noise grid's
    assert names | {"rho_threshold_semantics", "sigma_threshold_semantics"} == set(MUTATIONS)
    assert len(MUTATIONS) == 21


def sample_npt_with_doubled_u0(seed):
    coeffs, spectrum = sample_npt(seed)
    return coeffs, dataclasses.replace(spectrum, u0=2.0 * spectrum.u0)


#: breakages of the construction itself, each a module attribute and its
#: replacement: the mixing amplitudes with a sign flipped, the i = 2 term of
#: phi_tilde mixed into the entries of i = 1, the Weyl operator that derives
#: u_1 and u_2 replaced by its adjoint, and a u0 that is not a unit vector
CONSTRUCTION_MUTATIONS = {
    "psi_sign": (witness, "PSI", np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)),
    "mix_index": (witness, "_MIX", (witness._MIX[0], (2, np.array([1, 5, 6])))),
    "w10_adjoint": (witness, "W10", dag(witness.W10)),
    "non_unit_u0": (verify, "sample_npt", sample_npt_with_doubled_u0),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_MUTATIONS))
def test_every_construction_breakage_fails(monkeypatch, name):
    # rank 2 is an identity of the construction and nothing guards it at run
    # time, so a construction written wrongly must fail the battery: on each
    # of 20 trials, by named checks only, schmidt_rank_2 among them. A u0 that
    # is not a unit vector is refused instead by the construction's one guard
    assert [i for i, _ in witness._MIX] == [0, 2]  # the terms the mix_index row rewrites
    monkeypatch.setattr(*CONSTRUCTION_MUTATIONS[name])
    for seed in verify.trial_seeds(0, 20):
        if name == "non_unit_u0":
            with pytest.raises(ValueError, match="not a unit vector"):
                verify.run_trial(seed)
            continue
        names = {line.split(":")[0] for line in verify.run_trial(seed).failures}
        assert "schmidt_rank_2" in names and names <= set(MUTATIONS), (seed, names)
