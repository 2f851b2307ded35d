import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistill import filtering
from belldistill.filtering import (
    FilterAnnihilationError,
    add_white_noise,
    filter_report,
    noise_scan,
    p_rho_max,
    p_sigma_max,
)
from belldistill.linalg import kron, partial_transpose
from belldistill.simplex import BOUNDARY_TOL, build_state, classify, sample_npt
from belldistill.witness import construct_witness_vector, detect

from conftest import NPT_SEEDS, pure_bell_table, random_table
from reference import filter_state, filters_from_witness, schmidt_decompose


def npt_construction(seed):
    coeffs = random_table(seed)
    wc = construct_witness_vector(classify(coeffs))
    return coeffs, wc


# ----------------------------------------------------------- projectors

def test_filters_pure_bell_traces():
    wc = construct_witness_vector(classify(pure_bell_table()))
    p_a, p_b = wc.P_A, wc.P_B
    assert abs(np.trace(p_a).real - 2.0) <= 1e-11
    assert abs(np.trace(p_b).real - 2.0) <= 1e-11
    assert np.abs(p_a @ p_a - p_a).max() <= 1e-11
    assert np.abs(p_b @ p_b - p_b).max() <= 1e-11


def test_filter_projects_own_range():
    wc = construct_witness_vector(classify(pure_bell_table()))
    for a in wc.schmidt_left:
        assert np.abs(wc.P_A @ a - a).max() <= 1e-12
    for b in wc.schmidt_right:
        assert np.abs(wc.P_B @ b.conj() - b.conj()).max() <= 1e-12


@pytest.mark.parametrize("seed", NPT_SEEDS[:30])
def test_filters_fix_the_witness_vector(seed):
    _, wc = npt_construction(seed)
    fixed = kron(wc.P_A, wc.P_B.T) @ wc.phi
    assert np.abs(fixed - wc.phi).max() <= 1e-10


def test_pivot_frame_matches_svd_oracle():
    # P_A = 2 M M^dag, P_B = 2 M^dag M and the compression to the pivot frame
    # against the SVD frame and 9 x 9 products of tests/reference.py
    worst = dict.fromkeys(["P_A", "P_B", "q", "sigma_pt_spectrum", "mu", "frame"], 0.0)
    for seed in range(2000):
        coeffs, spectrum = sample_npt(seed)
        wc = construct_witness_vector(spectrum)
        rho = build_state(coeffs)
        rep = filter_report(rho, wc)
        # lambda / q = lambda_min(sigma^Gamma) >= -1/2 for a qubit pair, so
        # MIN_Q cannot fire on an NPT table; the smallest q / |lambda| is 2.72
        assert rep.q >= 2 * abs(wc.lambda_min), seed
        dec = schmidt_decompose(wc.phi, 3, 3)
        p_a, p_b = filters_from_witness(wc)
        sigma, q = filter_state(rho, p_a, p_b, dec)
        spectrum_svd = np.linalg.eigh(partial_transpose(sigma, 2, 2)).eigenvalues
        left, right = wc.schmidt_left, wc.schmidt_right
        rebuilt = (left.T @ right).ravel() / np.sqrt(2)
        for key, dev in [
            ("P_A", np.abs(wc.P_A - p_a).max()),
            ("P_B", np.abs(wc.P_B - p_b).max()),
            ("q", abs(rep.q - q)),
            ("sigma_pt_spectrum", np.abs(rep.sigma_pt_spectrum - spectrum_svd).max()),
            ("mu", np.abs(wc.schmidt_coefficients[:2] - dec.coefficients[:2]).max()),
            ("frame", max(np.abs(left.conj() @ left.T - np.eye(2)).max(),
                          np.abs(right.conj() @ right.T - np.eye(2)).max(),
                          np.abs(rebuilt - wc.phi).max())),
        ]:
            worst[key] = max(worst[key], float(dev))
    assert max(worst.values()) <= 1e-14, worst


# ----------------------------------------------------------- filtering

def test_filter_state_pure_bell():
    coeffs = pure_bell_table()
    wc = construct_witness_vector(classify(coeffs))
    rep = filter_report(build_state(coeffs), wc)
    p_a, p_b = filters_from_witness(wc)
    svd_route = filter_state(build_state(coeffs), p_a, p_b, schmidt_decompose(wc.phi, 3, 3))
    for sigma, q in [(rep.sigma, rep.q), svd_route]:
        assert abs(q - 2 / 3) <= 1e-10
        assert abs(np.trace(sigma).real - 1.0) <= 1e-12
        # the filtered pair is pure and maximally entangled
        spectrum = np.linalg.eigvalsh(partial_transpose(sigma, 2, 2))
        assert np.abs(spectrum - np.array([-0.5, 0.5, 0.5, 0.5])).max() <= 1e-10


@pytest.mark.parametrize("seed", NPT_SEEDS[:30])
def test_filtered_pt_minimum_is_lambda_over_q(seed):
    coeffs, wc = npt_construction(seed)
    rep = filter_report(build_state(coeffs), wc)
    assert abs(rep.sigma_pt_spectrum[0] - wc.lambda_min / rep.q) <= 1e-9
    # exactly one negative eigenvalue: the filtered pair is entangled NPT
    assert int(np.sum(rep.sigma_pt_spectrum < -BOUNDARY_TOL)) == 1
    sigma_eigs = np.linalg.eigvalsh(rep.sigma)
    assert sigma_eigs[0] >= -1e-10
    assert abs(np.trace(rep.sigma).real - 1.0) <= 1e-12


def test_filter_annihilation():
    coeffs = pure_bell_table()
    wc = construct_witness_vector(classify(coeffs))
    p_a, p_b = filters_from_witness(wc)
    # a product state built entirely outside the projector ranges
    n_a = np.linalg.eigh(wc.P_A)[1][:, 0]
    n_b = np.linalg.eigh(wc.P_B)[1][:, 0]
    rho_perp = np.outer(np.kron(n_a, n_b), np.kron(n_a, n_b).conj())
    with pytest.raises(FilterAnnihilationError):
        filter_report(rho_perp, wc)
    with pytest.raises(FilterAnnihilationError):
        filter_state(rho_perp, p_a, p_b, schmidt_decompose(wc.phi, 3, 3))


# ----------------------------------------------------------- thresholds

def test_p_rho_max_values():
    assert abs(p_rho_max(-1 / 3) - 3 / 4) < 1e-14
    assert abs(p_rho_max(-1 / 9) - 1 / 2) < 1e-14
    assert p_rho_max(-1e-9) < 1e-7


def test_p_rho_max_domain():
    with pytest.raises(ValueError):
        p_rho_max(0.0)
    with pytest.raises(ValueError):
        p_rho_max(0.2)
    with pytest.raises(ValueError):
        p_rho_max(-0.6)


def test_p_rho_max_monotone():
    grid = np.linspace(-0.5, -1e-6, 200)
    values = [p_rho_max(e) for e in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_p_sigma_max_values():
    assert abs(p_sigma_max(-1 / 3, 2 / 3) - 2 / 3) < 1e-14
    # at q = 4/9 the two thresholds coincide
    assert abs(p_sigma_max(-1 / 3, 4 / 9) - p_rho_max(-1 / 3)) < 1e-14
    assert p_sigma_max(-1 / 3, 1e-9) > 1 - 1e-8


def test_p_sigma_max_domain():
    with pytest.raises(ValueError):
        p_sigma_max(0.1, 0.5)
    with pytest.raises(ValueError):
        p_sigma_max(-0.1, 0.0)
    with pytest.raises(ValueError):
        p_sigma_max(-0.1, 1.5)


# ---------------------------------------------------------- white noise

def test_white_noise_endpoints():
    rho = build_state(pure_bell_table())
    assert np.array_equal(add_white_noise(rho, 0.0), rho)
    assert np.abs(add_white_noise(rho, 1.0) - np.eye(9) / 9).max() < 1e-15


def test_white_noise_domain():
    with pytest.raises(ValueError):
        add_white_noise(np.eye(9) / 9, -0.01)
    with pytest.raises(ValueError):
        add_white_noise(np.eye(9) / 9, 1.01)


@pytest.mark.parametrize(
    "ps", [[0.0, 0.5, 1.01], [-0.01, 0.5], [0.2, np.nan], [[0.1, 0.2], [0.3, 2.0]]]
)
def test_white_noise_domain_of_weight_arrays(ps):
    with pytest.raises(ValueError, match="outside"):
        add_white_noise(np.eye(9) / 9, np.array(ps))


@pytest.mark.parametrize("form", [float, np.float64, np.array, lambda p: np.array([p, 0.5, p])])
def test_white_noise_has_the_bits_of_its_formula(form):
    # a scalar, a 0-d array and each entry of an (n,) weight array give the
    # bits of (1 - p) state + (p / n) 1 with p a plain float
    coeffs, wc = npt_construction(NPT_SEEDS[0])
    rho = build_state(coeffs)
    for state in (rho, filter_report(rho, wc).sigma):
        n = state.shape[0]
        for p in (0.0, 0.3, 0.7, 1.0, 1 / 3):
            weights = form(p)
            got = add_white_noise(state, weights)
            assert got.shape == np.shape(weights) + (n, n)
            for w, mixed in zip(np.ravel(weights).tolist(), got.reshape(-1, n, n)):
                want = (1 - w) * state + (w / n) * np.eye(n)
                assert mixed.tobytes() == want.tobytes(), (n, w)


def test_white_noise_shifts_the_diagonal_of_any_layout():
    # the diagonal is shifted through a flat view of the mixture: a
    # transposed or reversed state, or weights that are not C-contiguous,
    # signed zeros included, still get the bits of the formula
    coeffs, _ = npt_construction(NPT_SEEDS[0])
    rho = build_state(coeffs)
    rho[0, 1] = rho[1, 0] = complex(-0.0, -0.0)
    grid = np.array([[0.0, 0.3, 1.0], [0.5, 0.25, 0.125]])
    for state in (rho, rho.T, np.asfortranarray(rho), rho[:, ::-1], rho.real.T):
        for weights in (grid[0], grid.T, grid[:, ::2], np.asfortranarray(grid)):
            got = add_white_noise(state, weights)
            assert got.shape == weights.shape + (9, 9) and got.flags.c_contiguous
            for w, mixed in zip(weights.ravel().tolist(), got.reshape(-1, 9, 9)):
                want = (1 - w) * np.asarray(state, dtype=complex) + (w / 9) * np.eye(9)
                assert mixed.tobytes() == want.tobytes(), w


@pytest.mark.parametrize(
    "ps, first",
    [([0.2, -0.1, 1.5], -0.1), ([0.2, 1.5, np.nan], 1.5), ([0.2, np.nan, -0.1], np.nan)],
)
def test_white_noise_names_the_first_weight_outside(ps, first):
    with pytest.raises(ValueError, match=rf"^noise weight {first!r} outside \[0, 1\]$"):
        add_white_noise(np.eye(9) / 9, np.array(ps))


def test_white_noise_of_no_weights_is_an_empty_stack():
    for n in (4, 9):
        out = add_white_noise(np.eye(n) / n, np.array([]))
        assert out.shape == (0, n, n) and out.dtype == complex


def test_identity_cache_is_bounded():
    # the battery reads identities of n = 9 and 2 only, so the cache keeps
    # two: after n = 128, 256 and 512 and then those two, none of the large
    # ones is held
    tracemalloc.start()
    try:
        for n in (128, 256, 512, 9, 2):
            filtering._identity(n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert filtering._identity.cache_info().currsize == 2


def test_stacked_noise_grid_equals_single_points():
    # one call over a weight array gives, bit for bit, the values of one call
    # per weight: the mixtures, the witness values, sigma's partial transpose
    # and noise_scan's two arrays
    grid = np.linspace(0.0, 1.0, 101)
    assert len(NPT_SEEDS) >= 50
    for seed in NPT_SEEDS[:50]:
        coeffs, wc = npt_construction(seed)
        rho = build_state(coeffs)
        w = wc.W
        sigma = filter_report(rho, wc).sigma
        rho_stack = add_white_noise(rho, grid)
        sigma_stack = add_white_noise(sigma, grid)
        rho_single = [add_white_noise(rho, float(p)) for p in grid]
        sigma_single = [add_white_noise(sigma, float(p)) for p in grid]
        assert np.array_equal(rho_stack, rho_single)
        assert np.array_equal(sigma_stack, sigma_single)
        assert np.array_equal(detect(w, rho_stack), [detect(w, m) for m in rho_single])
        assert np.array_equal(
            partial_transpose(rho_stack, 3, 3), [partial_transpose(m, 3, 3) for m in rho_single]
        )
        pt_stack = partial_transpose(sigma_stack, 2, 2)
        pt_single = [partial_transpose(m, 2, 2) for m in sigma_single]
        assert np.array_equal(pt_stack, pt_single)
        sigma_minima = [np.linalg.eigvalsh(m)[0] for m in pt_single]
        assert np.array_equal(np.linalg.eigvalsh(pt_stack)[:, 0], sigma_minima)
        values, scan_minima = noise_scan(w, rho, sigma, grid)
        assert np.array_equal(values, [detect(w, m) for m in rho_single])
        assert np.array_equal(scan_minima, sigma_minima)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 1.0))
def test_white_noise_pt_minimum_affine(p):
    # lambda_min of the noisy Bell projector's partial transpose is
    # -(1-p)/3 + p/9 by linearity of both operations
    rho = build_state(pure_bell_table())
    noisy = add_white_noise(rho, p)
    lam = np.linalg.eigvalsh(partial_transpose(noisy, 3, 3))[0]
    assert abs(lam - (-(1 - p) / 3 + p / 9)) < 1e-12


# ------------------------------------------------- robustness comparison

def test_robustness_pure_bell():
    coeffs = pure_bell_table()
    wc = construct_witness_vector(classify(coeffs))
    rep = filter_report(build_state(coeffs), wc)
    assert abs(rep.p_rho_max - 3 / 4) <= 1e-10
    assert abs(rep.p_sigma_max - 2 / 3) <= 1e-10
    # q = 2/3 > 4/9: the filtered pair is less noise-tolerant here
    assert rep.qubit_more_robust is False
    assert rep.robustness_tie is False


def test_robustness_tie(monkeypatch):
    # thresholds 5e-11 apart lie within TIE_TOL and count as a tie
    coeffs = pure_bell_table()
    wc = construct_witness_vector(classify(coeffs))
    monkeypatch.setattr(filtering, "p_sigma_max", lambda lam, q: p_rho_max(lam) + 5e-11)
    rep = filter_report(build_state(coeffs), wc)
    assert rep.p_sigma_max - rep.p_rho_max == pytest.approx(5e-11, abs=1e-15)
    assert rep.robustness_tie is True


@pytest.mark.parametrize("seed", NPT_SEEDS[:40])
def test_robustness_matches_q_criterion(seed):
    coeffs, wc = npt_construction(seed)
    rep = filter_report(build_state(coeffs), wc)
    if rep.robustness_tie:
        assert abs(rep.q - 4 / 9) < 1e-6
    else:
        assert rep.qubit_more_robust == (rep.q < 4 / 9)


# ----------------------------------------------- threshold semantics

@pytest.mark.parametrize("seed", NPT_SEEDS[:15])
def test_threshold_semantics_on_grid(seed):
    coeffs, wc = npt_construction(seed)
    rho = build_state(coeffs)
    w = wc.W
    rep = filter_report(rho, wc)
    grid = list(np.linspace(0.0, 1.0, 21))
    grid += [rep.p_rho_max - 1e-6, rep.p_rho_max + 1e-6,
             rep.p_sigma_max - 1e-6, rep.p_sigma_max + 1e-6]
    for p in grid:
        if not 0.0 <= p <= 1.0:
            continue
        if abs(p - rep.p_rho_max) >= 1e-6 - 1e-15:
            detected = detect(w, add_white_noise(rho, p)) < 0.0
            assert detected == (p < rep.p_rho_max), f"p={p}"
        if abs(p - rep.p_sigma_max) >= 1e-6 - 1e-15:
            noisy = add_white_noise(rep.sigma, p)
            npt = np.linalg.eigvalsh(partial_transpose(noisy, 2, 2))[0] < 0.0
            assert npt == (p < rep.p_sigma_max), f"p={p}"
