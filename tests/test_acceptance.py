"""Acceptance suite: one test per release criterion, with a PASS line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and their timings. The criteria exercise the library end to end at desk
scale: exact operator algebra, a thousand-state Monte-Carlo campaign over
the construction, the filtering stage, closed-form spot checks and the
determinism of the command-line verifier.
"""

import time

import numpy as np
import pytest

from belldistill.cli import main
from belldistill.filtering import add_white_noise, filter_report
from belldistill.linalg import dag, partial_transpose
from belldistill.simplex import (
    BOUNDARY_TOL,
    NPT,
    build_state,
    classify,
    lambda_min_multiplicity,
    pt_block,
    sample_npt,
    sample_simplex,
)
from belldistill.verify import trial_seeds
from belldistill.weyl import phase_table, weyl
from belldistill.witness import construct_witness_vector, detect

from conftest import isotropic_table, pure_bell_table
from reference import (
    assemble_pt_from_blocks,
    expectation,
    product_vector_positivity_check,
)

CAMPAIGN_SEED = 20240901
CAMPAIGN_SIZE = 1000

_SUITE_START = time.perf_counter()
_CACHE = {}


def _stamp(name, ok, detail, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {name}: {detail} ({elapsed:.2f} s)")
    assert ok, f"{name}: {detail}"


def campaign_states():
    """The 1000 seeded NPT states with their constructions, built once."""
    if "states" not in _CACHE:
        states = []
        for seed in trial_seeds(CAMPAIGN_SEED, CAMPAIGN_SIZE):
            coeffs, spectrum = sample_npt(seed)
            wc = construct_witness_vector(spectrum)
            rho = build_state(coeffs)
            states.append({
                "seed": seed,
                "coeffs": coeffs,
                "wc": wc,
                "rho": rho,
                "rho_pt": partial_transpose(rho, 3, 3),
            })
        _CACHE["states"] = states
    return _CACHE["states"]


def test_criterion_1_weyl_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5):
        tab = phase_table(d)
        ws = {(k, l): weyl(d, k, l) for k in range(d) for l in range(d)}
        for (i, j), wij in ws.items():
            for (k, l), wkl in ws.items():
                dev = np.abs(wij @ wkl - tab[(j * k) % d] * ws[(i + k) % d, (j + l) % d]).max()
                worst = max(worst, dev)
        for (k, l), w in ws.items():
            worst = max(worst, np.abs(w.conj() - ws[(-k) % d, l]).max())
            worst = max(worst, np.abs(w.T - tab[(-k * l) % d] * ws[k, (-l) % d]).max())
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 1 (Weyl relations, d=2..5)",
        worst <= 1e-13 and elapsed < 1.0,
        f"max deviation {worst:.3e}",
        elapsed,
    )


def test_criterion_2_block_structure():
    t0 = time.perf_counter()
    w10 = weyl(3, 1, 0)
    worst_assembly = 0.0
    worst_shift = 0.0
    for seed in range(1000):
        coeffs = sample_simplex(seed)
        direct = partial_transpose(build_state(coeffs), 3, 3)
        worst_assembly = max(
            worst_assembly, np.abs(assemble_pt_from_blocks(coeffs) - direct).max()
        )
        blocks = [pt_block(coeffs, m) for m in range(3)]
        for m in range(3):
            dev = np.abs(blocks[(m + 2) % 3] - w10 @ blocks[m] @ dag(w10)).max()
            worst_shift = max(worst_shift, dev)
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 2 (block structure, 1000 tables)",
        worst_assembly <= 1e-12 and worst_shift <= 1e-13 and elapsed < 5.0,
        f"assembly {worst_assembly:.3e}, shift {worst_shift:.3e}",
        elapsed,
    )


def test_criterion_3_rank2_eigenvector_campaign():
    t0 = time.perf_counter()
    states = campaign_states()
    failures = 0
    worst = {"resid": 0.0, "expect": 0.0, "mu2": 0.0, "sv": 0.0}
    for s in states:
        wc, rho_pt = s["wc"], s["rho_pt"]
        lam = wc.lambda_min
        resid = np.abs(rho_pt @ wc.phi - lam * wc.phi).max()
        expect_dev = abs(expectation(rho_pt, wc.phi).real - lam)
        mu = wc.schmidt_coefficients
        # C's singular values are (1/sqrt 2, 1/sqrt 2, 0) by the rank-2 identity
        singular = np.linalg.svd(wc.phi_tilde.reshape(3, 3), compute_uv=False)
        sv_dev = np.abs(singular - [np.sqrt(0.5), np.sqrt(0.5), 0.0]).max()
        rank_ok = np.abs(mu[:2] - np.sqrt(0.5)).max() <= 1e-14 and mu[2] <= 1e-14
        mult = lambda_min_multiplicity(np.linalg.eigvalsh(rho_pt))
        ok = resid <= 1e-10 and rank_ok and expect_dev <= 1e-10 and sv_dev <= 1e-14 and mult == 3
        failures += 0 if ok else 1
        worst["resid"] = max(worst["resid"], resid)
        worst["expect"] = max(worst["expect"], expect_dev)
        worst["mu2"] = max(worst["mu2"], mu[2])
        worst["sv"] = max(worst["sv"], sv_dev)
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 3 (rank-2 eigenvector, 1000 NPT states)",
        failures == 0 and elapsed < 30.0,
        f"failures {failures}, max residual {worst['resid']:.3e}, "
        f"max expectation dev {worst['expect']:.3e}, max mu2 {worst['mu2']:.3e}, "
        f"max singular value dev of C {worst['sv']:.3e}",
        elapsed,
    )


def test_criterion_4_witness_operator_suite():
    t0 = time.perf_counter()
    failures = 0
    worst_spec = 0.0
    worst_product = 0.0
    for s in campaign_states():
        wc, rho = s["wc"], s["rho"]
        w = wc.W
        eigs = np.linalg.eigvalsh(w)
        mu0, mu1 = wc.schmidt_coefficients[:2]
        expected = np.sort([mu0**2, mu1**2, mu0 * mu1, -mu0 * mu1, 0, 0, 0, 0, 0])
        spec_dev = np.abs(eigs - expected).max()
        worst_spec = max(worst_spec, spec_dev)
        value = detect(w, rho)
        minimum = product_vector_positivity_check(w, 10_000, seed=s["seed"])
        worst_product = min(worst_product, minimum)
        a0 = wc.schmidt_left[0]
        b1_star = wc.schmidt_right[1].conj()
        zero_val = abs(expectation(w, np.kron(a0, b1_star)))
        mirror_floor = np.linalg.eigvalsh(mu0**2 * np.eye(9) - w)[0]
        ok = (
            spec_dev <= 1e-9
            and value < 0
            and minimum >= -1e-10
            and zero_val <= 1e-10
            and mirror_floor >= -1e-10
        )
        failures += 0 if ok else 1
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 4 (witness operators, 1000 states x 10^4 product vectors)",
        failures == 0,
        f"failures {failures}, max spectrum dev {worst_spec:.3e}, "
        f"product minimum {worst_product:.3e}",
        elapsed,
    )


def test_criterion_5_filter_suite():
    t0 = time.perf_counter()
    failures = 0
    worst_ratio = 0.0
    for s in campaign_states():
        wc, rho = s["wc"], s["rho"]
        rep = filter_report(rho, wc)
        ratio_dev = abs(rep.sigma_pt_spectrum[0] - wc.lambda_min / rep.q)
        worst_ratio = max(worst_ratio, ratio_dev)
        single_negative = int(np.sum(rep.sigma_pt_spectrum < -BOUNDARY_TOL)) == 1
        compare_ok = rep.robustness_tie or rep.qubit_more_robust == (rep.q < 4 / 9)
        ok = ratio_dev <= 1e-9 and single_negative and compare_ok
        failures += 0 if ok else 1
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 5 (local filtering, 1000 states)",
        failures == 0,
        f"failures {failures}, max |lambda_min(sigma^G) - lambda/q| {worst_ratio:.3e}",
        elapsed,
    )


def test_criterion_6_closed_form_spot_checks():
    t0 = time.perf_counter()
    coeffs = pure_bell_table()
    wc = construct_witness_vector(classify(coeffs))
    rep = filter_report(build_state(coeffs), wc)
    checks = {
        "lambda_min": (wc.lambda_min, -1 / 3),
        "mu0": (wc.schmidt_coefficients[0], 1 / np.sqrt(2)),
        "mu1": (wc.schmidt_coefficients[1], 1 / np.sqrt(2)),
        "q": (rep.q, 2 / 3),
        "lambda_min_sigma": (rep.sigma_pt_spectrum[0], -1 / 2),
        "p_rho_max": (rep.p_rho_max, 3 / 4),
        "p_sigma_max": (rep.p_sigma_max, 2 / 3),
    }
    bad = {k: (got, want) for k, (got, want) in checks.items() if abs(got - want) > 1e-10}

    # NPT -> PPT flip of the isotropic family, located by bisection
    lo, hi = 0.5, 0.9
    assert classify(isotropic_table(lo)).classification == NPT
    assert classify(isotropic_table(hi)).classification != NPT
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if classify(isotropic_table(mid)).classification == NPT:
            lo = mid
        else:
            hi = mid
    flip_at = 0.5 * (lo + hi)
    flip_ok = abs(flip_at - 0.75) <= 1e-6
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 6 (closed-form spot checks)",
        not bad and flip_ok,
        f"mismatches {bad or 'none'}, isotropic flip at {flip_at:.8f}",
        elapsed,
    )


def test_criterion_7_noise_threshold_semantics():
    t0 = time.perf_counter()
    contradictions = 0
    grid = np.linspace(0.0, 1.0, 21)
    for s in campaign_states()[:100]:
        wc, rho = s["wc"], s["rho"]
        w = wc.W
        rep = filter_report(rho, wc)
        for p in grid:
            p = float(p)
            if abs(p - rep.p_rho_max) > 1e-6:
                detected = detect(w, add_white_noise(rho, p)) < 0.0
                if detected != (p < rep.p_rho_max):
                    contradictions += 1
            if abs(p - rep.p_sigma_max) > 1e-6:
                noisy = add_white_noise(rep.sigma, p)
                npt = np.linalg.eigvalsh(partial_transpose(noisy, 2, 2))[0] < 0.0
                if npt != (p < rep.p_sigma_max):
                    contradictions += 1
    elapsed = time.perf_counter() - t0
    _stamp(
        "criterion 7 (noise thresholds, 100 states x 21-point grid)",
        contradictions == 0,
        f"contradictions {contradictions}",
        elapsed,
    )


def test_criterion_8_determinism_and_runtime(capsys):
    t0 = time.perf_counter()
    main(["verify", "--count", "150", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", "--count", "150", "--seed", "7"])
    second = capsys.readouterr().out
    identical = first.encode() == second.encode()
    elapsed = time.perf_counter() - t0
    total = time.perf_counter() - _SUITE_START
    _stamp(
        "criterion 8 (determinism and runtime)",
        identical and "failures      : 0" in first and total < 120.0,
        f"byte-identical {identical}, total suite {total:.1f} s",
        elapsed,
    )
