"""White-noise thresholds: how much noise the certification and filtering survive.

Run:  python demos/05_noise_robustness.py
"""
import numpy as np

from belldistill import (
    BOUNDARY,
    NPT,
    PPT,
    build_state,
    construct_witness_vector,
    filter_report,
    sample_npt,
)
from belldistill.filtering import noise_scan
from belldistill.simplex import verdict

coeffs, spectrum = sample_npt(seed=2718)
wc = construct_witness_vector(spectrum)
rho = build_state(coeffs)
rep = filter_report(rho, wc)

print(f"lambda_min = {wc.lambda_min:.6f},  q = {rep.q:.6f}")
print(f"p_rho_max   = {rep.p_rho_max:.6f}   (witness stops firing on the qutrit pair)")
print(f"p_sigma_max = {rep.p_sigma_max:.6f}   (filtered qubit pair turns PPT)")
more_robust = None if rep.robustness_tie else rep.qubit_more_robust
print(f"filtered pair more robust: {more_robust}  (q < 4/9 is {rep.q < 4/9})\n")

print("  p     trace(W rho_noisy)   detected   sigma_noisy NPT")
ps = np.linspace(0, 1, 11)
values, sigma_minima = noise_scan(wc.W, rho, rep.sigma, ps)  # one stacked call per state
# each flag is the verdict of its value; a value within BOUNDARY_TOL of zero reads boundary
flag = {NPT: "True", PPT: "False", BOUNDARY: "boundary"}
for p, value, low in zip(ps, values, sigma_minima):
    detected, npt = flag[verdict(value)], flag[verdict(low)]
    print(f"  {p:.2f}  {value:+.6f}            {detected:5s}      {npt}")

# Because the witness vector reaches the ground eigenvalue, these thresholds
# are the best any Schmidt-rank-2 detection vector can deliver for this state.
