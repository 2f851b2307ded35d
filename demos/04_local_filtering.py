"""Filtering a qutrit pair down to an entangled qubit pair.

Run:  python demos/04_local_filtering.py
"""
import numpy as np

from belldistill import (
    build_state,
    construct_witness_vector,
    filter_report,
    sample_npt,
)

coeffs, spectrum = sample_npt(seed=777)
wc = construct_witness_vector(spectrum)
rho = build_state(coeffs)
rep = filter_report(rho, wc)

# The witness vector's Schmidt bases give local rank-2 projectors.
print("trace P_A =", np.trace(wc.P_A).real, " trace P_B =", np.trace(wc.P_B).real)
print(f"success probability q = {rep.q:.6f}")

# The filtered 4x4 state lives on the qubit pair spanned by those bases.
print("\nsigma (filtered state):")
print(np.round(rep.sigma, 4))
print("trace:", np.trace(rep.sigma).real)

# Its partial transpose has exactly one negative eigenvalue, and that
# eigenvalue is lambda_min / q on the nose.
print("\nsigma^Gamma spectrum:", np.round(rep.sigma_pt_spectrum, 6))
print(f"lambda_min(rho^Gamma) / q = {wc.lambda_min / rep.q:.6f}")

# Entangled two-qubit states are always distillable, so this filtering is a
# complete first stage of a distillation protocol for the qutrit pair.
