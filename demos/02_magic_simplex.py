"""Bell-diagonal qutrit states: construction, block structure, classification.

Run:  python demos/02_magic_simplex.py
"""
import numpy as np

from belldistill import (
    SimplexCoefficients,
    build_state,
    classify,
    partial_transpose,
    pt_block,
    sample_simplex,
    weyl,
)
from belldistill.linalg import dag, kron
from belldistill.weyl import bell_unitary, bell_vector

# A Bell-diagonal state is a probability table over the 9 Bell projectors.
pure = SimplexCoefficients(d=3, c=np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], float))
rho = build_state(pure)
print("canonical Bell projector, trace:", np.trace(rho).real)

# The same state through the Weyl channel acting on one side: conjugate
# |Omega_00><Omega_00| by the Kraus operators W_kl (x) 1 with weights c[k, l].
omega00 = bell_vector(3, 0, 0)
p00 = np.outer(omega00, omega00.conj())
kraus = [kron(weyl(3, k, l), np.eye(3)) for k in range(3) for l in range(3)]
channel = sum(w * (K @ p00 @ dag(K)) for w, K in zip(pure.c.ravel(), kraus))
print("channel route deviation:", np.abs(channel - rho).max())

# Its partial transpose is flip/3: three eigenvalues -1/3, six +1/3.
rep = classify(pure)
print("PT spectrum:", np.round(rep.eigenvalues, 4))
print("classification:", rep.classification, " negative count:", rep.negative_count)

# In the Bell frame the partial transpose splits into three 3x3 blocks,
# all sharing one spectrum; rebuilding from blocks matches the direct route.
direct = partial_transpose(rho, 3, 3)
blocks = np.zeros((9, 9), dtype=complex)
for m in range(3):
    blocks[3 * m:3 * m + 3, 3 * m:3 * m + 3] = pt_block(pure, m)
u = bell_unitary(3)
print("block assembly deviation:", np.abs(dag(u) @ blocks @ u - direct).max())
for m in range(3):
    eigs = np.linalg.eigvalsh(pt_block(pure, m))
    print(f"  block B_{m} spectrum: {np.round(eigs, 4)}")

# Random states: most of the simplex is NPT, and every NPT state shows the
# same signature, a unique negative PT eigenvalue of multiplicity three.
print("\nrandom tables:")
for seed in range(6):
    coeffs = sample_simplex(seed)
    rep = classify(coeffs)
    print(f"  seed {seed}: {rep.classification:8s} lambda_min = {rep.lambda_min:+.4f}"
          f"  negatives = {rep.negative_count}")
