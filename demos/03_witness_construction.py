"""Step-by-step construction of the rank-2 ground eigenvector and its witness.

Run:  python demos/03_witness_construction.py
"""
import numpy as np

from belldistill import build_state, construct_witness_vector, detect, partial_transpose, sample_npt

coeffs, rep = sample_npt(seed=12345)
print("coefficient table:")
print(np.round(coeffs.c, 4))
print(f"\nlambda_min(rho^Gamma) = {rep.lambda_min:.6f} "
      f"(multiplicity {int(np.sum(np.isclose(rep.eigenvalues, rep.lambda_min)))})")

wc = construct_witness_vector(rep)

# The block ground vector and its Weyl-propagated siblings.
print("\nu_0 (ground vector of block B_0):", np.round(wc.u[0], 4))
print("alpha^(0) = F^dag u_0          :", np.round(wc.alpha[0], 4))

# The coefficient matrix C = [[a, 0, b], [c, -b, 0], [0, -a, -c]] has
# C C^dag = ||u_0||^2 / 2 * 1 - v v^dag for any u_0, so its singular values
# are (1/sqrt 2, 1/sqrt 2, 0): Schmidt rank exactly 2, with equal coefficients.
singular = np.linalg.svd(wc.phi_tilde.reshape(3, 3), compute_uv=False)
print("\nsingular values of C :", np.round(singular, 10))
print("Schmidt coefficients:", np.round(wc.schmidt_coefficients, 10))

# phi really is a ground eigenvector of the full 9x9 partial transpose.
rho = build_state(coeffs)
rho_pt = partial_transpose(rho, 3, 3)
residual = np.abs(rho_pt @ wc.phi - wc.lambda_min * wc.phi).max()
print(f"eigenvector residual: {residual:.2e}")

# Its partially transposed projector is the distillability witness:
# negative on the generating state, nonnegative on every product vector.
w = wc.W
print(f"\nwitness spectrum: {np.round(np.linalg.eigvalsh(w), 6)}")
print(f"trace(W rho) = {detect(w, rho):.6f}  (= lambda_min)")
rng = np.random.default_rng(1)
a = rng.standard_normal((20_000, 3)) + 1j * rng.standard_normal((20_000, 3))
b = rng.standard_normal((20_000, 3)) + 1j * rng.standard_normal((20_000, 3))
a /= np.linalg.norm(a, axis=1, keepdims=True)
b /= np.linalg.norm(b, axis=1, keepdims=True)
products = np.einsum("ni,nj->nij", a, b).reshape(20_000, 9)
minimum = np.einsum("ni,ij,nj->n", products.conj(), w, products).real.min()
print(f"min over 2x10^4 product vectors: {minimum:.2e}")
