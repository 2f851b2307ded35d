"""Tour of the Weyl-Heisenberg layer: operators, Bell basis, structural unitaries.

Run:  python demos/01_weyl_operators.py
"""
import numpy as np

from belldistill import weyl
from belldistill.linalg import kron
from belldistill.weyl import bell_unitary, bell_vector, flip, fourier, phase_table

d = 3
tab = phase_table(d)
print(f"omega = exp(2 pi i / {d}) = {tab[1]:.6f}")

# The three generators of the story: clock, shift, and their products.
print("\nW_{1,0} (clock):")
print(np.round(weyl(d, 1, 0), 4))
print("\nW_{0,1} (shift):")
print(np.round(weyl(d, 0, 1), 4).real)

# Group law: W_{i,j} W_{k,l} = omega^(jk) W_{i+k, j+l}
lhs = weyl(d, 1, 2) @ weyl(d, 2, 1)
rhs = tab[(2 * 2) % d] * weyl(d, (1 + 2) % d, (2 + 1) % d)
print(f"\ngroup law deviation: {np.abs(lhs - rhs).max():.2e}")

# The d^2 Bell vectors form an orthonormal basis.
gram = np.array([
    [abs(bell_vector(d, k, l).conj() @ bell_vector(d, r, s))
     for r in range(d) for s in range(d)]
    for k in range(d) for l in range(d)
])
print(f"Bell basis Gram matrix deviation from identity: {np.abs(gram - np.eye(9)).max():.2e}")

# The Bell unitary U maps |Omega_rs> to |r,s> and factors as (F x 1) C_s,
# with C_s the controlled sum |i,j> -> |i, j-i mod d>, a permutation matrix.
u = bell_unitary(d)
c_sum = np.eye(d * d)[:, [i * d + (j - i) % d for i in range(d) for j in range(d)]]
factored = kron(fourier(d), np.eye(d)) @ c_sum
print(f"U - (F x 1) C_s deviation: {np.abs(u - factored).max():.2e}")

# Conjugating the flip into the Bell frame gives a local operation times a swap,
# which is why it cannot change Schmidt coefficients.
lhs = u.conj().T @ flip(d) @ u
rhs = kron(fourier(d).conj().T, fourier(d)) @ flip(d)
print(f"U^dag flip U - (F^dag x F) flip deviation: {np.abs(lhs - rhs).max():.2e}")
