"""Dense complex linear algebra for small bipartite systems.

Everything here operates on plain numpy arrays: matrices are square
complex 2-d arrays, state vectors are complex 1-d arrays, and a bipartite
space of local dimensions (dA, dB) is indexed row-major, |a,b> -> a*dB + b.
:func:`partial_transpose` also takes a stack of matrices, shape (..., n, n),
so that a family of states is handled in one call. Dimensions stay tiny (at
most 81), so per-call overhead, not arithmetic, dominates the cost; results
are deterministic and a stacked call gives the same bits as a loop of
single calls.
"""

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B of two matrices, with complex dtype.

    One broadcast multiply: out[(i,k),(j,l)] = A[i,j] * B[k,l], the same
    products as ``np.kron`` without its generic set-up.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not a.ndim == b.ndim == 2:
        raise ValueError(f"kron needs two matrices, got ranks {a.ndim} and {b.ndim}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def partial_transpose(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the second tensor factor of (dA*dB) x (dA*dB) matrices.

    out[..., (a,b),(a',b')] = m[..., (a,b'),(a',b)] for a single matrix or a
    stack of shape (..., n, n). The operation is an involution, preserves
    the trace and preserves Hermiticity.
    """
    m = np.asarray(m)
    n = d_a * d_b
    if m.shape[-2:] != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match dims ({d_a},{d_b})")
    lead = m.shape[:-2]
    return m.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -1).reshape(lead + (n, n))

