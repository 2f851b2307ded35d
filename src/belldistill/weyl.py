"""Weyl-Heisenberg operators, Bell basis vectors and the structural unitaries.

All constructors take the local dimension d >= 2 first and return a fresh,
writable array. Roots of unity are always drawn from a single phase table
of omega = exp(2 pi i / d) with exponents folded mod d, which keeps the
group relations exact at machine precision; that table is built once per d
and shared read-only.
"""

import functools

import numpy as np

from .linalg import kron


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return d


@functools.cache
def phase_table(d: int) -> np.ndarray:
    """Read-only array of the d-th roots of unity, entry j = omega**j.

    Built on the first call for each d and shared by every later one.
    """
    d = _check_dim(d)
    tab = np.exp(2j * np.pi * np.arange(d) / d)
    tab.setflags(write=False)
    return tab


def weyl(d: int, k: int, l: int) -> np.ndarray:
    """Shift-and-phase unitary with entries omega^(j k) at (j, j+l mod d)."""
    d = _check_dim(d)
    tab = phase_table(d)
    w = np.zeros((d, d), dtype=complex)
    for j in range(d):
        w[j, (j + l) % d] = tab[(j * k) % d]
    return w


def bell_vector(d: int, k: int, l: int) -> np.ndarray:
    """Maximally entangled basis vector (W_{k,l} (x) 1) applied to the canonical one.

    The (0,0) vector is (1/sqrt d) sum_i |i,i>, so the (k,l) one holds the
    entries of W_{k,l} row-major over sqrt d; the d*d of them form an
    orthonormal basis of the bipartite space.
    """
    return weyl(d, k, l).ravel() / np.sqrt(d)


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier matrix, entry (x, y) = omega^(-x y) / sqrt(d)."""
    d = _check_dim(d)
    tab = phase_table(d)
    f = np.zeros((d, d), dtype=complex)
    for x in range(d):
        for y in range(d):
            f[x, y] = tab[(-x * y) % d]
    return f / np.sqrt(d)


def bell_unitary(d: int) -> np.ndarray:
    """Unitary sending the Bell basis to the computational basis, |Omega_rs> -> |r,s>.

    Row r*d + s is the conjugated Bell vector Omega_rs. Equals (F (x) 1) C_s
    with F the Fourier matrix and C_s the controlled sum |i,j> -> |i, j-i mod d>.
    """
    d = _check_dim(d)
    return np.conj([bell_vector(d, r, s) for r, s in np.ndindex(d, d)])


def flip(d: int) -> np.ndarray:
    """Swap of the two tensor factors, |a,b> -> |b,a>. Self-inverse."""
    d = _check_dim(d)
    f = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            f[b * d + a, a * d + b] = 1.0
    return f


def swap_conjugation(d: int) -> np.ndarray:
    """The operator (F^dag (x) F) flip, which equals U^dag flip U for the Bell unitary U.

    Applied to a bipartite vector it permutes the Bell basis, |Omega_rs> ->
    |Omega_sr>, and being a local unitary followed by a swap it leaves
    Schmidt coefficients untouched.
    """
    f = fourier(d)
    return kron(f.conj().T, f) @ flip(d)
