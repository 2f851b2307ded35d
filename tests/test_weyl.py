import ast
import importlib
import inspect

import numpy as np
import pytest

from belldistill.linalg import kron
from belldistill.weyl import (
    bell_unitary,
    bell_vector,
    flip,
    fourier,
    phase_table,
    swap_conjugation,
    weyl,
)

from reference import bell_vector_loop, controlled_sum

DIMS = (2, 3, 4, 5)


def ket2(d, i, j):
    v = np.zeros(d * d, dtype=complex)
    v[i * d + j] = 1.0
    return v


# ------------------------------------------------------ basic shapes

@pytest.mark.parametrize("d", DIMS)
def test_phase_table_is_shared_and_read_only(d):
    tab = phase_table(d)
    assert phase_table(d) is tab
    with pytest.raises(ValueError):
        tab[0] = 2.0
    assert np.array_equal(tab, np.exp(2j * np.pi * np.arange(d) / d))


def test_weyl_identity():
    assert np.array_equal(weyl(3, 0, 0), np.eye(3))


def test_weyl_diagonal_clock():
    tab = phase_table(3)
    assert np.array_equal(weyl(3, 1, 0), np.diag([tab[0], tab[1], tab[2]]))


def test_weyl_cyclic_shift():
    expected = np.zeros((3, 3))
    for j in range(3):
        expected[j, (j + 1) % 3] = 1.0
    assert np.array_equal(weyl(3, 0, 1), expected)


def test_weyl_rejects_small_dimension():
    with pytest.raises(ValueError):
        weyl(1, 0, 0)


# -------------------------------------------------- the group relations

@pytest.mark.parametrize("d", DIMS)
def test_weyl_relations(d):
    tab = phase_table(d)
    ws = {(k, l): weyl(d, k, l) for k in range(d) for l in range(d)}
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    lhs = ws[i, j] @ ws[k, l]
                    rhs = tab[(j * k) % d] * ws[(i + k) % d, (j + l) % d]
                    worst = max(worst, np.abs(lhs - rhs).max())
    for k in range(d):
        for l in range(d):
            worst = max(worst, np.abs(ws[k, l].conj() - ws[(-k) % d, l]).max())
            worst = max(
                worst,
                np.abs(ws[k, l].T - tab[(-k * l) % d] * ws[k, (-l) % d]).max(),
            )
    assert worst <= 1e-13


@pytest.mark.parametrize("d", DIMS)
def test_all_operators_unitary(d):
    ops = [fourier(d), controlled_sum(d), bell_unitary(d), flip(d), swap_conjugation(d)]
    ops += [weyl(d, k, l) for k in range(d) for l in range(d)]
    for op in ops:
        assert np.abs(op.conj().T @ op - np.eye(op.shape[0])).max() <= 1e-13


# --------------------------------------------------------- Bell vectors

def test_bell_vector_canonical():
    expected = np.zeros(9, dtype=complex)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.abs(bell_vector(3, 0, 0) - expected).max() < 1e-15


def test_bell_vector_qubit_phase():
    expected = np.array([1, 0, 0, -1]) / np.sqrt(2)
    assert np.abs(bell_vector(2, 1, 0) - expected).max() < 1e-15


def test_bell_vectors_orthonormal():
    vs = {(k, l): bell_vector(3, k, l) for k in range(3) for l in range(3)}
    for a, va in vs.items():
        for b, vb in vs.items():
            overlap = va.conj() @ vb
            assert abs(overlap - (1.0 if a == b else 0.0)) < 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_bell_basis_has_the_bits_of_the_loop_form(d):
    # bell_vector reads W_kl off weyl and bell_unitary stacks the vectors;
    # both keep, byte for byte, the entries the phase-table loop writes
    u = bell_unitary(d)
    assert u.shape == (d * d, d * d) and u.flags.c_contiguous
    for k, l in np.ndindex(d, d):
        want = bell_vector_loop(d, k, l)
        assert bell_vector(d, k, l).tobytes() == want.tobytes(), (k, l)
        assert u[k * d + l].tobytes() == want.conj().tobytes(), (k, l)


def test_weyl_phases_are_written_once():
    # weyl writes W_kl's phases and fourier the Fourier matrix's; the Bell
    # vectors and the Bell unitary read weyl, with no index arithmetic mod d
    tree = ast.parse(inspect.getsource(importlib.import_module("belldistill.weyl")))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    readers = {
        name for name, f in functions.items()
        if any(isinstance(n, ast.Name) and n.id == "phase_table" for n in ast.walk(f))
    }
    assert readers == {"weyl", "fourier"}
    for name in ("bell_vector", "bell_unitary"):
        nodes = list(ast.walk(functions[name]))
        assert not any(isinstance(n, (ast.For, ast.Mod)) for n in nodes), name


def test_bell_vector_matches_weyl_action():
    for k in range(3):
        for l in range(3):
            direct = kron(weyl(3, k, l), np.eye(3)) @ bell_vector(3, 0, 0)
            assert np.abs(direct - bell_vector(3, k, l)).max() < 1e-15


# -------------------------------------------------------------- Fourier

def test_fourier_qubit_is_hadamard():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(fourier(2) - expected).max() < 1e-15


def test_fourier_unitary():
    f = fourier(3)
    assert np.abs(f.conj().T @ f - np.eye(3)).max() <= 1e-14


def test_fourier_conjugation_of_weyl():
    # F^dag W_{k,l} F = omega^(-k l) W_{-l,k}
    f = fourier(3)
    tab = phase_table(3)
    for k in range(3):
        for l in range(3):
            lhs = f.conj().T @ weyl(3, k, l) @ f
            rhs = tab[(-k * l) % 3] * weyl(3, (-l) % 3, k)
            assert np.abs(lhs - rhs).max() <= 1e-13


# ------------------------------------------------------- controlled sum

def test_controlled_sum_matches_kraus_form():
    d = 3
    oracle = np.zeros((9, 9), dtype=complex)
    for z in range(d):
        zz = np.zeros((d, d))
        zz[z, z] = 1.0
        oracle += kron(zz, weyl(d, 0, z))
    assert np.abs(controlled_sum(d) - oracle).max() == 0.0


def test_controlled_sum_zero_control():
    cs = controlled_sum(3)
    for j in range(3):
        assert np.array_equal(cs @ ket2(3, 0, j), ket2(3, 0, j))


def test_controlled_sum_wraps():
    assert np.array_equal(controlled_sum(3) @ ket2(3, 1, 0), ket2(3, 1, 2))


def test_controlled_sum_squared():
    # composing the permutation (i, j) -> (i, j - i) twice
    cs = controlled_sum(3)
    i, j = 2, 1
    expected = ket2(3, i, (j - 2 * i) % 3)
    assert np.array_equal(cs @ (cs @ ket2(3, i, j)), expected)


# --------------------------------------------------------- Bell unitary

def test_bell_unitary_maps_bell_basis():
    u = bell_unitary(3)
    for r in range(3):
        for s in range(3):
            assert np.abs(u @ bell_vector(3, r, s) - ket2(3, r, s)).max() <= 1e-14


def test_bell_unitary_unitarity():
    u = bell_unitary(3)
    assert np.abs(u @ u.conj().T - np.eye(9)).max() <= 1e-14


def test_bell_unitary_factorization():
    u = bell_unitary(3)
    assert np.abs(u - kron(fourier(3), np.eye(3)) @ controlled_sum(3)).max() <= 1e-14


# ----------------------------------------------------------------- flip

def test_flip_action():
    assert np.array_equal(flip(3) @ ket2(3, 0, 1), ket2(3, 1, 0))


def test_flip_involution():
    f = flip(3)
    assert np.array_equal(f @ f, np.eye(9))


def test_flip_spectrum():
    # +1 on the six-dimensional symmetric subspace, -1 on the antisymmetric three
    eigs = np.linalg.eigvalsh(flip(3))
    expected = np.array([-1.0] * 3 + [1.0] * 6)
    assert np.abs(eigs - expected).max() < 1e-14


def test_flip_conjugated_by_bell_unitary():
    u = bell_unitary(3)
    lhs = u.conj().T @ flip(3) @ u
    assert np.abs(lhs - swap_conjugation(3)).max() <= 1e-13


def test_swap_conjugation_permutes_bell_basis():
    sc = swap_conjugation(3)
    for r in range(3):
        for s in range(3):
            assert np.abs(sc @ bell_vector(3, r, s) - bell_vector(3, s, r)).max() < 1e-14
