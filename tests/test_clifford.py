import itertools

import numpy as np
import pytest

from ptclab.clifford import (
    METRIC,
    SY,
    build_basis,
    cached_spin,
    casimir_spectrum,
    spectral_projector,
    spin_tensor,
)


@pytest.mark.parametrize("dim", [4, 8])
def test_basis_invariants_exact(dim):
    basis = build_basis(dim)
    eye = np.eye(dim, dtype=complex)
    assert np.array_equal(basis.gamma0, basis.gamma0.conj().T)
    assert np.array_equal(basis.gamma0 @ basis.gamma0, eye)
    for k, gk in enumerate(basis.gammas, start=1):
        assert np.array_equal(gk, -gk.conj().T)
        assert np.array_equal(gk @ gk, -eye)
    for mu in range(5):
        for nu in range(5):
            anti = basis.gamma(mu) @ basis.gamma(nu) + basis.gamma(nu) @ basis.gamma(mu)
            assert np.array_equal(anti, 2 * METRIC[mu, nu] * eye), (mu, nu)


def test_gamma0_is_diagonal_with_unit_entries():
    basis = build_basis(4)
    assert np.array_equal(basis.gamma0, np.diag([1, 1, -1, -1]).astype(complex))


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError, match="unsupported dimension"):
        build_basis(6)


def test_dim8_hamiltonian_square_is_mass_shell():
    # direct matrix arithmetic at integer momenta: 1 + 4 + 9 + 1 = 15
    basis = build_basis(8)
    p = (1, 2, 3, 1)  # (p1, p2, p3, m)
    h = sum(basis.gamma0 @ basis.gamma(k + 1) * p[k] for k in range(4))
    assert np.array_equal(h @ h, 15 * np.eye(8, dtype=complex))


@pytest.mark.parametrize("dim", [4, 8])
def test_spin_tensor_antisymmetry_and_exact_entries(dim):
    spin = spin_tensor(build_basis(dim))
    for (mu, nu), mat in spin.table.items():
        assert np.array_equal(spin.entry(nu, mu), -mat)
        # entries are exact half-integers times powers of i
        assert np.array_equal(2 * mat, np.round(2 * mat.real) + 1j * np.round(2 * mat.imag))


@pytest.mark.parametrize("dim", [4, 8])
def test_s12_eigenvalues_half(dim):
    spin = spin_tensor(build_basis(dim))
    values = np.sort(np.linalg.eigvalsh(spin.table[(1, 2)]))
    expected = np.sort([0.5] * (dim // 2) + [-0.5] * (dim // 2))
    assert np.allclose(values, expected, atol=1e-12)


def test_su2_brackets():
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    spin = cached_spin(8)
    for a in range(3):
        for b in range(3):
            target_s = sum(1j * eps[a, b, c] * spin.S[c] for c in range(3))
            target_t = sum(1j * eps[a, b, c] * spin.T[c] for c in range(3))
            assert np.max(np.abs(spin.S[a] @ spin.S[b] - spin.S[b] @ spin.S[a] - target_s)) < 1e-12
            assert np.max(np.abs(spin.T[a] @ spin.T[b] - spin.T[b] @ spin.T[a] - target_t)) < 1e-12
            assert np.max(np.abs(spin.S[a] @ spin.T[b] - spin.T[b] @ spin.S[a])) < 1e-12


@pytest.mark.parametrize("dim,expected", [(4, {0.75: 2, 0.0: 2}), (8, {0.75: 4, 0.0: 4})])
def test_casimir_spectra(dim, expected):
    spin = cached_spin(dim)
    spectra = casimir_spectrum(spin)
    assert spectra["s_squared"] == expected
    assert spectra["t_squared"] == expected
    assert sum(spectra["s_squared"].values()) == dim
    # independent eigendecomposition of the Casimir matrix itself
    values = np.linalg.eigvalsh(spin.s_squared)
    assert np.allclose(np.sort(values), np.sort([v for v, n in expected.items() for _ in range(n)]), atol=1e-12)


def test_spectral_projector_identity():
    assert np.allclose(spectral_projector(np.eye(3), 1.0), np.eye(3))


def test_spectral_projector_gamma0():
    basis = build_basis(8)
    proj = spectral_projector(basis.gamma0, 1.0)
    assert np.allclose(proj, (np.eye(8) + basis.gamma0) / 2, atol=1e-14)


def test_spectral_projector_casimir_block():
    spin = cached_spin(8)
    basis = build_basis(8)
    proj = spectral_projector(spin.s_squared, 0.75)
    assert round(float(np.real(np.trace(proj)))) == 4
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-10
    assert np.max(np.abs(spin.s_squared @ proj - 0.75 * proj)) < 1e-10
    assert np.max(np.abs(proj @ basis.gamma0 - basis.gamma0 @ proj)) < 1e-12


def test_spectral_projector_rejects_missing_eigenvalue():
    spin = cached_spin(8)
    with pytest.raises(ValueError, match="nearest"):
        spectral_projector(spin.s_squared, 0.5)


def _commutant_scan():
    """(total, members): the number of bilinears S_AB = i/4 [e_A, e_B] of the
    dim-8 anticommuting set, and the index pairs (A, B) of those that commute
    with the canonical Hamiltonian Gamma0 E.  E is a positive scalar, so
    [S_AB, Gamma0 E] = E [S_AB, Gamma0], and the scan checks [S_AB, Gamma0] = 0
    exactly.  Element 0 is Gamma0, 1..4 are the spatial gammas as hermitian
    involutions and 5 is the doubling element s2 x 1_4."""
    basis = build_basis(8)
    g0 = basis.gamma0
    elems = [g0] + [-1j * g for g in basis.gammas] + [np.kron(SY, np.eye(4))]
    pairs = list(itertools.combinations(range(len(elems)), 2))
    for a, b in pairs:
        assert np.array_equal(elems[a] @ elems[b], -elems[b] @ elems[a]), (a, b)
    members = []
    for a, b in pairs:
        bil = 0.25j * (elems[a] @ elems[b] - elems[b] @ elems[a])
        if np.array_equal(bil @ g0, g0 @ bil):
            members.append((a, b))
    return len(pairs), members


def test_commutant_scan_counts():
    total, members = _commutant_scan()
    assert total == 15
    # independent rule: a bilinear commutes with Gamma0 iff neither factor is
    # Gamma0 itself (both factors then anticommute, so the product commutes)
    expected = {(a, b) for a in range(1, 6) for b in range(a + 1, 6)}
    assert set(members) == expected
    assert len(members) == len(expected) == 10
    # the six purely 'spatial' rotation generators are all present
    for pair in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        assert pair in members
