import itertools

import numpy as np
import pytest

import ptclab.clifford as clifford
from ptclab.clifford import (
    METRIC,
    SY,
    CliffordBasis,
    build_basis,
    cached_spin,
    combine,
    spin_tensor,
)

import oracles
from oracles import casimir_spectrum, spectral_projector


@pytest.mark.parametrize("dim", [4, 8])
def test_basis_invariants_exact(dim):
    basis = build_basis(dim)
    eye = np.eye(dim, dtype=complex)
    gamma = [np.asarray(basis.gamma(mu)) for mu in range(5)]
    assert np.array_equal(gamma[0], gamma[0].conj().T)
    assert np.array_equal(gamma[0] @ gamma[0], eye)
    for k, gk in enumerate(map(np.asarray, basis.gammas), start=1):
        assert np.array_equal(gk, -gk.conj().T)
        assert np.array_equal(gk @ gk, -eye)
    for mu in range(5):
        for nu in range(5):
            anti = gamma[mu] @ gamma[nu] + gamma[nu] @ gamma[mu]
            assert np.array_equal(anti, 2 * np.asarray(METRIC)[mu, nu] * eye), (mu, nu)


def test_gamma0_is_diagonal_with_unit_entries():
    basis = build_basis(4)
    assert np.array_equal(basis.gamma0, np.diag([1, 1, -1, -1]).astype(complex))


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError, match="unsupported dimension"):
        build_basis(6)


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize(
    "mu, corrupt, message",
    [
        (4, lambda basis: basis.gamma(1), r"anticommutator \(1,4\) violates the metric"),
        (1, lambda basis: basis.gamma(4), r"anticommutator \(1,4\) violates the metric"),
        (2, lambda basis: combine((2, basis.gamma(2))), r"anticommutator \(2,2\) violates"),
        (0, lambda basis: combine((1j, basis.gamma0)), "gamma_0 must be hermitian"),
    ],
    ids=["gamma4-is-gamma1", "gamma1-is-gamma4", "gamma2-doubled", "gamma0-times-i"],
)
def test_a_corrupted_gamma_is_rejected(dim, mu, corrupt, message):
    """_validate checks each anticommutator once, for mu <= nu, and still
    rejects a basis with one gamma corrupted, whether the failing pair has
    the corrupted gamma first or second, with the first failing pair named
    in the message."""
    basis = build_basis(dim)
    gammas = [basis.gamma(nu) for nu in range(5)]
    gammas[mu] = corrupt(basis)
    with pytest.raises(AssertionError, match=f"^{message}"):
        clifford._validate(CliffordBasis(dim, gammas[0], tuple(gammas[1:])))


def test_dim8_hamiltonian_square_is_mass_shell():
    # direct matrix arithmetic at integer momenta: 1 + 4 + 9 + 1 = 15
    basis = build_basis(8)
    p = (1, 2, 3, 1)  # (p1, p2, p3, m)
    h = sum(np.asarray(basis.gamma0) @ np.asarray(basis.gamma(k + 1)) * p[k] for k in range(4))
    assert np.array_equal(h @ h, 15 * np.eye(8, dtype=complex))


@pytest.mark.parametrize("dim", [4, 8])
def test_spin_tensor_antisymmetry_and_exact_entries(dim):
    spin = spin_tensor(build_basis(dim))
    for (mu, nu), mat in spin.table.items():
        mat = np.asarray(mat)
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
    S, T = np.asarray(spin.S), np.asarray(spin.T)
    for a in range(3):
        for b in range(3):
            target_s = sum(1j * eps[a, b, c] * S[c] for c in range(3))
            target_t = sum(1j * eps[a, b, c] * T[c] for c in range(3))
            assert np.max(np.abs(S[a] @ S[b] - S[b] @ S[a] - target_s)) < 1e-12
            assert np.max(np.abs(T[a] @ T[b] - T[b] @ T[a] - target_t)) < 1e-12
            assert np.max(np.abs(S[a] @ T[b] - T[b] @ S[a])) < 1e-12


@pytest.mark.parametrize("dim,expected", [(4, {0.75: 2, 0.0: 2}), (8, {0.75: 4, 0.0: 4})])
def test_casimir_spectra(dim, expected):
    spin = cached_spin(dim)
    spectra = casimir_spectrum(spin)
    assert spectra["s_squared"] == expected
    assert spectra["t_squared"] == expected
    assert sum(spectra["s_squared"].values()) == dim
    # independent eigendecomposition of the Casimir matrix itself
    values = np.linalg.eigvalsh(np.asarray(spin.s_squared))
    assert np.allclose(np.sort(values), np.sort([v for v, n in expected.items() for _ in range(n)]), atol=1e-12)


def test_spectral_projector_identity():
    assert np.array_equal(spectral_projector(np.eye(3), 1.0, (1.0,)), np.eye(3))


def test_spectral_projector_gamma0():
    basis = build_basis(8)
    proj = spectral_projector(basis.gamma0, 1.0, (1, -1))
    assert np.array_equal(proj, (np.eye(8) + np.asarray(basis.gamma0)) / 2)


def test_spectral_projector_casimir_block():
    spin = cached_spin(8)
    basis = build_basis(8)
    proj = np.asarray(spectral_projector(spin.s_squared, 0.75, (0, 0.75)))
    gamma0 = np.asarray(basis.gamma0)
    assert np.trace(proj) == 4
    assert np.array_equal(proj @ proj, proj)
    assert np.array_equal(proj, proj.conj().T)
    assert np.array_equal(np.asarray(spin.s_squared) @ proj, 0.75 * proj)
    assert np.array_equal(proj @ gamma0, gamma0 @ proj)


def test_spectral_projector_rejects_missing_eigenvalue():
    spin = cached_spin(8)
    with pytest.raises(ValueError, match="is not an eigenvalue"):
        spectral_projector(spin.s_squared, 0.5, (0, 0.5, 0.75))


# (matrix, spectrum) pairs whose projectors are checked as exact identities
_SPECTRA = {
    "gamma0": (lambda dim: build_basis(dim).gamma0, (1, -1)),
    "s_squared": (lambda dim: cached_spin(dim).s_squared, (0, 0.75)),
    "t_squared": (lambda dim: cached_spin(dim).t_squared, (0, 0.75)),
}


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("name", sorted(_SPECTRA))
def test_spectral_projectors_are_exact_identities(dim, name):
    """Over the stated spectrum, each projector is idempotent, the
    projectors sum to the identity and each trace is its multiplicity d/2,
    all with no rounding."""
    build, spectrum = _SPECTRA[name]
    matrix = np.asarray(build(dim))
    projectors = [np.asarray(spectral_projector(matrix, value, spectrum)) for value in spectrum]
    for value, proj in zip(spectrum, projectors):
        assert np.array_equal(proj @ proj, proj)
        assert np.array_equal(matrix @ proj, value * proj)
        assert np.trace(proj) == dim // 2
    assert np.array_equal(sum(projectors), np.eye(dim))


def test_doctored_casimir_is_rejected():
    """Fresh spin generators whose S^2 has 1/4 added to one diagonal entry,
    so that it has eigenvalues outside {0, 3/4}: no s(s+1) spectrum and no
    projector is accepted."""
    spin = spin_tensor(build_basis(8))
    spin.s_squared = np.asarray(spin.s_squared) + np.diag([0.25] + [0.0] * 7)
    with pytest.raises(AssertionError, match="s_squared"):
        casimir_spectrum(spin)
    for value in (0, 0.75):
        with pytest.raises(ValueError, match="eigenvalue outside"):
            spectral_projector(spin.s_squared, value, (0, 0.75))


def test_casimir_spectrum_rejects_a_fractional_multiplicity(monkeypatch):
    """A multiplicity trace(N) / c that is not an integer raises: here c is
    tripled behind the construction's back, so 4 / 3 remains."""
    lagrange = oracles._lagrange_sylvester

    def tripled(matrix, value, spectrum):
        numerator, scale = lagrange(matrix, value, spectrum)
        return numerator, 3 * scale

    monkeypatch.setattr(oracles, "_lagrange_sylvester", tripled)
    with pytest.raises(AssertionError, match="multiplicity"):
        casimir_spectrum(spin_tensor(build_basis(8)))


def test_spectral_projector_rejects_an_inexact_quotient():
    """M = [[1, 2], [2, 4]] has the spectrum {0, 5}, and its projectors
    (5 - M) / 5 and M / 5 have entries that no float represents: both are
    refused rather than rounded."""
    matrix = np.array([[1.0, 2.0], [2.0, 4.0]])
    for value in (0, 5):
        with pytest.raises(ValueError, match="not exact"):
            spectral_projector(matrix, value, (0, 5))


def _commutant_scan():
    """(total, members): the number of bilinears S_AB = i/4 [e_A, e_B] of the
    dim-8 anticommuting set, and the index pairs (A, B) of those that commute
    with the canonical Hamiltonian Gamma0 E.  E is a positive scalar, so
    [S_AB, Gamma0 E] = E [S_AB, Gamma0], and the scan checks [S_AB, Gamma0] = 0
    exactly.  Element 0 is Gamma0, 1..4 are the spatial gammas as hermitian
    involutions and 5 is the doubling element s2 x 1_4."""
    basis = build_basis(8)
    g0 = np.asarray(basis.gamma0)
    elems = [g0] + [-1j * np.asarray(g) for g in basis.gammas] + [np.kron(SY, np.eye(4))]
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
