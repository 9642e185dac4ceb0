"""Gamma-matrix bases, spin tensors, Casimirs and spectral projectors.

The canonical construction starts from five mutually anticommuting hermitian
4x4 matrices built as Pauli tensor products:

    D1 = s1 x s1,  D2 = s1 x s2,  D3 = s1 x s3,  D4 = s2 x 1,  D5 = s3 x 1.

The 4x4 basis is gamma0 = D5 (already diagonal, diag(1,1,-1,-1)) and
gamma_k = i*D_k for k = 1..4, so gamma0 is hermitian with square +1 and the
spatial gammas are anti-hermitian with square -1.  The 8x8 basis doubles up:
Gamma0 = s3 x 1_4 and Gamma_k = s1 x (i*D_k).

All entries are exact integers or half-integers times i, so the basis
invariants hold with zero floating error.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# metric for indices 0..4: {gamma_mu, gamma_nu} = 2 g_mu_nu
METRIC = np.diag([1.0, -1.0, -1.0, -1.0, -1.0])

EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_j, _i, _k] = -1.0

# distance an eigenvalue may sit from its snapped s(s+1) value
CASIMIR_TOL = 1e-9
# distance within which spectral_projector counts an eigenvalue as the target
EIGENVALUE_TOL = 1e-8


def kron(*mats) -> np.ndarray:
    return reduce(np.kron, mats)


DELTAS = (
    kron(SX, SX),
    kron(SX, SY),
    kron(SX, SZ),
    kron(SY, I2),
    kron(SZ, I2),
)


class CliffordBasis(NamedTuple):
    """gamma0 plus four 'spatial' gammas (index 4 pairs with the mass)."""

    dim: int
    gamma0: np.ndarray
    gammas: tuple  # gamma_1..gamma_4

    def gamma(self, mu: int) -> np.ndarray:
        if mu == 0:
            return self.gamma0
        return self.gammas[mu - 1]


def build_basis(dim: int) -> CliffordBasis:
    """Construct the documented canonical basis for dim 4 or 8."""
    if dim == 4:
        basis = CliffordBasis(
            4, DELTAS[4].copy(), tuple(1j * DELTAS[k] for k in range(4))
        )
    elif dim == 8:
        eye4 = np.eye(4, dtype=complex)
        basis = CliffordBasis(
            8,
            np.kron(SZ, eye4),
            tuple(np.kron(SX, 1j * DELTAS[k]) for k in range(4)),
        )
    else:
        raise ValueError(f"unsupported dimension {dim}; expected 4 or 8")
    _validate(basis)
    return basis


def _validate(basis: CliffordBasis):
    eye = np.eye(basis.dim, dtype=complex)
    g0 = basis.gamma0
    if not np.array_equal(g0, g0.conj().T):
        raise AssertionError("gamma0 must be hermitian")
    if not np.array_equal(g0 @ g0, eye):
        raise AssertionError("gamma0 squared must be the identity")
    for mu in range(5):
        for nu in range(5):
            anti = basis.gamma(mu) @ basis.gamma(nu) + basis.gamma(nu) @ basis.gamma(mu)
            if not np.array_equal(anti, 2 * METRIC[mu, nu] * eye):
                raise AssertionError(f"anticommutator ({mu},{nu}) violates the metric")
    for gk in basis.gammas:
        if not np.array_equal(gk, -gk.conj().T):
            raise AssertionError("spatial gammas must be anti-hermitian")


class SpinGenerators:
    """Rotation generators S_mu_nu plus the commuting su(2) triples
    S_a = (eps_abc S_bc / 2 + S_4a) / 2 and T_a likewise with a minus sign.

    No __slots__: the triples and Casimirs are cached_property values, kept
    in the instance __dict__."""

    def __init__(self, dim: int, table: dict):
        self.dim = dim
        self.table = table  # (mu, nu) with mu < nu -> ndarray

    def entry(self, mu: int, nu: int) -> np.ndarray:
        if mu == nu:
            return np.zeros((self.dim, self.dim), dtype=complex)
        if mu < nu:
            return self.table[(mu, nu)]
        return -self.table[(nu, mu)]

    def _triple(self, sign: int) -> tuple:
        out = []
        for a in range(1, 4):
            rot = sum(
                EPSILON[a - 1, b - 1, c - 1] * self.entry(b, c)
                for b in range(1, 4)
                for c in range(1, 4)
            )
            out.append(0.5 * (0.5 * rot + sign * self.entry(4, a)))
        return tuple(out)

    @cached_property
    def S(self) -> tuple:
        return self._triple(1)

    @cached_property
    def T(self) -> tuple:
        return self._triple(-1)

    @cached_property
    def s_squared(self) -> np.ndarray:
        return sum(s @ s for s in self.S)

    @cached_property
    def t_squared(self) -> np.ndarray:
        return sum(t @ t for t in self.T)


def spin_tensor(basis: CliffordBasis) -> SpinGenerators:
    """S_mu_nu = i/4 [gamma_mu, gamma_nu] over indices 0..4."""
    table = {}
    for mu in range(5):
        for nu in range(mu + 1, 5):
            gm, gn = basis.gamma(mu), basis.gamma(nu)
            table[(mu, nu)] = 0.25j * (gm @ gn - gn @ gm)
    return SpinGenerators(basis.dim, table)


@lru_cache(maxsize=None)
def cached_basis(dim: int) -> CliffordBasis:
    return build_basis(dim)


@lru_cache(maxsize=None)
def cached_spin(dim: int) -> SpinGenerators:
    return spin_tensor(cached_basis(dim))


def _snap_casimir(value: float) -> float:
    """Snap an eigenvalue to the nearest s(s+1) with s a half-integer >= 0."""
    s = 0.5 * (-1.0 + np.sqrt(max(1.0 + 4.0 * value, 0.0)))
    s0 = round(2.0 * s) / 2.0
    snapped = s0 * (s0 + 1.0)
    if abs(value - snapped) > CASIMIR_TOL:
        raise AssertionError(
            f"eigenvalue {value} is not within {CASIMIR_TOL} of an s(s+1) value"
        )
    return snapped


def casimir_spectrum(gens: SpinGenerators) -> dict:
    """Eigenvalue histograms of S^2 and T^2, snapped to s(s+1) values."""
    out = {}
    for name, mat in (("s_squared", gens.s_squared), ("t_squared", gens.t_squared)):
        values = np.linalg.eigvalsh(mat)
        hist: dict = {}
        for v in values:
            key = _snap_casimir(float(v))
            hist[key] = hist.get(key, 0) + 1
        out[name] = hist
    return out


def spectral_projector(matrix: np.ndarray, eigenvalue: float) -> np.ndarray:
    """Orthogonal projector onto the eigenspace of a hermitian matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-12:
        raise ValueError("spectral_projector expects a hermitian matrix")
    values, vectors = np.linalg.eigh(matrix)
    mask = np.abs(values - eigenvalue) <= EIGENVALUE_TOL
    if not np.any(mask):
        nearest = values[np.argmin(np.abs(values - eigenvalue))]
        raise ValueError(
            f"{eigenvalue} is not an eigenvalue within {EIGENVALUE_TOL}; "
            f"nearest is {nearest}"
        )
    sel = vectors[:, mask]
    return sel @ sel.conj().T

