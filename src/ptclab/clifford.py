"""Gamma-matrix bases, spin tensors, Casimirs and spectral projectors.

The canonical construction starts from five mutually anticommuting hermitian
4x4 matrices built as Pauli tensor products:

    D1 = s1 x s1,  D2 = s1 x s2,  D3 = s1 x s3,  D4 = s2 x 1,  D5 = s3 x 1.

The 4x4 basis is gamma0 = D5 (already diagonal, diag(1,1,-1,-1)) and
gamma_k = i*D_k for k = 1..4, so gamma0 is hermitian with square +1 and the
spatial gammas are anti-hermitian with square -1.  The 8x8 basis doubles up:
Gamma0 = s3 x 1_4 and Gamma_k = s1 x (i*D_k).

All entries are exact integers or half-integers times i, so the basis
invariants hold with zero floating error.  Casimir spectra and spectral
projectors come from polynomials in the matrix over a stated spectrum, not
from an eigen-solver, so they are exact as well.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# metric for indices 0..4: {gamma_mu, gamma_nu} = 2 g_mu_nu
METRIC = np.diag([1.0, -1.0, -1.0, -1.0, -1.0])

DELTAS = (
    np.kron(SX, SX),
    np.kron(SX, SY),
    np.kron(SX, SZ),
    np.kron(SY, I2),
    np.kron(SZ, I2),
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
    """gamma0 is hermitian, the spatial gammas anti-hermitian, and
    {gamma_mu, gamma_nu} = 2 g_mu_nu, all exactly."""
    eye = np.eye(basis.dim, dtype=complex)
    for mu in range(5):
        g = basis.gamma(mu)
        if not np.array_equal(g.conj().T, METRIC[mu, mu] * g):
            raise AssertionError(f"gamma_{mu} must be {'' if mu == 0 else 'anti-'}hermitian")
        for nu in range(5):
            anti = g @ basis.gamma(nu) + basis.gamma(nu) @ g
            if not np.array_equal(anti, 2 * METRIC[mu, nu] * eye):
                raise AssertionError(f"anticommutator ({mu},{nu}) violates the metric")


class SpinGenerators:
    """Rotation generators S_mu_nu plus the commuting su(2) triples
    S_a = (eps_abc S_bc / 2 + S_4a) / 2 and T_a likewise with a minus sign.

    No __slots__: the triples and Casimirs are cached_property values, kept
    in the instance __dict__."""

    def __init__(self, dim: int, table: dict):
        self.dim = dim
        self.table = table  # (mu, nu) with mu < nu -> ndarray

    def entry(self, mu: int, nu: int) -> np.ndarray:
        """S_mu_nu for mu != nu."""
        if mu < nu:
            return self.table[(mu, nu)]
        return -self.table[(nu, mu)]

    def _triple(self, sign: int) -> tuple:
        # eps_abc S_bc / 2 is S_bc for the cyclic order (a, b, c)
        return tuple(
            0.5 * (self.entry(b, c) + sign * self.entry(4, a))
            for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        )

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


def _lagrange_sylvester(matrix: np.ndarray, eigenvalue: float, spectrum) -> tuple:
    """(N, c) = (prod (M - mu), prod (eigenvalue - mu)) over the values
    mu != eigenvalue of `spectrum`, so that N / c projects onto the
    eigenvalue's eigenspace (Lagrange-Sylvester; Higham, Functions of
    Matrices, SIAM 2008, sec. 1.2).  The entries are small dyadic rationals,
    so every float product is exact.  ValueError unless the product over the
    whole spectrum, (M - eigenvalue) N, is exactly zero and N N == c N."""
    eye = np.eye(len(matrix))
    others = [mu for mu in spectrum if mu != eigenvalue]
    numerator = reduce(np.matmul, (matrix - mu * eye for mu in others), eye)
    scale = math.prod(eigenvalue - mu for mu in others)
    if np.any((matrix - eigenvalue * eye) @ numerator):
        raise ValueError(f"the matrix has an eigenvalue outside {spectrum}")
    if not np.array_equal(numerator @ numerator, scale * numerator):
        raise ValueError(f"N N != c N for the eigenvalue {eigenvalue}")
    return numerator, scale


def casimir_spectrum(gens: SpinGenerators) -> dict:
    """How often S^2 and T^2 take each value s(s+1) with 2s + 1 <= d, as the
    exact integer trace(N) / c; AssertionError if an eigenvalue is not one."""
    values = [k * (k + 2) / 4 for k in range(gens.dim)]  # s = k / 2
    out = {}
    for name, mat in (("s_squared", gens.s_squared), ("t_squared", gens.t_squared)):
        out[name] = {}
        for value in values:
            try:
                numerator, scale = _lagrange_sylvester(mat, value, values)
            except ValueError as exc:
                raise AssertionError(f"{name}: {exc}") from None
            trace = np.trace(numerator)
            count = trace.real / scale
            # fmod is exact, so it is 0 iff trace(N) / c is an integer
            if trace.imag or math.fmod(trace.real, scale):
                raise AssertionError(f"{name}: {value} has multiplicity {count}")
            if count:
                out[name][value] = int(count)
    return out


def spectral_projector(matrix: np.ndarray, eigenvalue: float, spectrum) -> np.ndarray:
    """N / c for a matrix whose eigenvalues lie in `spectrum`: the projector
    onto the eigenspace of `eigenvalue`, orthogonal if the matrix is
    hermitian.  ValueError if the eigenspace is empty or N / c is not exact."""
    from fractions import Fraction

    numerator, scale = _lagrange_sylvester(matrix, eigenvalue, spectrum)
    if not np.any(numerator):
        raise ValueError(f"{eigenvalue} is not an eigenvalue")
    proj = numerator / scale
    exact = Fraction(scale)
    for n, q in set(zip(numerator.ravel().tolist(), proj.ravel().tolist())):
        if (Fraction(q.real) * exact, Fraction(q.imag) * exact) != (n.real, n.imag):
            raise ValueError(f"N / {scale} is not exact for the eigenvalue {eigenvalue}")
    return proj
