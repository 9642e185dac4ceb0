"""Gamma-matrix bases, spin tensors and Casimirs, and the constant-matrix
arithmetic that they and the operator coefficients share.

The canonical construction starts from five mutually anticommuting hermitian
4x4 matrices built as Pauli tensor products:

    D1 = s1 x s1,  D2 = s1 x s2,  D3 = s1 x s3,  D4 = s2 x 1,  D5 = s3 x 1.

The 4x4 basis is gamma0 = D5 (already diagonal, diag(1,1,-1,-1)) and
gamma_k = i*D_k for k = 1..4, so gamma0 is hermitian with square +1 and the
spatial gammas are anti-hermitian with square -1.  The 8x8 basis doubles up:
Gamma0 = s3 x 1_4 and Gamma_k = s1 x (i*D_k).

A matrix is dense, a tuple of rows of complex (any nested sequence is
accepted), or sparse, a dict {(i, j): nonzero entry} to compute products in.
Every entry is a Gaussian dyadic rational: the gammas hold 0, +-1 and +-i,
the spin matrices 0, +-1/2 and +-i/2, and the Casimirs S^2 and T^2 only 0
and 3/4, so no product or sum of them rounds.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

# ---------------------------------------------------------------------------
# constant matrices


def sparse(mat) -> dict:
    """{(i, j): entry} over the nonzero entries of a dense matrix."""
    return {(i, j): complex(v) for i, row in enumerate(mat) for j, v in enumerate(row) if v}


def dense(m: dict, dim: int) -> tuple:
    """The dense matrix of a sparse one, every zero part +0.0."""
    rows = [[0j] * dim for _ in range(dim)]
    for (i, j), v in m.items():
        rows[i][j] = v + 0j
    return tuple(map(tuple, rows))


def mat_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}


def mat_scale(m: dict, factor) -> dict:
    return {key: v * factor for key, v in m.items()} if factor else {}


def mat_mul(a: dict, b: dict) -> dict:
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            out[i, j] = out[i, j] + x * y if (i, j) in out else x * y
    return {key: v for key, v in out.items() if v}


def mat_dagger(m: dict) -> dict:
    return {(j, i): v.conjugate() for (i, j), v in m.items()}


def matmul(a, b) -> tuple:
    """The product of two dense matrices, as a dense matrix."""
    return dense(mat_mul(sparse(a), sparse(b)), len(a))


def combine(*terms) -> tuple:
    """sum f * m over (f, m) pairs of a number and a dense matrix."""
    return dense(reduce(mat_add, (mat_scale(sparse(m), f) for f, m in terms)), len(terms[0][1]))


def eye(dim: int) -> tuple:
    return dense({(i, i): 1 for i in range(dim)}, dim)


def kron(a, b) -> tuple:
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def trace(mat) -> complex:
    return sum(mat[i][i] for i in range(len(mat)))


I2 = eye(2)
SX = dense({(0, 1): 1, (1, 0): 1}, 2)
SY = dense({(0, 1): -1j, (1, 0): 1j}, 2)
SZ = dense({(0, 0): 1, (1, 1): -1}, 2)

# metric for indices 0..4: {gamma_mu, gamma_nu} = 2 g_mu_nu
METRIC = tuple(
    tuple(g if nu == mu else 0.0 for nu in range(5)) for mu, g in enumerate((1.0,) + (-1.0,) * 4)
)

DELTAS = (kron(SX, SX), kron(SX, SY), kron(SX, SZ), kron(SY, I2), kron(SZ, I2))


class CliffordBasis(NamedTuple):
    """gamma0 plus four 'spatial' gammas (index 4 pairs with the mass)."""

    dim: int
    gamma0: tuple
    gammas: tuple  # gamma_1..gamma_4

    def gamma(self, mu: int) -> tuple:
        if mu == 0:
            return self.gamma0
        return self.gammas[mu - 1]


def build_basis(dim: int) -> CliffordBasis:
    """Construct the documented canonical basis for dim 4 or 8."""
    spatial = [combine((1j, DELTAS[k])) for k in range(4)]
    if dim == 4:
        basis = CliffordBasis(4, DELTAS[4], tuple(spatial))
    elif dim == 8:
        basis = CliffordBasis(8, kron(SZ, eye(4)), tuple(kron(SX, g) for g in spatial))
    else:
        raise ValueError(f"unsupported dimension {dim}; expected 4 or 8")
    _validate(basis)
    return basis


def _validate(basis: CliffordBasis):
    """gamma0 is hermitian, the spatial gammas anti-hermitian, and
    {gamma_mu, gamma_nu} = 2 g_mu_nu, all exactly; the anticommutator is
    symmetric, so only mu <= nu is checked."""
    one = sparse(eye(basis.dim))
    gammas = [sparse(basis.gamma(mu)) for mu in range(5)]
    for mu, g in enumerate(gammas):
        if mat_dagger(g) != mat_scale(g, METRIC[mu][mu]):
            raise AssertionError(f"gamma_{mu} must be {'' if mu == 0 else 'anti-'}hermitian")
        for nu, h in enumerate(gammas[mu:], mu):
            if mat_add(mat_mul(g, h), mat_mul(h, g)) != mat_scale(one, 2 * METRIC[mu][nu]):
                raise AssertionError(f"anticommutator ({mu},{nu}) violates the metric")


class SpinGenerators:
    """Rotation generators S_mu_nu plus the commuting su(2) triples
    S_a = (eps_abc S_bc / 2 + S_4a) / 2 and T_a likewise with a minus sign.

    No __slots__: the triples and Casimirs are cached_property values, kept
    in the instance __dict__."""

    def __init__(self, table: dict):
        self.table = table  # (mu, nu) with mu < nu -> dense matrix

    def entry(self, mu: int, nu: int) -> tuple:
        """S_mu_nu for mu != nu."""
        if mu < nu:
            return self.table[(mu, nu)]
        return combine((-1, self.table[(nu, mu)]))

    def _triple(self, sign: int) -> tuple:
        # eps_abc S_bc / 2 is S_bc for the cyclic order (a, b, c)
        return tuple(
            combine((0.5, self.entry(b, c)), (0.5 * sign, self.entry(4, a)))
            for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        )

    @cached_property
    def S(self) -> tuple:
        return self._triple(1)

    @cached_property
    def T(self) -> tuple:
        return self._triple(-1)

    @cached_property
    def s_squared(self) -> tuple:
        return combine(*((1, matmul(s, s)) for s in self.S))

    @cached_property
    def t_squared(self) -> tuple:
        return combine(*((1, matmul(t, t)) for t in self.T))


def spin_tensor(basis: CliffordBasis) -> SpinGenerators:
    """S_mu_nu = i/4 [gamma_mu, gamma_nu] over indices 0..4."""
    gammas = [sparse(basis.gamma(mu)) for mu in range(5)]
    table = {}
    for mu in range(5):
        for nu in range(mu + 1, 5):
            gm, gn = gammas[mu], gammas[nu]
            commutator = mat_add(mat_mul(gm, gn), mat_scale(mat_mul(gn, gm), -1))
            table[(mu, nu)] = dense(mat_scale(commutator, 0.25j), basis.dim)
    return SpinGenerators(table)


@lru_cache(maxsize=None)
def cached_basis(dim: int) -> CliffordBasis:
    return build_basis(dim)


@lru_cache(maxsize=None)
def cached_spin(dim: int) -> SpinGenerators:
    return spin_tensor(cached_basis(dim))
