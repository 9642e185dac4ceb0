"""Momentum-space linear operators with matrix coefficients.

An operator is a finite sum of coefficients times partial-derivative
multi-indices in (p1, p2, p3).  A coefficient is a `Coefficient`: a Laurent
polynomial of `expr` whose coefficients are constant matrices, sum_b M_b x^b
over distinct monomials x^b, so it shares the scalars' sums, products,
derivatives and mass-shell normal form (`Expr.on_shell`), and `a @ b` is
their matrix product.  The package builds every generator in closed form
from sums, scalar scalings and constant left factors of coefficients.
`commutator` forms the bracket of two order <= 1 operators exactly, as
another operator of the same kind, so every identity between generators is
decided on the normal form of its coefficients.  `FlagTransform` is the
signature of a discrete substitution map.
"""

from __future__ import annotations

import numpy as np

from .expr import MOMENTA, MOMENTUM_VARS, ONE, Expr
from .expr import FlagTransform  # the substitution signature, part of this module's API

Index = tuple  # (n1, n2, n3) derivative multi-index

ZERO_INDEX = (0, 0, 0)


def index_add(a: Index, b: Index) -> Index:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def index_order(a: Index) -> int:
    return a[0] + a[1] + a[2]


# ---------------------------------------------------------------------------
# coefficients


class Coefficient(Expr):
    """sum_b M_b x^b: constant d x d matrices `mats` (K, d, d), one per
    distinct monomial row of `exps` (K, 7).

    Every generator coefficient has this form (Gamma0 Gamma_k p_k, Gamma0 E,
    the boost spin Gamma0 S_ab p_b / E, ...), so a derivative only moves
    exponent rows.
    """

    __slots__ = ()

    def __init__(self, mats, scalars):
        """sum_k mats[k] scalars[k], for scalar expressions or numbers."""
        mats = np.asarray(mats, dtype=complex)
        scalars = [x if isinstance(x, Expr) else x * ONE for x in scalars]
        if mats.ndim != 3 or len(mats) != len(scalars):
            raise ValueError("expected one d x d matrix per scalar")
        super().__init__(
            np.concatenate([x.exps for x in scalars]),
            np.concatenate([x.coeffs[:, None, None] * mat for x, mat in zip(scalars, mats)]),
        )

    @staticmethod
    def constant(mat) -> "Coefficient":
        return Coefficient([mat], [ONE])

    @staticmethod
    def scalar(expr, dim: int) -> "Coefficient":
        """expr times the identity: its rows, each with a nonzero matrix."""
        expr = expr if isinstance(expr, Expr) else expr * ONE
        return Coefficient._new(expr.exps, expr.coeffs[:, None, None] * np.eye(dim))

    @property
    def mats(self) -> np.ndarray:
        return self.coeffs

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]

    def scale(self, factor) -> "Coefficient":
        """factor times self, for a scalar expression or a number."""
        return self * factor

    def lmul(self, mat) -> "Coefficient":
        """mat @ self for a constant matrix mat."""
        return self.from_rows(self.exps, mat @ self.coeffs)

    def dagger(self) -> "Coefficient":
        """The Hermitian adjoint; every variable is real."""
        return self._new(self.exps, self.coeffs.conj().transpose(0, 2, 1))

    def __matmul__(self, other: "Coefficient") -> "Coefficient":
        """The matrix product self other, its equal rows merged."""
        return Coefficient.from_rows(*_product_rows(self, other))


# ---------------------------------------------------------------------------
# the operator type


class MomentumOperator:
    """Sum over derivative multi-indices alpha of a Coefficient times
    d^alpha/dp^alpha.  Equal and hashed by identity."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict):
        self.dim = dim
        self.terms = terms  # Index -> Coefficient

    @staticmethod
    def from_matrix(coeff: Coefficient) -> "MomentumOperator":
        """The multiplication operator by one coefficient."""
        return MomentumOperator(coeff.dim, {ZERO_INDEX: coeff})

    @staticmethod
    def scalar(expr, dim: int) -> "MomentumOperator":
        return MomentumOperator.from_matrix(Coefficient.scalar(expr, dim))

    @staticmethod
    def momentum(a: int, dim: int) -> "MomentumOperator":
        return MomentumOperator.scalar(MOMENTA[a - 1], dim)


# ---------------------------------------------------------------------------
# the exact commutator


def _product_rows(a: Coefficient, b: Coefficient):
    """The unmerged rows of the matrix product a b: the outer sum of the
    exponent rows and the product of every pair of matrices."""
    exps = (a.exps[:, None] + b.exps[None]).reshape(-1, a.exps.shape[1])
    mats = np.matmul(a.mats[:, None], b.mats[None]).reshape(-1, a.dim, a.dim)
    return exps, mats


def commutator(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    """AB - BA of order <= 1 operators, exactly:

        [A, B] = sum A_alpha B_beta d^(alpha+beta)
                 + sum_{|alpha|=1} A_alpha (d_alpha B_beta) d^beta - (A <-> B),

    every row of one multi-index merged once.  Multi-indices whose rows all
    cancel are dropped.  Raises ValueError on an input of order > 1.
    """
    if any(index_order(alpha) > 1 for op in (a, b) for alpha in op.terms):
        raise ValueError("the commutator takes operators of order <= 1")
    rows: dict = {}  # multi-index -> [(exps, mats)]
    for sign, (x, y) in ((1, (a, b)), (-1, (b, a))):
        for alpha, xc in x.terms.items():
            for beta, yc in y.terms.items():
                products = [(index_add(alpha, beta), yc)]
                if index_order(alpha) == 1:
                    products.append((beta, yc.diff(MOMENTUM_VARS[alpha.index(1)])))
                for index, right in products:
                    exps, mats = _product_rows(xc, right)
                    rows.setdefault(index, []).append((exps, sign * mats))
    terms = {
        index: Coefficient.from_rows(*map(np.concatenate, zip(*parts)))
        for index, parts in rows.items()
    }
    return MomentumOperator(a.dim, {index: c for index, c in terms.items() if len(c.exps)})
