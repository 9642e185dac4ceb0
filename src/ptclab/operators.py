"""Momentum-space linear operators with matrix coefficients.

An operator is a finite sum of coefficients times partial-derivative
multi-indices in (p1, p2, p3).  A coefficient is a `Coefficient`: a Laurent
polynomial of `expr` whose coefficients are constant matrices, sum_b M_b x^b
over distinct monomials x^b, so it shares the scalars' sums, products,
derivatives and mass-shell normal form (`Expr.on_shell`), and `a @ b` is
their matrix product; its matrices are held sparse and read dense from
`mats`.  The package builds every generator in closed form from sums,
scalar scalings and constant left factors of coefficients.  `commutator`
forms the bracket of two order <= 1 operators exactly, as another operator
of the same kind, so every identity between generators is decided on the
normal form of its coefficients.  `FlagTransform` is the signature of a
discrete substitution map.
"""

from __future__ import annotations

from operator import add

from .clifford import dense, eye, mat_add, mat_dagger, mat_mul, mat_scale, sparse
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
    """sum_b M_b x^b: a constant d x d matrix, sparse, per distinct monomial
    row of `exps`.

    Every generator coefficient has this form (Gamma0 Gamma_k p_k, Gamma0 E,
    the boost spin Gamma0 S_ab p_b / E, ...), so a derivative only moves
    exponent rows.
    """

    __slots__ = ("dim",)
    _add = staticmethod(mat_add)
    _scale = staticmethod(mat_scale)
    _matrix = True

    def __init__(self, mats, scalars):
        """sum_k mats[k] scalars[k], for scalar expressions or numbers."""
        if not len(mats) or len(mats) != len(scalars):
            raise ValueError("expected one d x d matrix per scalar")
        self.dim = len(mats[0])
        self.terms = self._collect(
            (row, mat_scale(sparse(mat), c))
            for mat, x in zip(mats, scalars)
            for row, c in (x if isinstance(x, Expr) else x * ONE).terms.items()
        )

    @classmethod
    def from_rows(cls, exps, mats, dim: int = None) -> "Coefficient":
        """sum_k mats[k] x^exps[k] for d x d matrices, d = dim or their size."""
        rows = cls._collect((tuple(map(int, row)), sparse(mat)) for row, mat in zip(exps, mats))
        return _coefficient(len(mats[0]) if dim is None else dim, rows)

    def _new(self, terms: dict) -> "Coefficient":
        return _coefficient(self.dim, terms)

    @staticmethod
    def constant(mat) -> "Coefficient":
        return Coefficient([mat], [ONE])

    @staticmethod
    def scalar(expr, dim: int) -> "Coefficient":
        """expr times the identity."""
        return Coefficient([eye(dim)], [expr])

    @property
    def mats(self) -> tuple:
        """The matrices, dense, one per exponent row."""
        return tuple(dense(m, self.dim) for m in self.terms.values())

    coeffs = mats

    def scale(self, factor) -> "Coefficient":
        """factor times self, for a scalar expression or a number."""
        return self * factor

    def lmul(self, mat) -> "Coefficient":
        """mat @ self for a constant matrix mat."""
        left = sparse(mat)
        return self._new(self._collect((row, mat_mul(left, m)) for row, m in self.terms.items()))

    def dagger(self) -> "Coefficient":
        """The Hermitian adjoint; every variable is real."""
        return self._new({row: mat_dagger(m) for row, m in self.terms.items()})

    def __matmul__(self, other: "Coefficient") -> "Coefficient":
        """The matrix product self other, its equal rows merged."""
        return self._new(self._collect(_product_rows(self, other)))


def _coefficient(dim: int, terms: dict) -> Coefficient:
    out = object.__new__(Coefficient)
    out.dim, out.terms = dim, terms
    return out


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
    """The unmerged rows of the matrix product a b: the sum of every pair of
    exponent rows with the product of their matrices."""
    return (
        (tuple(map(add, r, s)), mat_mul(x, y))
        for r, x in a.terms.items()
        for s, y in b.terms.items()
    )


def commutator(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    """AB - BA of order <= 1 operators, exactly:

        [A, B] = sum A_alpha B_beta d^(alpha+beta)
                 + sum_{|alpha|=1} A_alpha (d_alpha B_beta) d^beta - (A <-> B),

    every row of one multi-index merged once.  Multi-indices whose rows all
    cancel are dropped.  Raises ValueError on an input of order > 1.
    """
    if any(index_order(alpha) > 1 for op in (a, b) for alpha in op.terms):
        raise ValueError("the commutator takes operators of order <= 1")
    rows: dict = {}  # multi-index -> [(exponent row, matrix)]
    for sign, (x, y) in ((1, (a, b)), (-1, (b, a))):
        for alpha, xc in x.terms.items():
            for beta, yc in y.terms.items():
                products = [(index_add(alpha, beta), yc)]
                if index_order(alpha) == 1:
                    products.append((beta, yc.diff(MOMENTUM_VARS[alpha.index(1)])))
                for index, right in products:
                    rows.setdefault(index, []).extend(
                        (row, mat_scale(m, sign)) for row, m in _product_rows(xc, right)
                    )
    terms = {index: Coefficient._collect(parts) for index, parts in rows.items()}
    return MomentumOperator(a.dim, {i: _coefficient(a.dim, t) for i, t in terms.items() if t})
