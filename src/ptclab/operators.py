"""Momentum-space linear operators with matrix coefficients.

An operator is a finite sum of coefficients times partial-derivative
multi-indices in (p1, p2, p3).  A coefficient is a `Coefficient`: a Laurent
polynomial of `expr` whose coefficients are constant matrices, sum_b M_b x^b
over distinct monomials x^b, so it shares the scalars' sums, products,
derivatives, evaluation and mass-shell normal form (`Expr.on_shell`).  The
package builds every generator in closed form from sums, scalar scalings and
constant left factors of coefficients, and computes with them numerically:
`eval_operator` evaluates the coefficients and their p-derivatives over a
batch of sample points, and `bracket_eval` forms commutators of order <= 1
operators from those values.  `FlagTransform` is the signature of a discrete
substitution map.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import MOMENTA, MOMENTUM_VARS, ONE, Expr, evaluate
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
    exponent rows and an evaluation is one batch of monomials and one
    contraction against the matrices.
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
# fast numeric evaluation of operators and their brackets

class EvaluatedOperator(NamedTuple):
    """Coefficient matrices (and their p-derivatives) stacked over samples."""

    dim: int
    coeffs: dict  # Index -> ndarray (n, d, d)
    dcoeffs: dict  # (var 0..2, Index) -> ndarray (n, d, d)


def eval_operator(g: MomentumOperator, env, derivatives: bool = True) -> EvaluatedOperator:
    """g's coefficients and, with derivatives, their p-derivatives over env,
    from one evaluation of all their monomials."""
    keys = list(g.terms)
    exprs = list(g.terms.values())
    if derivatives:
        for alpha, c in g.terms.items():
            keys += [(k, alpha) for k in range(3)]
            exprs += [c.diff(var) for var in MOMENTUM_VARS]
    values = dict(zip(keys, evaluate(exprs, env)))
    coeffs = {alpha: values.pop(alpha) for alpha in g.terms}
    return EvaluatedOperator(g.dim, coeffs, values)


def compose_eval(a: EvaluatedOperator, b: EvaluatedOperator) -> dict:
    """Numeric composition for operators of derivative order <= 1."""
    out: dict = {}
    for alpha, amat in a.coeffs.items():
        o = index_order(alpha)
        if o > 1:
            raise ValueError("numeric composition supports order <= 1 inputs")
        for beta, bmat in b.coeffs.items():
            idx = index_add(alpha, beta)
            out[idx] = out.get(idx, 0) + amat @ bmat
        if o == 1:
            var = alpha.index(1)
            for beta in b.coeffs:
                out[beta] = out.get(beta, 0) + amat @ b.dcoeffs[(var, beta)]
    return out


def bracket_eval(a: EvaluatedOperator, b: EvaluatedOperator) -> dict:
    """Numeric commutator AB - BA, per multi-index, of order <= 1 inputs."""
    out = compose_eval(a, b)
    for alpha, mat in compose_eval(b, a).items():
        out[alpha] = out.get(alpha, 0) - mat
    return out


def max_coeff_residual(lhs: dict, rhs: dict) -> float:
    residual = 0.0
    for alpha in set(lhs) | set(rhs):
        diff = lhs.get(alpha, 0) - rhs.get(alpha, 0)
        residual = max(residual, float(np.max(np.abs(diff))))
    return residual
