"""Momentum-space linear operators with matrix coefficients.

An operator is a finite sum of coefficients times partial-derivative
multi-indices in (p1, p2, p3).  A coefficient is a `Coefficient`: a stack of
constant matrices M_k and a tuple of scalar expressions x_k, meaning
sum_k M_k x_k.  The package builds every generator in closed form from sums,
scalar scalings and constant left factors of coefficients, and computes with
them numerically: `eval_operator` evaluates the coefficients (and their
p-derivatives) over a batch of sample points, and `bracket_eval` forms
commutators of order <= 1 operators from those values.  `Coefficient.on_shell`
expands a coefficient into constant matrices times distinct monomials, in
the normal form in which it vanishes on the mass shell iff every matrix is
zero.  `FlagTransform` is the signature of a discrete substitution map.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import LAURENT_VARS, ONE, Const, Var, as_expr, mul, on_shell

Index = tuple  # (n1, n2, n3) derivative multi-index

ZERO_INDEX = (0, 0, 0)


def index_add(a: Index, b: Index) -> Index:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def index_order(a: Index) -> int:
    return a[0] + a[1] + a[2]


# ---------------------------------------------------------------------------
# coefficients


class Coefficient:
    """sum_k M_k x_k: constant d x d matrices M_k times scalar expressions x_k.

    Every generator coefficient has this form (Gamma0 Gamma_k p_k, Gamma0 E,
    the boost spin Gamma0 S_ab p_b / E, ...), so a derivative only touches the
    K scalars and an evaluation is K memoised scalar evaluations and one
    contraction against the matrices.
    """

    __slots__ = ("mats", "scalars")

    def __init__(self, mats, scalars):
        self.mats = np.asarray(mats, dtype=complex)  # (K, d, d)
        self.scalars = tuple(as_expr(x) for x in scalars)
        if self.mats.ndim != 3 or self.mats.shape[0] != len(self.scalars):
            raise ValueError("expected one d x d matrix per scalar")

    @staticmethod
    def constant(mat) -> "Coefficient":
        return Coefficient([mat], [ONE])

    @staticmethod
    def scalar(expr, dim: int) -> "Coefficient":
        """expr times the identity."""
        return Coefficient([np.eye(dim)], [expr])

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    def __add__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(
            np.concatenate([self.mats, other.mats]), self.scalars + other.scalars
        )

    def scale(self, factor) -> "Coefficient":
        return Coefficient(self.mats, [mul(factor, x) for x in self.scalars])

    def lmul(self, mat) -> "Coefficient":
        """mat @ self for a constant matrix mat."""
        return Coefficient(mat @ self.mats, self.scalars)

    def diff(self, var: str) -> "Coefficient":
        """d/dvar, without the terms whose scalar derivative is the constant 0."""
        terms = [(k, x.diff(var)) for k, x in enumerate(self.scalars)]
        terms = [(k, dx) for k, dx in terms if not (isinstance(dx, Const) and dx.value == 0)]
        return Coefficient(self.mats[[k for k, _ in terms]], [dx for _, dx in terms])

    def values(self, env, memo) -> np.ndarray:
        """The K scalars over a batch of samples, shape (n, K)."""
        out = np.empty(np.shape(env["p1"]) + (len(self.scalars),), dtype=complex)
        for k, x in enumerate(self.scalars):
            out[..., k] = x.eval(env, memo)
        return out

    def eval(self, env, memo=None) -> np.ndarray:
        """Shape (n, d, d) for array envs, (d, d) for scalar ones."""
        if memo is None:
            memo = {}
        return np.einsum("...k,kij->...ij", self.values(env, memo), self.mats)

    def on_shell(self, memo=None):
        """(shift, exps, mats): E^shift times this coefficient is
        sum_b mats[b] x^b on the mass shell, over distinct monomials x^b with
        exponent rows exps (B, 6), ordered as LAURENT_VARS and sorted, in which
        E appears to the power 0 or 1.  shift is the smallest even power of E
        that clears the scalars' negative powers of E (`expr.on_shell`), and
        zero matrices are dropped, so the coefficient vanishes identically on
        the mass shell iff B = 0.  `memo` is shared with `Expr.laurent`."""
        polys = [x.laurent(memo) for x in self.scalars]
        energy = LAURENT_VARS.index("E")
        lowest = min((exps[energy] for poly in polys for exps in poly), default=0)
        shift = max(0, -2 * (lowest // 2))
        sums = {}
        for mat, poly in zip(self.mats, polys):
            for exps, c in on_shell(poly, shift).items():
                sums[exps] = sums[exps] + c * mat if exps in sums else c * mat
        keys = sorted(k for k, mat in sums.items() if mat.any())
        exps = np.array(keys, dtype=int).reshape(-1, len(LAURENT_VARS))
        mats = np.array([sums[k] for k in keys], dtype=complex).reshape(-1, self.dim, self.dim)
        return shift, exps, mats


# ---------------------------------------------------------------------------
# flag transforms (momentum-space shadow of the discrete substitutions)


class FlagTransform(NamedTuple):
    """Signature of a substitution map: p -> eta_p p, t -> eta_t t, m -> eta_m m,
    with optional complex conjugation (antilinear case)."""

    eta_p: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False


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
        return MomentumOperator.scalar(Var(f"p{a}"), dim)


# ---------------------------------------------------------------------------
# fast numeric evaluation of operators and their brackets

class EvaluatedOperator(NamedTuple):
    """Coefficient matrices (and their p-derivatives) stacked over samples."""

    dim: int
    coeffs: dict  # Index -> ndarray (n, d, d)
    dcoeffs: dict  # (var 0..2, Index) -> ndarray (n, d, d)


def eval_operator(g: MomentumOperator, env, derivatives: bool = True) -> EvaluatedOperator:
    memo = {}
    coeffs = {alpha: c.eval(env, memo) for alpha, c in g.terms.items()}
    dcoeffs = {}
    if derivatives:
        for alpha, c in g.terms.items():
            for k in range(3):
                dcoeffs[(k, alpha)] = c.diff(f"p{k + 1}").eval(env, memo)
    return EvaluatedOperator(g.dim, coeffs, dcoeffs)


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
