"""Momentum-space linear operators with matrix coefficients.

An operator is a finite sum of terms (matrix of scalar expressions) times a
partial-derivative multi-index in (p1, p2, p3).  The package builds every
generator in closed form from these terms and the matrix helpers below, and
computes with them numerically: `eval_operator` evaluates the coefficients
(and their p-derivatives) over a batch of sample points, and
`bracket_eval` forms commutators of order <= 1 operators from those values.
`FlagTransform` is the signature of a discrete substitution map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import Const, Var, as_expr, add, mul, I_UNIT, ZERO

Index = tuple  # (n1, n2, n3) derivative multi-index

ZERO_INDEX = (0, 0, 0)


def index_add(a: Index, b: Index) -> Index:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def index_order(a: Index) -> int:
    return a[0] + a[1] + a[2]


# ---------------------------------------------------------------------------
# matrices of expressions


def expr_matrix(data) -> np.ndarray:
    """Coerce a nested sequence or complex ndarray to an object matrix of Expr."""
    raw = np.asarray(data, dtype=object)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError("expected a square matrix")
    out = np.empty(raw.shape, dtype=object)
    for i in range(raw.shape[0]):
        for j in range(raw.shape[1]):
            out[i, j] = as_expr(raw[i, j])
    return out


def const_matrix(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat)
    out = np.empty(mat.shape, dtype=object)
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            out[i, j] = Const(complex(mat[i, j]))
    return out


def identity_matrix(dim: int) -> np.ndarray:
    out = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = Const(1) if i == j else ZERO
    return out


def mat_add(a, b):
    d = a.shape[0]
    out = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            out[i, j] = add(a[i, j], b[i, j])
    return out


def mat_scale(a, factor):
    factor = as_expr(factor)
    d = a.shape[0]
    out = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            out[i, j] = mul(factor, a[i, j])
    return out


def mat_mul(a, b):
    d = a.shape[0]
    out = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            acc = ZERO
            for k in range(d):
                acc = add(acc, mul(a[i, k], b[k, j]))
            out[i, j] = acc
    return out


def linear_combination(terms) -> np.ndarray:
    """Sum_k const(M_k) * x_k over (constant matrix M_k, scalar x_k) pairs,
    accumulated left to right."""
    acc = None
    for mat, factor in terms:
        term = mat_scale(const_matrix(mat), factor)
        acc = term if acc is None else mat_add(acc, term)
    return acc


def mat_diff(a, var: str):
    d = a.shape[0]
    out = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            out[i, j] = a[i, j].diff(var)
    return out


def mat_map(a, fn):
    d = a.shape[0]
    out = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            out[i, j] = fn(a[i, j])
    return out


def mat_eval(a, env, memo=None) -> np.ndarray:
    """Evaluate an Expr matrix; returns shape (n, d, d) for array envs."""
    if memo is None:
        memo = {}
    d = a.shape[0]
    shape = np.shape(env["p1"])
    out = np.empty(shape + (d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[..., i, j] = a[i, j].eval(env, memo)
    return out


# ---------------------------------------------------------------------------
# flag transforms (momentum-space shadow of the discrete substitutions)


@dataclass(frozen=True)
class FlagTransform:
    """Signature of a substitution map: p -> eta_p p, t -> eta_t t, m -> eta_m m,
    with optional complex conjugation (antilinear case)."""

    eta_p: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False


# ---------------------------------------------------------------------------
# the operator type


@dataclass(frozen=True, eq=False)
class MomentumOperator:
    """Sum over derivative multi-indices of (Expr matrix) * d^alpha/dp^alpha."""

    dim: int
    terms: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return max((index_order(a) for a in self.terms), default=0)

    def term(self, alpha: Index) -> np.ndarray:
        try:
            return self.terms[tuple(alpha)]
        except KeyError:
            d = self.dim
            out = np.empty((d, d), dtype=object)
            out[:, :] = ZERO
            return out

    def __add__(self, other: "MomentumOperator") -> "MomentumOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for alpha, mat in other.terms.items():
            terms[alpha] = mat_add(terms[alpha], mat) if alpha in terms else mat
        return MomentumOperator(self.dim, terms)

    def __sub__(self, other: "MomentumOperator") -> "MomentumOperator":
        return self + other.scale(-1)

    def __neg__(self) -> "MomentumOperator":
        return self.scale(-1)

    def scale(self, factor) -> "MomentumOperator":
        factor = as_expr(factor)
        return MomentumOperator(
            self.dim, {a: mat_scale(m, factor) for a, m in self.terms.items()}
        )

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "MomentumOperator":
        return MomentumOperator(dim, {})

    @staticmethod
    def from_matrix(matrix, alpha: Index = ZERO_INDEX) -> "MomentumOperator":
        mat = (
            matrix
            if isinstance(matrix, np.ndarray) and matrix.dtype == object
            else expr_matrix(matrix)
        )
        return MomentumOperator(mat.shape[0], {tuple(alpha): mat})

    @staticmethod
    def identity(dim: int) -> "MomentumOperator":
        return MomentumOperator.from_matrix(identity_matrix(dim))

    @staticmethod
    def scalar(expr, dim: int) -> "MomentumOperator":
        return MomentumOperator.from_matrix(mat_scale(identity_matrix(dim), expr))

    @staticmethod
    def position(a: int, dim: int) -> "MomentumOperator":
        """x_a in momentum space: i d/dp_a with identity matrix coefficient."""
        alpha = tuple(1 if k == a - 1 else 0 for k in range(3))
        return MomentumOperator(
            dim, {alpha: mat_scale(identity_matrix(dim), I_UNIT)}
        )

    @staticmethod
    def momentum(a: int, dim: int) -> "MomentumOperator":
        return MomentumOperator.scalar(Var(f"p{a}"), dim)


# ---------------------------------------------------------------------------
# fast numeric evaluation of operators and their brackets

@dataclass
class EvaluatedOperator:
    """Coefficient matrices (and their p-derivatives) stacked over samples."""

    dim: int
    coeffs: dict  # Index -> ndarray (n, d, d)
    dcoeffs: dict  # (var 0..2, Index) -> ndarray (n, d, d)


def eval_operator(g: MomentumOperator, env, derivatives: bool = True) -> EvaluatedOperator:
    memo = {}
    coeffs = {alpha: mat_eval(mat, env, memo) for alpha, mat in g.terms.items()}
    dcoeffs = {}
    if derivatives:
        for alpha, mat in g.terms.items():
            for k in range(3):
                dmat = mat_diff(mat, f"p{k + 1}")
                dcoeffs[(k, alpha)] = mat_eval(dmat, env, memo)
    return EvaluatedOperator(g.dim, coeffs, dcoeffs)


def compose_eval(a: EvaluatedOperator, b: EvaluatedOperator) -> dict:
    """Numeric composition for operators of derivative order <= 1."""
    out: dict = {}

    def acc(idx, val):
        if idx in out:
            out[idx] = out[idx] + val
        else:
            out[idx] = val

    for alpha, amat in a.coeffs.items():
        o = index_order(alpha)
        if o > 1:
            raise ValueError("numeric composition supports order <= 1 inputs")
        for beta, bmat in b.coeffs.items():
            acc(index_add(alpha, beta), amat @ bmat)
        if o == 1:
            var = alpha.index(1)
            for beta in b.coeffs:
                acc(beta, amat @ b.dcoeffs[(var, beta)])
    return out


def bracket_eval(a: EvaluatedOperator, b: EvaluatedOperator) -> dict:
    """Numeric commutator AB - BA, per multi-index, of order <= 1 inputs."""
    out = compose_eval(a, b)
    for alpha, mat in compose_eval(b, a).items():
        out[alpha] = out[alpha] - mat if alpha in out else -mat
    return out


def max_coeff_residual(lhs: dict, rhs: dict) -> float:
    residual = 0.0
    for alpha in set(lhs) | set(rhs):
        l = lhs.get(alpha)
        r = rhs.get(alpha)
        if l is None:
            residual = max(residual, float(np.max(np.abs(r))))
        elif r is None:
            residual = max(residual, float(np.max(np.abs(l))))
        else:
            residual = max(residual, float(np.max(np.abs(l - r))))
    return residual
