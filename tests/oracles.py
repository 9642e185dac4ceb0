"""Symbolic operator algebra that the tests hold the numeric path to.

The package builds every generator in closed form and computes with it
numerically (`eval_operator`, `bracket_eval`, the monomial constraint system).
This module is the independent reference for those numbers: operator
sums and scalings, the position operator, the full Leibniz-rule composition
(coefficients multiplied sum by sum), symbolic commutators, formal adjoints,
the substitution-flag conjugation R g R^-1 and per-multi-index comparison of
operators at sample points.

Cancellations (for example the second-order pieces of a commutator of two
first-order operators) are detected numerically: after every composition the
coefficient matrices are probed at a fixed set of generic points and terms
that vanish there are dropped.  The derivative order of any surviving term is
capped at two, which is all the generator algebra ever needs.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from ptclab.expr import (
    Add,
    Const,
    Div,
    Energy,
    IntPow,
    Mul,
    Sqrt,
    Var,
    add,
    div,
    intpow,
    mul,
)
from ptclab.operators import Coefficient, FlagTransform, MomentumOperator, index_add, index_order
from ptclab.sampling import env_arrays, sample_points

MAX_ORDER = 2
PRUNE_TOL = 1e-10
I_UNIT = Const(1j)

# Generic probe points used to decide whether a coefficient matrix vanishes
# identically.  Times are nonzero so t-dependent terms cannot hide.
_PRUNE_ENV = env_arrays(
    sample_points(count=5, seed=0x0ACE, masses=(1.0, 1.7), times=(0.3, 0.7))
)


class OperatorOrderError(ValueError):
    """Raised when a composition leaves a genuine term of order > 2."""


def _subindices(alpha):
    return product(range(alpha[0] + 1), range(alpha[1] + 1), range(alpha[2] + 1))


def _multi_binom(alpha, gamma) -> int:
    return (
        math.comb(alpha[0], gamma[0])
        * math.comb(alpha[1], gamma[1])
        * math.comb(alpha[2], gamma[2])
    )


# ---------------------------------------------------------------------------
# operator arithmetic


def zero(dim: int) -> MomentumOperator:
    return MomentumOperator(dim, {})


def identity(dim: int) -> MomentumOperator:
    return MomentumOperator.scalar(1, dim)


def position(a: int, dim: int) -> MomentumOperator:
    """x_a in momentum space: i d/dp_a with identity matrix coefficient."""
    alpha = tuple(1 if k == a - 1 else 0 for k in range(3))
    return MomentumOperator(dim, {alpha: Coefficient.scalar(I_UNIT, dim)})


def order(op: MomentumOperator) -> int:
    return max((index_order(a) for a in op.terms), default=0)


def plus(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    terms = dict(a.terms)
    for alpha, c in b.terms.items():
        terms[alpha] = terms[alpha] + c if alpha in terms else c
    return MomentumOperator(a.dim, terms)


def scaled(op: MomentumOperator, factor) -> MomentumOperator:
    return MomentumOperator(op.dim, {a: c.scale(factor) for a, c in op.terms.items()})


def minus(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    return plus(a, scaled(b, -1))


def coefficient_product(a: Coefficient, b: Coefficient) -> Coefficient:
    """(sum_k A_k a_k)(sum_l B_l b_l) = sum_kl (A_k B_l)(a_k b_l), without the
    terms whose matrix or scalar is zero."""
    mats = np.einsum("kij,ljm->klim", a.mats, b.mats).reshape(-1, a.dim, a.dim)
    scalars = [mul(x, y) for x in a.scalars for y in b.scalars]
    keep = [
        k for k, x in enumerate(scalars)
        if mats[k].any() and not (isinstance(x, Const) and x.value == 0)
    ]
    return Coefficient(mats[keep], [scalars[k] for k in keep])


# ---------------------------------------------------------------------------
# substitution and conjugation of scalar expressions

_BINARY = {Add: add, Mul: mul, Div: div}


def mapped(expr, signs: dict, conj: bool):
    """Substitute var -> sign * var and, if conj, conjugate every constant.

    All variables are real and E is even under every sign flip, so this is
    the substituted (and for conj the complex-conjugated) expression.
    Unchanged subtrees are returned as they are.
    """
    if isinstance(expr, Const):
        if conj and expr.value.imag != 0.0:
            return Const(expr.value.conjugate())
        return expr
    if isinstance(expr, Var):
        return mul(-1, expr) if signs.get(expr.name, 1) == -1 else expr
    if isinstance(expr, Energy):
        return expr
    if type(expr) in _BINARY:
        a, b = mapped(expr.a, signs, conj), mapped(expr.b, signs, conj)
        if a is expr.a and b is expr.b:
            return expr
        return _BINARY[type(expr)](a, b)
    if isinstance(expr, IntPow):
        base = mapped(expr.base, signs, conj)
        return expr if base is expr.base else intpow(base, expr.n)
    if isinstance(expr, Sqrt):
        arg = mapped(expr.arg, signs, conj)
        return expr if arg is expr.arg else Sqrt(arg)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def conjugated(expr):
    """Complex conjugate of an expression in real variables."""
    return mapped(expr, {}, True)


def dagger(c: Coefficient) -> Coefficient:
    """Hermitian adjoint of a coefficient in real variables."""
    return Coefficient(c.mats.conj().transpose(0, 2, 1), [conjugated(x) for x in c.scalars])


def var_signs(f: FlagTransform) -> dict:
    """The variable sign flips of a substitution map, for `mapped`."""
    signs = {}
    if f.eta_p == -1:
        signs.update({"p1": -1, "p2": -1, "p3": -1})
    if f.eta_t == -1:
        signs["t"] = -1
    if f.eta_m == -1:
        signs["m"] = -1
    return signs


# ---------------------------------------------------------------------------
# composition, brackets, flags


def _prune(raw: dict) -> dict:
    memo = {}
    kept = {}
    for alpha, c in raw.items():
        if np.max(np.abs(c.eval(_PRUNE_ENV, memo))) >= PRUNE_TOL:
            kept[alpha] = c
    return kept


def _check_order(raw: dict):
    for alpha in raw:
        if index_order(alpha) > MAX_ORDER:
            raise OperatorOrderError(
                f"term of derivative order {index_order(alpha)} survives; "
                f"orders above {MAX_ORDER} are not supported"
            )


def _compose_raw(a: MomentumOperator, b: MomentumOperator) -> dict:
    out: dict = {}
    diff_cache: dict = {}
    for alpha, ac in a.terms.items():
        for beta, bc in b.terms.items():
            for gamma in _subindices(alpha):
                delta = (alpha[0] - gamma[0], alpha[1] - gamma[1], alpha[2] - gamma[2])
                key = (id(bc), delta)
                dc = diff_cache.get(key)
                if dc is None:
                    dc = bc
                    for k, reps in enumerate(delta):
                        for _ in range(reps):
                            dc = dc.diff(f"p{k + 1}")
                    diff_cache[key] = dc
                coeff = _multi_binom(alpha, gamma)
                contrib = coefficient_product(ac, dc)
                if coeff != 1:
                    contrib = contrib.scale(coeff)
                target = index_add(gamma, beta)
                out[target] = out[target] + contrib if target in out else contrib
    return out


def compose(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    """Operator product with the full product rule."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    raw = _prune(_compose_raw(a, b))
    _check_order(raw)
    return MomentumOperator(a.dim, raw)


def bracket(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    """AB - BA; cancellation of the top-order pieces is detected numerically.

    The numeric bracket_eval is what the package computes with; this symbolic
    form is the reference the tests hold it to.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    raw = _compose_raw(a, b)
    for alpha, c in _compose_raw(b, a).items():
        c = c.scale(-1)
        raw[alpha] = raw[alpha] + c if alpha in raw else c
    raw = _prune(raw)
    _check_order(raw)
    return MomentumOperator(a.dim, raw)


def apply_flags(g: MomentumOperator, f: FlagTransform) -> MomentumOperator:
    """Conjugate by the substitution map R: returns R g R^-1.

    Coefficients get their variables sign-flipped (E is structurally even),
    each derivative picks up a factor eta_p, and for antilinear R the
    matrices and every complex constant are conjugated.
    """
    signs = var_signs(f)
    terms = {}
    for alpha, c in g.terms.items():
        new = Coefficient(
            c.mats.conj() if f.conj else c.mats,
            [mapped(x, signs, f.conj) for x in c.scalars],
        )
        if f.eta_p == -1 and index_order(alpha) % 2 == 1:
            new = new.scale(-1)
        terms[alpha] = new
    return MomentumOperator(g.dim, terms)


def adjoint(g: MomentumOperator) -> MomentumOperator:
    """Formal adjoint: (M d^alpha)^dagger = (-1)^|alpha| d^alpha M^dagger."""
    raw: dict = {}
    for alpha, c in g.terms.items():
        dop = MomentumOperator(g.dim, {alpha: Coefficient.scalar(1, g.dim)})
        contrib = _compose_raw(dop, MomentumOperator.from_matrix(dagger(c)))
        sign = -1 if index_order(alpha) % 2 else 1
        for idx, m in contrib.items():
            m = m.scale(sign) if sign == -1 else m
            raw[idx] = raw[idx] + m if idx in raw else m
    raw = _prune(raw)
    _check_order(raw)
    return MomentumOperator(g.dim, raw)


def equal_at(a: MomentumOperator, b: MomentumOperator, points, tol: float = 1e-9):
    """Compare coefficient matrices per multi-index at every sample point.

    Returns (equal, max_residual).
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    env = env_arrays(points)
    memo = {}
    residual = 0.0
    for alpha in set(a.terms) | set(b.terms):
        va, vb = (op.terms[alpha].eval(env, memo) if alpha in op.terms else 0 for op in (a, b))
        residual = max(residual, float(np.max(np.abs(va - vb))))
    return residual < tol, residual
