"""Symbolic scalars over momentum, mass, time and the on-shell energy.

Expressions are immutable trees in the five variables p1, p2, p3, m, t, with
a dedicated leaf for the positive energy root E = sqrt(p1^2+p2^2+p3^2+m^2).
Keeping E atomic gives the chain rule dE/dp_a = p_a/E, dE/dm = m/E and makes
E structurally even under sign flips of the momenta or of the mass, which is
exactly what the momentum-space reflection machinery downstream relies on.

Evaluation accepts plain numbers or numpy arrays, so one tree walk can cover
a whole batch of sample points.  Nodes are shared aggressively, never
mutated, and evaluation memoises on node identity.
"""

from __future__ import annotations

import numpy as np

VARIABLES = ("p1", "p2", "p3", "m", "t")
MOMENTUM_VARS = ("p1", "p2", "p3")


class Expr:
    """Base class for scalar expression nodes."""

    __slots__ = ()

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def conjugated(self) -> "Expr":
        raise NotImplementedError

    def mapped(self, var_signs: dict, conj: bool) -> "Expr":
        """Substitute var -> sign * var and optionally conjugate constants."""
        raise NotImplementedError

    def _eval(self, env, memo):
        raise NotImplementedError

    def eval(self, env, memo=None):
        """Evaluate with an environment of numbers or numpy arrays.

        `env` must provide p1, p2, p3, m, t and the precomputed energy E.
        The memo is keyed by node identity; keying on the node itself (not
        its id) keeps every memoised node alive for the memo's lifetime.
        """
        if memo is None:
            memo = {}
        try:
            return memo[self]
        except KeyError:
            pass
        value = self._eval(env, memo)
        memo[self] = value
        return value

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(-1, other))

    def __rsub__(self, other):
        return add(other, mul(-1, self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(-1, self)

    def __pow__(self, n):
        return intpow(self, n)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def diff(self, var):
        return ZERO

    def conjugated(self):
        if self.value.imag == 0.0:
            return self
        return Const(self.value.conjugate())

    def mapped(self, var_signs, conj):
        return self.conjugated() if conj else self

    def _eval(self, env, memo):
        return self.value

    def __repr__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}, expected one of {VARIABLES}")
        self.name = name

    def diff(self, var):
        return ONE if var == self.name else ZERO

    def conjugated(self):
        return self

    def mapped(self, var_signs, conj):
        if var_signs.get(self.name, 1) == -1:
            return mul(-1, self)
        return self

    def _eval(self, env, memo):
        return env[self.name]

    def __repr__(self):
        return self.name


class Energy(Expr):
    """The positive root E = sqrt(p.p + m^2), even in p and in m."""

    __slots__ = ()

    def diff(self, var):
        if var in MOMENTUM_VARS or var == "m":
            return div(Var(var), self)
        return ZERO

    def conjugated(self):
        return self

    def mapped(self, var_signs, conj):
        # even under every sign flip by construction
        return self

    def _eval(self, env, memo):
        return env["E"]

    def __repr__(self):
        return "E"


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def conjugated(self):
        return add(self.a.conjugated(), self.b.conjugated())

    def mapped(self, var_signs, conj):
        a = self.a.mapped(var_signs, conj)
        b = self.b.mapped(var_signs, conj)
        if a is self.a and b is self.b:
            return self
        return add(a, b)

    def _eval(self, env, memo):
        return self.a.eval(env, memo) + self.b.eval(env, memo)

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def conjugated(self):
        return mul(self.a.conjugated(), self.b.conjugated())

    def mapped(self, var_signs, conj):
        a = self.a.mapped(var_signs, conj)
        b = self.b.mapped(var_signs, conj)
        if a is self.a and b is self.b:
            return self
        return mul(a, b)

    def _eval(self, env, memo):
        return self.a.eval(env, memo) * self.b.eval(env, memo)

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Div(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        num = add(mul(da, self.b), mul(-1, mul(self.a, db)))
        return div(num, intpow(self.b, 2))

    def conjugated(self):
        return div(self.a.conjugated(), self.b.conjugated())

    def mapped(self, var_signs, conj):
        a = self.a.mapped(var_signs, conj)
        b = self.b.mapped(var_signs, conj)
        if a is self.a and b is self.b:
            return self
        return div(a, b)

    def _eval(self, env, memo):
        return self.a.eval(env, memo) / self.b.eval(env, memo)

    def __repr__(self):
        return f"({self.a!r} / {self.b!r})"


class IntPow(Expr):
    __slots__ = ("base", "n")

    def __init__(self, base, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        self.base = base
        self.n = n

    def diff(self, var):
        db = self.base.diff(var)
        return mul(mul(self.n, intpow(self.base, self.n - 1)), db)

    def conjugated(self):
        return intpow(self.base.conjugated(), self.n)

    def mapped(self, var_signs, conj):
        base = self.base.mapped(var_signs, conj)
        if base is self.base:
            return self
        return intpow(base, self.n)

    def _eval(self, env, memo):
        return self.base.eval(env, memo) ** self.n

    def __repr__(self):
        return f"({self.base!r} ** {self.n})"


class Sqrt(Expr):
    """Square root of a subexpression (used by the canonical-form connector)."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def diff(self, var):
        return div(self.arg.diff(var), mul(2, self))

    def conjugated(self):
        arg = self.arg.conjugated()
        if arg is self.arg:
            return self
        return Sqrt(arg)

    def mapped(self, var_signs, conj):
        arg = self.arg.mapped(var_signs, conj)
        if arg is self.arg:
            return self
        return Sqrt(arg)

    def _eval(self, env, memo):
        return np.sqrt(self.arg.eval(env, memo))

    def __repr__(self):
        return f"sqrt({self.arg!r})"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


def add(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def mul(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const):
        if a.value == 0:
            return ZERO
        if a.value == 1:
            return b
        if isinstance(b, Const):
            return Const(a.value * b.value)
    if isinstance(b, Const):
        if b.value == 0:
            return ZERO
        if b.value == 1:
            return a
    return Mul(a, b)


def div(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("division by constant zero")
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return Const(a.value / b.value)
    return Div(a, b)


def intpow(base, n: int) -> Expr:
    base = as_expr(base)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** n)
    return IntPow(base, n)


def sqrt(arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Const):
        return Const(complex(np.sqrt(arg.value)))
    return Sqrt(arg)


ZERO = Const(0)
ONE = Const(1)
I_UNIT = Const(1j)
E = Energy()
P1, P2, P3 = Var("p1"), Var("p2"), Var("p3")
MASS = Var("m")
TIME = Var("t")
MOMENTA = (P1, P2, P3)
