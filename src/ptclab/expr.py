"""Symbolic scalars over momentum, mass, time and the on-shell energy.

Expressions are immutable trees in the five variables p1, p2, p3, m, t, with
a dedicated leaf for the positive energy root E = sqrt(p1^2+p2^2+p3^2+m^2).
Keeping E atomic gives the chain rule dE/dp_a = p_a/E, dE/dm = m/E and makes
E even under sign flips of the momenta or of the mass, so a reflection
acts on a monomial p^a m^beta t^gamma E^k as a sign alone.

A node does three things: `diff` returns its exact derivative as a new tree,
`eval` evaluates it on plain numbers or numpy arrays, so one tree walk
covers a whole batch of sample points, and `laurent` expands it into a
Laurent polynomial in p1, p2, p3, m, t and E.  Nodes are shared
aggressively, never mutated, and evaluation and expansion memoise on node
identity.

A Laurent polynomial is a dict from exponent tuples, ordered as
LAURENT_VARS, to nonzero complex coefficients, with E an independent
variable.  `on_shell` puts one in the normal form in which it vanishes on
the mass shell E^2 = p1^2 + p2^2 + p3^2 + m^2 iff every coefficient is zero,
and `monomials` evaluates exponent tuples over a batch of sample points.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations_with_replacement

import numpy as np

VARIABLES = ("p1", "p2", "p3", "m", "t")
MOMENTUM_VARS = ("p1", "p2", "p3")
LAURENT_VARS = VARIABLES + ("E",)
_ENERGY_AXIS = LAURENT_VARS.index("E")
# E^2 on the mass shell: p1^2 + p2^2 + p3^2 + m^2
_SHELL_VARS = tuple(LAURENT_VARS.index(name) for name in MOMENTUM_VARS + ("m",))


class Expr:
    """Base class for scalar expression nodes."""

    __slots__ = ()

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def _eval(self, env, memo):
        raise NotImplementedError

    def _laurent(self, memo) -> dict:
        raise NotImplementedError

    def laurent(self, memo=None) -> dict:
        """This expression as a Laurent polynomial in LAURENT_VARS, E^2 not
        reduced.  Raises ValueError for a square root or a division by a
        non-monomial.  Memoised on node identity, like `eval`; the two need
        separate memos."""
        if memo is None:
            memo = {}
        try:
            return memo[self]
        except KeyError:
            pass
        value = self._laurent(memo)
        memo[self] = value
        return value

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

    def _eval(self, env, memo):
        return self.value

    def _laurent(self, memo):
        return {_exponent(): self.value} if self.value != 0 else {}

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

    def _eval(self, env, memo):
        return env[self.name]

    def _laurent(self, memo):
        return {_exponent(self.name): 1 + 0j}

    def __repr__(self):
        return self.name


class Energy(Expr):
    """The positive root E = sqrt(p.p + m^2), even in p and in m."""

    __slots__ = ()

    def diff(self, var):
        if var in MOMENTUM_VARS or var == "m":
            return div(Var(var), self)
        return ZERO

    def _eval(self, env, memo):
        return env["E"]

    def _laurent(self, memo):
        return {_exponent("E"): 1 + 0j}

    def __repr__(self):
        return "E"


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def _eval(self, env, memo):
        return self.a.eval(env, memo) + self.b.eval(env, memo)

    def _laurent(self, memo):
        return _merge(chain(self.a.laurent(memo).items(), self.b.laurent(memo).items()))

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def _eval(self, env, memo):
        return self.a.eval(env, memo) * self.b.eval(env, memo)

    def _laurent(self, memo):
        return _times(self.a.laurent(memo), self.b.laurent(memo))

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

    def _eval(self, env, memo):
        return self.a.eval(env, memo) / self.b.eval(env, memo)

    def _laurent(self, memo):
        return _times(self.a.laurent(memo), _inverse(self.b.laurent(memo)))

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

    def _eval(self, env, memo):
        return self.base.eval(env, memo) ** self.n

    def _laurent(self, memo):
        base = self.base.laurent(memo)
        if self.n < 0:
            base = _inverse(base)
        out = {_exponent(): 1 + 0j}
        for _ in range(abs(self.n)):
            out = _times(out, base)
        return out

    def __repr__(self):
        return f"({self.base!r} ** {self.n})"


class Sqrt(Expr):
    """Square root of a subexpression (used by the canonical-form connector)."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def diff(self, var):
        return div(self.arg.diff(var), mul(2, self))

    def _eval(self, env, memo):
        return np.sqrt(self.arg.eval(env, memo))

    def _laurent(self, memo):
        raise ValueError(f"sqrt({self.arg!r}) is not a Laurent polynomial")

    def __repr__(self):
        return f"sqrt({self.arg!r})"


# ---------------------------------------------------------------------------
# Laurent polynomials


def _exponent(name=None) -> tuple:
    """The exponent tuple of one variable, or of the constant 1 for None."""
    return tuple(int(v == name) for v in LAURENT_VARS)


def _merge(terms) -> dict:
    """Sum (exponents, coefficient) terms into a Laurent polynomial."""
    out = {}
    for exps, c in terms:
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c != 0}


def _times(a: dict, b: dict) -> dict:
    return _merge(
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.items()
        for eb, cb in b.items()
    )


def _inverse(poly: dict) -> dict:
    if len(poly) != 1:
        raise ValueError(f"division by a non-monomial {poly!r}")
    ((exps, c),) = poly.items()
    return {tuple(-x for x in exps): 1 / c}


def on_shell(poly: dict, shift: int) -> dict:
    """E^shift * poly with E^2 replaced by p1^2 + p2^2 + p3^2 + m^2, so that
    every power of E left is 0 or 1.  shift must clear every negative power
    of E.

    1 and E are a basis of the rational functions in (p, m, t) extended by
    E, because p1^2 + p2^2 + p3^2 + m^2 is not a square: the result vanishes
    on the mass shell iff it is the zero polynomial.
    """
    terms = []
    for exps, c in poly.items():
        half, odd = divmod(exps[_ENERGY_AXIS] + shift, 2)
        if half < 0:
            raise ValueError(f"E^{shift} does not clear {poly!r}")
        # (p1^2 + p2^2 + p3^2 + m^2)^half by the multinomial theorem
        for chosen in combinations_with_replacement(_SHELL_VARS, half):
            out = list(exps)
            out[_ENERGY_AXIS] = odd
            weight = math.factorial(half)
            for axis, j in Counter(chosen).items():
                out[axis] += 2 * j
                weight //= math.factorial(j)
            terms.append((tuple(out), weight * c))
    return _merge(terms)


def monomials(exps, env) -> np.ndarray:
    """The monomials with exponent rows exps (B, 6), ordered as LAURENT_VARS,
    over a batch of samples: shape (n, B)."""
    values = np.stack([env[name] for name in LAURENT_VARS], axis=-1)
    return np.prod(values[..., None, :] ** np.asarray(exps), axis=-1)


# ---------------------------------------------------------------------------
# construction


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
E = Energy()
P1, P2, P3 = Var("p1"), Var("p2"), Var("p3")
MASS = Var("m")
TIME = Var("t")
