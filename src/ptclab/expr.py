"""Laurent polynomials in momentum, mass, time, the energy and the connector norm.

An `Expr` is a finite sum  sum_k c_k x^(e_k)  of monomials

    x^e = p1^e1 p2^e2 p3^e3 m^e4 t^e5 E^e6 W^e7,

held as K integer exponent rows `exps` (K, 7), ordered as LAURENT_VARS, and
K coefficients `coeffs`.  A coefficient is a complex number for a scalar and
a constant d x d matrix for an operator coefficient (`operators.Coefficient`,
a subclass), so sums, products, derivatives, reflection signs and the
mass-shell normal form have one implementation for both.  Equal rows are
merged and zero coefficients dropped.

E = sqrt(p1^2 + p2^2 + p3^2 + m^2) and W = sqrt(2E(E + m)) are atoms.  The
chain rule with

    dE/dp_a = p_a E^-1,                    dE/dm = m E^-1,
    dW/dp_a = (2 p_a + m p_a E^-1) W^-1,   dW/dm = (2m + E + m^2 E^-1) W^-1

keeps every derivative a Laurent polynomial.  All variables are real, E is
even under p -> -p and under m -> -m, and W is even under p -> -p, so a
reflection acts on a monomial as a sign (`flag_signs`) and complex
conjugation acts on the coefficients alone.  W only normalises the
canonical-form connector; the generators never contain it.

`Expr.on_shell` puts an expression in the normal form in which it vanishes on
the mass shell E^2 = p1^2 + p2^2 + p3^2 + m^2 iff it has no rows.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

VARIABLES = ("p1", "p2", "p3", "m", "t")
MOMENTUM_VARS = ("p1", "p2", "p3")
LAURENT_VARS = VARIABLES + ("E", "W")
_AXIS = {name: k for k, name in enumerate(LAURENT_VARS)}
# the terms of E^2 on the mass shell: p1^2 + p2^2 + p3^2 + m^2
_SHELL_AXES = tuple(_AXIS[name] for name in MOMENTUM_VARS + ("m",))


class FlagTransform(NamedTuple):
    """Signature of a substitution map: p -> eta_p p, t -> eta_t t, m -> eta_m m,
    with optional complex conjugation (antilinear case)."""

    eta_p: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False


def _row(**powers) -> np.ndarray:
    """The exponent row of the monomial prod_v v^powers[v]."""
    out = np.zeros(len(LAURENT_VARS), dtype=int)
    for name, k in powers.items():
        out[_AXIS[name]] = k
    return out


def _chain_rule(var: str):
    """(axes, factors, deltas), one entry per term of the chain rule
    d x^e / dvar = sum_j factors[j] e[axes[j]] x^(e + deltas[j]), from the
    e_u x^(e - u) du/dvar of every atom u that depends on var."""
    terms = [(_AXIS[var], 1, _row(**{var: -1}))]
    if var != "t":
        terms.append((_AXIS["E"], 1, _row(**{var: 1}, E=-2)))
        w = _AXIS["W"]
        if var == "m":
            terms += [(w, 2, _row(m=1, W=-2)), (w, 1, _row(E=1, W=-2)),
                      (w, 1, _row(m=2, E=-1, W=-2))]
        else:
            terms += [(w, 2, _row(**{var: 1}, W=-2)), (w, 1, _row(**{var: 1}, m=1, E=-1, W=-2))]
    axes, factors, deltas = zip(*terms)
    return np.array(axes), np.array(factors), np.array(deltas)


_CHAIN = {var: _chain_rule(var) for var in VARIABLES}


def _merged(exps, coeffs):
    """exps and coeffs with equal rows summed and zero coefficients dropped."""
    exps = np.asarray(exps, dtype=int).reshape(-1, len(LAURENT_VARS))
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) != len(exps):
        raise ValueError("expected one coefficient per exponent row")
    rows = list(map(tuple, exps.tolist()))
    index = dict.fromkeys(rows)
    if len(index) < len(rows):
        index = {row: k for k, row in enumerate(index)}
        sums = np.zeros((len(index),) + coeffs.shape[1:], dtype=complex)
        np.add.at(sums, [index[row] for row in rows], coeffs)
        exps, coeffs = np.array(list(index), dtype=int), sums
    keep = coeffs.reshape(len(coeffs), math.prod(coeffs.shape[1:])).any(axis=1)
    if not keep.all():
        exps, coeffs = exps[keep], coeffs[keep]
    return exps, coeffs


class Expr:
    """sum_k coeffs[k] x^exps[k]; immutable."""

    __slots__ = ("exps", "coeffs")

    def __init__(self, exps, coeffs):
        self.exps, self.coeffs = _merged(exps, coeffs)

    @classmethod
    def from_rows(cls, exps, coeffs):
        """An expression of this class from its exponent rows and coefficients."""
        return cls._new(*_merged(exps, coeffs))

    @classmethod
    def _new(cls, exps, coeffs):
        """From rows that are already distinct, with nonzero coefficients."""
        out = cls.__new__(cls)
        out.exps, out.coeffs = exps, coeffs
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Expr) else Expr(_row(), [other])
        return self.from_rows(
            np.concatenate([self.exps, other.exps]), np.concatenate([self.coeffs, other.coeffs])
        )

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Expr):
            if other == 0:
                return self._new(self.exps[:0], self.coeffs[:0])
            return self._new(self.exps, self.coeffs * other)
        a, b = self.coeffs, other.coeffs
        if a.ndim > 1 and b.ndim > 1:
            raise TypeError("a product takes at least one scalar expression")
        # outer product of the rows, a scalar factor broadcast over a matrix one
        ndim = max(a.ndim, b.ndim)
        a = a.reshape(a.shape[:1] + (1,) + a.shape[1:] + (1,) * (ndim - a.ndim))
        b = b.reshape((1,) + b.shape + (1,) * (ndim - b.ndim))
        product = a * b
        exps = (self.exps[:, None] + other.exps[None]).reshape(-1, len(LAURENT_VARS))
        product = product.reshape((-1,) + product.shape[2:])
        cls = type(self) if self.coeffs.ndim >= other.coeffs.ndim else type(other)
        if len(self.exps) == 1 or len(other.exps) == 1:
            # a monomial factor keeps the rows distinct and nonzero
            return cls._new(exps, product)
        return cls.from_rows(exps, product)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if self.coeffs.ndim > 1:
            raise TypeError("a matrix coefficient has no power")
        if n < 0:
            if len(self.exps) != 1:
                raise ValueError(f"only a monomial has a negative power, not {self!r}")
            return self._new(self.exps * n, self.coeffs ** n)
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        if not isinstance(other, Expr):
            return self * (1 / other)
        return self * other ** -1

    def __rtruediv__(self, other):
        return other * self ** -1

    # -- calculus and the normal form ---------------------------------------

    def diff(self, var: str):
        """d/dvar by the chain rule over the atoms, var one of VARIABLES."""
        if var not in _CHAIN:
            raise ValueError(f"unknown variable {var!r}, expected one of {VARIABLES}")
        axes, factors, deltas = _CHAIN[var]
        weights = self.exps[:, axes] * factors
        row, term = np.nonzero(weights)
        tail = (1,) * (self.coeffs.ndim - 1)
        return self.from_rows(
            self.exps[row] + deltas[term],
            weights[row, term].reshape((-1,) + tail) * self.coeffs[row],
        )

    def on_shell(self):
        """(shift, form): E^shift times this expression equals `form` on the
        mass shell.  shift is the smallest even power of E that clears its
        negative powers of E, and form, of this class, has E^2 replaced by
        p1^2 + p2^2 + p3^2 + m^2, so that every power of E left is 0 or 1,
        and its rows sorted.

        1 and E are a basis of the rational functions in (p, m, t) extended
        by E, because p1^2 + p2^2 + p3^2 + m^2 is not a square: the
        expression vanishes on the mass shell iff form has no rows.  Raises
        ValueError on a power of W, which is not a Laurent polynomial there.
        """
        if self.exps[:, _AXIS["W"]].any():
            raise ValueError("W = sqrt(2E(E + m)) has no Laurent normal form on the mass shell")
        energy = self.exps[:, _AXIS["E"]]
        shift = max(0, -2 * (int(energy.min(initial=0)) // 2))
        half, odd = np.divmod(energy + shift, 2)
        tail = (1,) * (self.coeffs.ndim - 1)
        exps, coeffs = [self.exps[:0]], [self.coeffs[:0]]
        for h in sorted(set(half.tolist())):
            rows = half == h
            base = self.exps[rows]
            base[:, _AXIS["E"]] = odd[rows]
            deltas, weights = _shell_power(h)
            exps.append((base[:, None] + deltas).reshape(-1, len(LAURENT_VARS)))
            terms = weights.reshape((1, -1) + tail) * self.coeffs[rows][:, None]
            coeffs.append(terms.reshape((-1,) + self.coeffs.shape[1:]))
        form = self.from_rows(np.concatenate(exps), np.concatenate(coeffs))
        order = np.lexsort(form.exps.T[::-1])
        return shift, self._new(form.exps[order], form.coeffs[order])

    def __repr__(self):
        """The monomials, each with its coefficient when that is a number."""
        terms = []
        for row, c in zip(self.exps.tolist(), self.coeffs):
            mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(LAURENT_VARS, row) if k)
            terms.append(f"{complex(c)!r}*{mono or 1}" if c.ndim == 0 else mono or "1")
        return f"{type(self).__name__}({' + '.join(terms) or '0'})"


@lru_cache(maxsize=None)
def _shell_power(half: int):
    """The exponent rows and integer weights of (p1^2 + p2^2 + p3^2 + m^2)^half,
    by the multinomial theorem."""
    deltas, weights = [], []
    for chosen in combinations_with_replacement(_SHELL_AXES, half):
        delta = np.zeros(len(LAURENT_VARS), dtype=int)
        weight = math.factorial(half)
        for axis, j in Counter(chosen).items():
            delta[axis] = 2 * j
            weight //= math.factorial(j)
        deltas.append(delta)
        weights.append(weight)
    return np.array(deltas), np.array(weights)


def flag_signs(exps, flags: FlagTransform) -> np.ndarray:
    """eta_p^(e1+e2+e3) eta_t^e5 eta_m^e4 per exponent row: the sign the
    substitution `flags` gives each monomial, since E is even under every
    flip and W under p -> -p.  Raises ValueError on a power of W under
    m -> -m, which takes W to sqrt(2E(E - m))."""
    exps = np.asarray(exps)
    odd = np.zeros(len(exps), dtype=int)
    if flags.eta_p == -1:
        odd += exps[:, :3].sum(axis=1)
    if flags.eta_t == -1:
        odd += exps[:, _AXIS["t"]]
    if flags.eta_m == -1:
        if exps[:, _AXIS["W"]].any():
            raise ValueError("W = sqrt(2E(E + m)) is not even under m -> -m")
        odd += exps[:, _AXIS["m"]]
    return 1 - 2 * (odd % 2)


ONE = Expr(_row(), [1])
P1, P2, P3 = (Expr(_row(**{name: 1}), [1]) for name in MOMENTUM_VARS)
MOMENTA = (P1, P2, P3)
MASS = Expr(_row(m=1), [1])
TIME = Expr(_row(t=1), [1])
E = Expr(_row(E=1), [1])
W = Expr(_row(W=1), [1])
