"""Laurent polynomials in momentum, mass, time and the energy.

An `Expr` is a finite sum  sum_k c_k x^(e_k)  of monomials

    x^e = p1^e1 p2^e2 p3^e3 m^e4 t^e5 E^e6,

held as `terms`, a dict from each exponent row e (six ints, ordered as
LAURENT_VARS) to its coefficient c: a Python complex for a scalar and a
constant d x d matrix for an operator coefficient (`operators.Coefficient`,
a subclass), so sums, products, derivatives, reflection signs and the
mass-shell normal form have one implementation for both.  Equal rows are
merged in order of first occurrence and zero coefficients dropped.  Every
coefficient is a Gaussian dyadic rational, so no arithmetic rounds.

E = sqrt(p1^2 + p2^2 + p3^2 + m^2) is an atom.  The chain rule with
dE/dp_a = p_a E^-1 and dE/dm = m E^-1 keeps every derivative a Laurent
polynomial.  All variables are real and E is even under p -> -p and under
m -> -m, so a reflection acts on a monomial as a sign (`flag_signs`) and
complex conjugation acts on the coefficients alone.

`Expr.on_shell` puts an expression in the normal form in which it vanishes on
the mass shell E^2 = p1^2 + p2^2 + p3^2 + m^2 iff it has no rows.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from operator import add, mul
from typing import NamedTuple

VARIABLES = ("p1", "p2", "p3", "m", "t")
MOMENTUM_VARS = ("p1", "p2", "p3")
LAURENT_VARS = VARIABLES + ("E",)
_AXIS = {name: k for k, name in enumerate(LAURENT_VARS)}
_E_AXIS = _AXIS["E"]
# the terms of E^2 on the mass shell: p1^2 + p2^2 + p3^2 + m^2
_SHELL_AXES = tuple(_AXIS[name] for name in MOMENTUM_VARS + ("m",))


class FlagTransform(NamedTuple):
    """Signature of a substitution map: p -> eta_p p, t -> eta_t t, m -> eta_m m,
    with optional complex conjugation (antilinear case)."""

    eta_p: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False


def _row(**powers) -> tuple:
    """The exponent row of the monomial prod_v v^powers[v]."""
    return tuple(powers.get(name, 0) for name in LAURENT_VARS)


def _chain_rule(var: str) -> tuple:
    """(axis, delta), one per term of the chain rule
    d x^e / dvar = sum e[axis] x^(e + delta): the d/dvar term, and for
    var != t the e_E x^(e - E) dE/dvar term with dE/dvar = var E^-1."""
    terms = [(_AXIS[var], _row(**{var: -1}))]
    if var != "t":
        terms.append((_E_AXIS, _row(**{var: 1}, E=-2)))
    return tuple(terms)


_CHAIN = {var: _chain_rule(var) for var in VARIABLES}


class Expr:
    """sum over `terms` of coefficient x^row; immutable."""

    __slots__ = ("terms",)
    # the sum and the scaling by a number of two coefficients of this class
    _add = staticmethod(add)
    _scale = staticmethod(mul)
    _matrix = False

    def __init__(self, exps, coeffs):
        if len(coeffs) != len(exps):
            raise ValueError("expected one coefficient per exponent row")
        self.terms = self._collect(
            (tuple(map(int, row)), complex(c)) for row, c in zip(exps, coeffs)
        )

    @classmethod
    def _collect(cls, pairs) -> dict:
        """{row: coefficient} from (row, coefficient) pairs: equal rows
        summed in order of first occurrence, zero sums dropped."""
        terms = {}
        plus = cls._add
        for row, c in pairs:
            terms[row] = plus(terms[row], c) if row in terms else c
        return {row: c for row, c in terms.items() if c}

    def _new(self, terms: dict):
        """An expression of this class with the given distinct, nonzero terms."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    @property
    def exps(self) -> tuple:
        """The exponent rows, in order."""
        return tuple(self.terms)

    @property
    def coeffs(self) -> tuple:
        """The coefficients, one per exponent row."""
        return tuple(self.terms.values())

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Expr) else ONE * other
        return self._new(self._collect(chain(self.terms.items(), other.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Expr):
            other = complex(other)
            return self._new({row: self._scale(c, other) for row, c in self.terms.items()}
                             if other else {})
        if self._matrix and other._matrix:
            raise TypeError("a product takes at least one scalar expression")
        # the product has the class of its matrix factor, if it has one
        out = other if other._matrix else self
        swap = out is not self
        return out._new(out._collect(
            (tuple(map(add, r, s)), out._scale(d, c) if swap else out._scale(c, d))
            for r, c in self.terms.items()
            for s, d in other.terms.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if self._matrix:
            raise TypeError("a matrix coefficient has no power")
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError(f"only a monomial has a negative power, not {self!r}")
            [(row, c)] = self.terms.items()
            return self._new({tuple(k * n for k in row): c ** n})
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
        return self._new(self._collect(
            (tuple(map(add, row, delta)), self._scale(c, row[axis]))
            for row, c in self.terms.items()
            for axis, delta in _CHAIN[var]
            if row[axis]
        ))

    def on_shell(self):
        """(shift, form): E^shift times this expression equals `form` on the
        mass shell.  shift is the smallest even power of E that clears its
        negative powers of E, and form, of this class, has E^2 replaced by
        p1^2 + p2^2 + p3^2 + m^2, so that every power of E left is 0 or 1,
        and its rows sorted.

        1 and E are a basis of the rational functions in (p, m, t) extended
        by E, because p1^2 + p2^2 + p3^2 + m^2 is not a square: the
        expression vanishes on the mass shell iff form has no rows.
        """
        shift = -2 * (min([0] + [row[_E_AXIS] for row in self.terms]) // 2)
        pairs = []
        for row, c in self.terms.items():
            half, odd = divmod(row[_E_AXIS] + shift, 2)
            base = row[:_E_AXIS] + (odd,) + row[_E_AXIS + 1:]
            pairs += [(tuple(map(add, base, delta)), self._scale(c, weight))
                      for delta, weight in _shell_power(half)]
        # the rows are distinct, so sorting the items sorts by row alone
        return shift, self._new(dict(sorted(self._collect(pairs).items())))

    def __repr__(self):
        """The monomials, each with its coefficient when that is a number."""
        terms = []
        for row, c in self.terms.items():
            mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(LAURENT_VARS, row) if k)
            terms.append(mono or "1" if self._matrix else f"{c!r}*{mono or 1}")
        return f"{type(self).__name__}({' + '.join(terms) or '0'})"


@lru_cache(maxsize=None)
def _shell_power(half: int) -> tuple:
    """(delta, weight) per term of (p1^2 + p2^2 + p3^2 + m^2)^half, by the
    multinomial theorem: its exponent rows and integer weights."""
    out = []
    for chosen in combinations_with_replacement(_SHELL_AXES, half):
        counts = Counter(chosen)
        weight = math.factorial(half) // math.prod(map(math.factorial, counts.values()))
        out.append((tuple(2 * counts[axis] for axis in range(len(LAURENT_VARS))), weight))
    return tuple(out)


def flag_signs(exps, flags: FlagTransform) -> list:
    """eta_p^(e1+e2+e3) eta_t^e5 eta_m^e4 per exponent row: the sign the
    substitution `flags` gives each monomial, since E is even under every
    flip."""
    p, m, t = (int(eta == -1) for eta in (flags.eta_p, flags.eta_m, flags.eta_t))
    return [1 - 2 * (((e[0] + e[1] + e[2]) * p + e[3] * m + e[4] * t) % 2) for e in exps]


ONE = Expr([_row()], [1])
P1, P2, P3 = (Expr([_row(**{name: 1})], [1]) for name in MOMENTUM_VARS)
MOMENTA = (P1, P2, P3)
MASS = Expr([_row(m=1)], [1])
TIME = Expr([_row(t=1)], [1])
E = Expr([_row(E=1)], [1])
