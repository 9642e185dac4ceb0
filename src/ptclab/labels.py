"""Label-level algebra of the irreducible pieces D^(sign)(s, tau).

Covers the completeness rule for full P, T, C invariance, the spin content
of a (s, tau) block, the massless helicity decomposition with its pair count,
and the numeric check that the helicity operators are good symmetries exactly
at m = 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import cached_spin, spectral_projector
from .expr import E as ENERGY, P1, P2, P3, div
from .operators import Coefficient, MomentumOperator, bracket_eval, eval_operator
from .sampling import env_arrays, sample_points


def half_integer(value) -> Fraction:
    frac = Fraction(value)
    if frac < 0 or frac.denominator not in (1, 2):
        raise ValueError(f"{value!r} is not a non-negative half-integer")
    return frac


def _fmt_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True, order=True)
class IrrepLabel:
    energy_sign: int
    s: Fraction
    tau: Fraction

    def __post_init__(self):
        if self.energy_sign not in (1, -1):
            raise ValueError("energy sign must be +1 or -1")
        object.__setattr__(self, "s", half_integer(self.s))
        object.__setattr__(self, "tau", half_integer(self.tau))

    @property
    def dimension(self) -> int:
        return int((2 * self.s + 1) * (2 * self.tau + 1))

    def __str__(self):
        sign = "+" if self.energy_sign > 0 else "-"
        return f"D{sign}({_fmt_frac(self.s)},{_fmt_frac(self.tau)})"


@dataclass(frozen=True)
class MasslessLabel:
    """One-dimensional massless piece tagged by a single helicity eigenvalue."""

    energy_sign: int
    s_helicity: Fraction | None = None
    t_helicity: Fraction | None = None

    def __post_init__(self):
        if (self.s_helicity is None) == (self.t_helicity is None):
            raise ValueError("exactly one of s_helicity / t_helicity must be set")

    def __str__(self):
        sign = "+" if self.energy_sign > 0 else "-"
        if self.s_helicity is not None:
            return f"D{sign}({_fmt_frac(self.s_helicity)},0)"
        return f"D{sign}(0,{_fmt_frac(self.t_helicity)})"


HALF = Fraction(1, 2)

# Massive content of the canonical eight-component equation, and of each of
# the three inequivalent four-component equations it splits into.
CANONICAL8_CONTENT = (
    IrrepLabel(1, HALF, 0),
    IrrepLabel(-1, 0, HALF),
    IrrepLabel(-1, HALF, 0),
    IrrepLabel(1, 0, HALF),
)
FOUR_COMPONENT_CONTENTS = {
    "rep1": (IrrepLabel(1, HALF, 0), IrrepLabel(-1, 0, HALF)),
    "rep2": (IrrepLabel(1, HALF, 0), IrrepLabel(-1, HALF, 0)),
    "rep3": (IrrepLabel(1, HALF, 0), IrrepLabel(1, 0, HALF)),
}


def conjugate_partner(label: IrrepLabel) -> IrrepLabel:
    """Charge-conjugate partner: energy sign flips and (s, tau) swap."""
    return IrrepLabel(-label.energy_sign, label.tau, label.s)


def ptc_complete(labels) -> bool:
    """True iff the multiset splits into the required partner groups.

    For s != tau a full quadruple {both energy signs} x {(s,tau), (tau,s)} is
    needed; for s == tau just the pair of energy signs.
    """
    counts = Counter((lab.energy_sign, lab.s, lab.tau) for lab in labels)
    done = set()
    for (_, s, tau) in list(counts):
        key = (min(s, tau), max(s, tau))
        if key in done:
            continue
        done.add(key)
        if s == tau:
            if counts[(1, s, s)] != counts[(-1, s, s)]:
                return False
        else:
            quartet = [
                counts[(sign, a, b)]
                for sign in (1, -1)
                for (a, b) in ((s, tau), (tau, s))
            ]
            if len(set(quartet)) != 1:
                return False
    return True


def spin_content(s, tau) -> list:
    """Spins |s - tau|, |s - tau| + 1, ..., s + tau carried by a (s, tau) block."""
    s, tau = half_integer(s), half_integer(tau)
    low, high = abs(s - tau), s + tau
    out = []
    spin = low
    while spin <= high:
        out.append(spin)
        spin += 1
    return out


def massless_decompose() -> list:
    """The eight one-dimensional helicity pieces of the m = 0 limit."""
    out = []
    for label in CANONICAL8_CONTENT:
        for hel in (HALF, -HALF):
            if label.s != 0:
                out.append(MasslessLabel(label.energy_sign, s_helicity=hel))
            else:
                out.append(MasslessLabel(label.energy_sign, t_helicity=hel))
    return out


def massless_pair_count() -> int:
    """Unordered pairs of distinct one-dimensional pieces."""
    return math.comb(len(massless_decompose()), 2)


# ---------------------------------------------------------------------------
# numeric helicity check on the canonical eight-component generators


@dataclass
class HelicityReport:
    ok: bool
    max_residual: float
    per_generator: dict  # name -> (residual of [S.p/E, G], residual of [T.p/E, G])
    eigenvalue_residual: float


def helicity_operator(which: str = "s") -> MomentumOperator:
    """S_a p_a / E (or T_a p_a / E) on the eight-dimensional space."""
    spin = cached_spin(8)
    triple = spin.S if which == "s" else spin.T
    return MomentumOperator.from_matrix(Coefficient(triple, (P1, P2, P3)).scale(div(1, ENERGY)))


def helicity_check(points=None, tol: float = 1e-9) -> HelicityReport:
    """Check that both helicity operators commute with all ten canonical
    eight-component generators.

    The generators keep their symbolic mass dependence; evaluating at
    massless sample points realizes the m = 0 generator set (E = |p|).
    """
    # imported here because generators imports this module for its labels
    from .generators import build_generators

    genset = build_generators("canonical8")
    if points is None:
        points = sample_points(masses=(0.0,))
    env = env_arrays(points)
    hs = eval_operator(helicity_operator("s"), env)
    ht = eval_operator(helicity_operator("t"), env)
    per = {}
    worst = 0.0
    for name, op in genset.ops.items():
        ev = eval_operator(op, env)
        rs = _bracket_norm(hs, ev)
        rt = _bracket_norm(ht, ev)
        per[name] = (rs, rt)
        worst = max(worst, rs, rt)

    eig_residual = _helicity_eigen_residual(hs.coeffs[(0, 0, 0)])
    ok = worst < tol and eig_residual < tol
    return HelicityReport(ok, worst, per, eig_residual)


def _bracket_norm(h, ev) -> float:
    res = bracket_eval(h, ev)
    return max(float(np.max(np.abs(mat))) for mat in res.values())


def _helicity_eigen_residual(hmat) -> float:
    """Eigenvalues of S.p/E (its coefficients at each sample) restricted to
    the S^2 = 3/4 subspace must be +-1/2."""
    spin = cached_spin(8)
    proj = spectral_projector(spin.s_squared, 0.75)
    values, vectors = np.linalg.eigh(proj)
    basis = vectors[:, values > 0.5]
    worst = 0.0
    for k in range(hmat.shape[0]):
        block = basis.conj().T @ hmat[k] @ basis
        eigs = np.sort(np.linalg.eigvalsh(block))
        worst = max(worst, float(np.max(np.abs(eigs - np.array([-0.5, -0.5, 0.5, 0.5])))))
    return worst


# ---------------------------------------------------------------------------
# text syntax "D+(1/2,0)+D-(0,1/2)"


class LabelParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_labels(text: str) -> list:
    labels = []
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def expect(j, char):
        j = skip_ws(j)
        if j >= n or text[j] != char:
            raise LabelParseError(f"expected {char!r}", j)
        return j + 1

    def read_fraction(j):
        j = skip_ws(j)
        start = j
        while j < n and (text[j].isdigit() or text[j] == "/"):
            j += 1
        token = text[start:j]
        if not token:
            raise LabelParseError("expected a half-integer", start)
        try:
            value = half_integer(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise LabelParseError(f"malformed half-integer {token!r}", start) from None
        return value, j

    while True:
        i = skip_ws(i)
        if i >= n or text[i] != "D":
            raise LabelParseError("expected 'D'", i)
        i += 1
        i = skip_ws(i)
        if i >= n or text[i] not in "+-":
            raise LabelParseError("expected '+' or '-' after 'D'", i)
        sign = 1 if text[i] == "+" else -1
        i += 1
        i = expect(i, "(")
        s, i = read_fraction(i)
        i = expect(i, ",")
        tau, i = read_fraction(i)
        i = expect(i, ")")
        labels.append(IrrepLabel(sign, s, tau))
        i = skip_ws(i)
        if i >= n:
            return labels
        if text[i] != "+":
            raise LabelParseError("expected '+' between labels", i)
        i += 1
