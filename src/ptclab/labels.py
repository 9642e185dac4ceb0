"""Label-level algebra of the irreducible pieces D^(sign)(s, tau).

Pure label calculus over exact fractions: the completeness rule for full
P, T, C invariance, the massless helicity decomposition with its pair count,
and the text syntax of label sums.  It needs no numpy; the numeric check
that the helicity operators are good symmetries exactly at m = 0 lives in
`ptclab.generators`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple


def half_integer(value) -> Fraction:
    frac = Fraction(value)
    if frac < 0 or frac.denominator not in (1, 2):
        raise ValueError(f"{value!r} is not a non-negative half-integer")
    return frac


def _fmt_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class IrrepLabel(
    NamedTuple("IrrepLabel", [("energy_sign", int), ("s", Fraction), ("tau", Fraction)])
):
    """Ordered, hashable and compared as the tuple (energy_sign, s, tau), with
    s and tau normalized to half-integer Fractions."""

    __slots__ = ()

    def __new__(cls, energy_sign, s, tau):
        if energy_sign not in (1, -1):
            raise ValueError("energy sign must be +1 or -1")
        return super().__new__(cls, energy_sign, half_integer(s), half_integer(tau))

    @property
    def dimension(self) -> int:
        return int((2 * self.s + 1) * (2 * self.tau + 1))

    def __str__(self):
        sign = "+" if self.energy_sign > 0 else "-"
        return f"D{sign}({_fmt_frac(self.s)},{_fmt_frac(self.tau)})"


class MasslessLabel(
    NamedTuple(
        "MasslessLabel",
        [("energy_sign", int), ("s_helicity", Fraction | None), ("t_helicity", Fraction | None)],
    )
):
    """One-dimensional massless piece tagged by a single helicity eigenvalue."""

    __slots__ = ()

    def __new__(cls, energy_sign, s_helicity=None, t_helicity=None):
        if (s_helicity is None) == (t_helicity is None):
            raise ValueError("exactly one of s_helicity / t_helicity must be set")
        return super().__new__(cls, energy_sign, s_helicity, t_helicity)

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


def ptc_complete(labels) -> bool:
    """True iff every label's count equals the count of its energy-sign flip
    and of its (s, tau) swap: the multiset is a sum of full partner groups,
    {both energy signs} x {(s, tau), (tau, s)}, a pair when s == tau."""
    counts = Counter((lab.energy_sign, lab.s, lab.tau) for lab in labels)
    return all(
        n == counts[(-sign, s, tau)] == counts[(sign, tau, s)] for (sign, s, tau), n in counts.items()
    )


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
