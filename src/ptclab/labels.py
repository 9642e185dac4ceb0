"""Label-level algebra of the irreducible pieces D^(sign)(s, tau).

Pure label calculus in integers: every spin is held as the int twice its
value, 2s, so a half-integer is exact without a rational type.  It holds
the completeness rule for full P, T, C invariance, the massless helicity
decomposition (as label texts) with its pair count, and the text syntax of
label sums.  The check that the helicity operators are good symmetries
exactly at m = 0 lives in `ptclab.generators`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple


def _spin_text(two_s: int) -> str:
    """s written as the label syntax writes it: "1" for 2s = 2, "3/2" for 2s = 3."""
    return str(two_s // 2) if two_s % 2 == 0 else f"{two_s}/2"


class IrrepLabel(
    NamedTuple("IrrepLabel", [("energy_sign", int), ("two_s", int), ("two_tau", int)])
):
    """D^(energy_sign)(s, tau) with two_s = 2s and two_tau = 2 tau; ordered,
    hashable and compared as the tuple (energy_sign, two_s, two_tau)."""

    __slots__ = ()

    def __new__(cls, energy_sign, two_s, two_tau):
        if isinstance(energy_sign, bool) or energy_sign not in (1, -1):
            raise ValueError("energy sign must be +1 or -1")
        for value in (two_s, two_tau):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{value!r} is not twice a spin: expected an int >= 0")
        return super().__new__(cls, energy_sign, two_s, two_tau)

    @property
    def dimension(self) -> int:
        return (self.two_s + 1) * (self.two_tau + 1)

    def __str__(self):
        sign = "+" if self.energy_sign > 0 else "-"
        return f"D{sign}({_spin_text(self.two_s)},{_spin_text(self.two_tau)})"


# Massive content of the canonical eight-component equation, and of each of
# the three inequivalent four-component equations it splits into.
CANONICAL8_CONTENT = (
    IrrepLabel(1, 1, 0),
    IrrepLabel(-1, 0, 1),
    IrrepLabel(-1, 1, 0),
    IrrepLabel(1, 0, 1),
)
FOUR_COMPONENT_CONTENTS = {
    "rep1": (IrrepLabel(1, 1, 0), IrrepLabel(-1, 0, 1)),
    "rep2": (IrrepLabel(1, 1, 0), IrrepLabel(-1, 1, 0)),
    "rep3": (IrrepLabel(1, 1, 0), IrrepLabel(1, 0, 1)),
}


def ptc_complete(labels) -> bool:
    """True iff every label's count equals the count of its energy-sign flip
    and of its (s, tau) swap: the multiset is a sum of full partner groups,
    {both energy signs} x {(s, tau), (tau, s)}, a pair when s == tau."""
    counts = Counter(labels)
    return all(
        n == counts[(-sign, s, tau)] == counts[(sign, tau, s)] for (sign, s, tau), n in counts.items()
    )


def massless_decompose() -> list:
    """The label texts of the eight one-dimensional helicity pieces of the
    m = 0 limit: each spin-1/2 label splits into helicities +1/2 and -1/2,
    written in place of its spin."""
    return [str(label).replace("1/2", h) for label in CANONICAL8_CONTENT for h in ("1/2", "-1/2")]


def massless_pair_count() -> int:
    """Unordered pairs of distinct one-dimensional pieces."""
    return math.comb(len(massless_decompose()), 2)


# ---------------------------------------------------------------------------
# text syntax "D+(1/2,0)+D-(0,1/2)"


class LabelParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# The tokens of a label sum, each after optional whitespace: (the characters
# it may be, or "" for a spin; the message when it is missing).  No separator
# comes before the first label, and the sum may end where one is due.
_SEPARATOR = ("+", "expected '+' between labels")
_STEPS = (
    _SEPARATOR,
    ("D", "expected 'D'"),
    ("+-", "expected '+' or '-' after 'D'"),
    ("(", "expected '('"),
    ("", "expected a half-integer"),
    (",", "expected ','"),
    ("", "expected a half-integer"),
    (")", "expected ')'"),
)


def _twice_spin(token: str, position: int) -> int:
    """2s for a spin token "p" or "p/q" of decimal digits, where q != 0
    divides 2p."""
    p, slash, q = token.partition("/")
    try:
        p, q = int(p), int(q) if slash else 1
    except ValueError:  # p or q is empty or not all decimal digits
        q = 0
    if q == 0 or 2 * p % q:
        raise LabelParseError(f"malformed half-integer {token!r}", position)
    return 2 * p // q


def parse_labels(text: str) -> list:
    """The labels of a sum such as "D+(1/2,0) + D-(0,1/2)", in order.
    LabelParseError gives the first token that is not what the syntax
    expects, and its position."""
    labels, i, steps = [], 0, _STEPS[1:]  # no separator before the first label
    while True:
        tokens = []
        for step in steps:
            chars, message = step
            while i < len(text) and text[i].isspace():
                i += 1
            if step is _SEPARATOR and i == len(text):
                return labels
            start = i
            if not chars:  # a spin: a run of digits and '/'
                while i < len(text) and (text[i].isdigit() or text[i] == "/"):
                    i += 1
                if i == start:
                    raise LabelParseError(message, start)
                tokens.append(_twice_spin(text[start:i], start))
            elif i < len(text) and text[i] in chars:
                tokens.append(text[i])
                i += 1
            else:
                raise LabelParseError(message, i)
        *_, sign, _, two_s, _, two_tau, _ = tokens
        labels.append(IrrepLabel(1 if sign == "+" else -1, two_s, two_tau))
        steps = _STEPS
