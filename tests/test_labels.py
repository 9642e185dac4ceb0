from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptclab.labels import (
    CANONICAL8_CONTENT,
    FOUR_COMPONENT_CONTENTS,
    IrrepLabel,
    LabelParseError,
    massless_decompose,
    massless_pair_count,
    parse_labels,
    ptc_complete,
)

from oracles import ReferenceParseError, quartet_ptc_complete, reference_parse_labels

L = IrrepLabel  # spins as twice their values: L(1, 1, 0) is D+(1/2,0)


# ---------------------------------------------------------------------------
# completeness rule


def test_quadruple_is_complete():
    labels = [L(1, 1, 0), L(-1, 1, 0), L(1, 0, 1), L(-1, 0, 1)]
    assert ptc_complete(labels)


def test_equal_spin_pair_is_complete():
    assert ptc_complete([L(1, 1, 1), L(-1, 1, 1)])


def test_single_label_incomplete():
    assert not ptc_complete([L(1, 1, 0)])


def test_spin_one_quadruple():
    labels = [L(1, 2, 0), L(-1, 2, 0), L(1, 0, 2), L(-1, 0, 2)]
    assert ptc_complete(labels)


def test_removing_any_summand_breaks_completeness():
    labels = [L(1, 1, 0), L(-1, 1, 0), L(1, 0, 1), L(-1, 0, 1)]
    for k in range(4):
        assert not ptc_complete(labels[:k] + labels[k + 1 :])
    pair = [L(1, 1, 1), L(-1, 1, 1)]
    for k in range(2):
        assert not ptc_complete(pair[:k] + pair[k + 1 :])


def test_four_component_contents_incomplete():
    for content in FOUR_COMPONENT_CONTENTS.values():
        assert not ptc_complete(content)


def conjugate_partner(label: IrrepLabel) -> IrrepLabel:
    """Charge-conjugate partner: energy sign flips and (s, tau) swap."""
    return IrrepLabel(-label.energy_sign, label.two_tau, label.two_s)


def test_union_with_conjugate_partners_complete():
    distinct = set(FOUR_COMPONENT_CONTENTS["rep1"]) | set(FOUR_COMPONENT_CONTENTS["rep3"])
    closed = distinct | {conjugate_partner(lab) for lab in distinct}
    assert ptc_complete(closed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_ptc_complete_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    labels = [L(1, 1, 0), L(-1, 1, 0), L(1, 0, 1), L(-1, 0, 1),
              L(1, 2, 2), L(-1, 2, 2)]
    shuffled = [labels[i] for i in rng.permutation(len(labels))]
    assert ptc_complete(shuffled) == ptc_complete(labels)


def test_multiset_multiplicity_matters():
    labels = [L(1, 1, 0), L(1, 1, 0), L(-1, 1, 0),
              L(1, 0, 1), L(-1, 0, 1)]
    assert not ptc_complete(labels)


_SPINS = (0, 1, 2, 3)  # twice the spins 0, 1/2, 1, 3/2
_LABELS = [IrrepLabel(sign, s, tau) for sign in (1, -1) for s in _SPINS for tau in _SPINS]


# the moves that generate the partner group: energy-sign flip, (s, tau) swap
_FLIP, _SWAP = ((1, False), (-1, False)), ((1, False), (1, True))
_GROUP = tuple(product((1, -1), (False, True)))


@settings(max_examples=400, deadline=None)
@given(counts=st.lists(st.integers(0, 3), min_size=len(_LABELS), max_size=len(_LABELS)))
def test_orbit_rule_matches_the_quartet_reference(counts):
    """The one orbit condition of ptc_complete and the quartet-by-quartet
    reference of `oracles` agree on random multisets of labels with
    s, tau in {0, 1/2, 1, 3/2}, and on each one summed over its images under
    the flip alone, the swap alone and both; the last is always complete."""
    labels = [label for label, n in zip(_LABELS, counts) for _ in range(n)]
    for moves in ((1, False),), _FLIP, _SWAP, _GROUP:
        images = [
            IrrepLabel(sign * lab.energy_sign,
                       *((lab.two_tau, lab.two_s) if swap else (lab.two_s, lab.two_tau)))
            for lab in labels
            for sign, swap in moves
        ]
        assert ptc_complete(images) == quartet_ptc_complete(images), moves
    assert ptc_complete(images)


def test_orbit_rule_matches_the_quartet_reference_exhaustively():
    """Every multiset with counts 0 to 2 of the eight labels with
    s, tau in {0, 1/2}: 3^8 multisets, both rules agree on each."""
    labels = [IrrepLabel(sign, s, tau) for sign in (1, -1) for s in (0, 1) for tau in (0, 1)]
    complete = 0
    for counts in product(range(3), repeat=len(labels)):
        multiset = [label for label, n in zip(labels, counts) for _ in range(n)]
        assert ptc_complete(multiset) == quartet_ptc_complete(multiset), counts
        complete += ptc_complete(multiset)
    assert complete == 3 ** 3  # free: the (0, 0) pair, the (1/2, 1/2) pair, the quartet


# ---------------------------------------------------------------------------
# spin content


def spin_content(two_s, two_tau) -> list:
    """Twice the spins |s - tau|, |s - tau| + 1, ..., s + tau carried by a
    (s, tau) block."""
    return list(range(abs(two_s - two_tau), two_s + two_tau + 1, 2))


def test_spin_content_examples():
    assert spin_content(1, 1) == [0, 2]
    assert spin_content(6, 0) == [6]
    assert spin_content(3, 2) == [1, 3, 5]


def test_label_dimension():
    assert L(1, 1, 0).dimension == 2
    assert L(1, 1, 1).dimension == 4
    with pytest.raises(ValueError):
        L(1, Fraction(2, 3), 0)


@pytest.mark.parametrize("value", [True, False, -1, -2, 1.0, Fraction(1, 1), "1", None])
def test_label_rejects_what_is_not_a_twice_spin(value):
    """A twice-spin is an int >= 0: a bool, a negative int, a float, a
    Fraction, a string or None is refused in either slot.  A bool is no
    energy sign either, though True == 1."""
    with pytest.raises(ValueError):
        IrrepLabel(1, value, 0)
    with pytest.raises(ValueError):
        IrrepLabel(1, 0, value)
    if isinstance(value, bool):
        with pytest.raises(ValueError):
            IrrepLabel(value, 1, 0)


# ---------------------------------------------------------------------------
# massless decomposition


def test_massless_decomposition_has_eight_pieces():
    labels = massless_decompose()
    assert labels == [
        "D+(1/2,0)", "D+(-1/2,0)", "D-(0,1/2)", "D-(0,-1/2)",
        "D-(1/2,0)", "D-(-1/2,0)", "D+(0,1/2)", "D+(0,-1/2)",
    ]
    assert massless_pair_count() == 28


def test_massless_total_dimension_matches_parent():
    # 8 one-dimensional helicity pieces against the dim-8 massive content
    assert sum(label.dimension for label in CANONICAL8_CONTENT) == 8
    assert len(massless_decompose()) == 8


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    text = "D+(1/2,0)+D-(0,1/2)"
    labels = parse_labels(text)
    assert labels == [L(1, 1, 0), L(-1, 0, 1)]
    assert "+".join(str(l) for l in labels) == text


def test_parse_errors_carry_position():
    with pytest.raises(LabelParseError) as err:
        parse_labels("D+(1/2,0)+X")
    assert err.value.position == 10
    with pytest.raises(LabelParseError, match="malformed half-integer"):
        parse_labels("D+(1/3,0)")
    with pytest.raises(LabelParseError):
        parse_labels("D+(1/2;0)")


def test_every_small_label_round_trips():
    """Every label with 2s, 2 tau <= 3 prints as text that parses back to
    it, alone and in one sum of all 32."""
    for label in _LABELS:
        assert parse_labels(str(label)) == [label], label
    assert parse_labels(" + ".join(map(str, _LABELS))) == _LABELS


def _outcome(parse, error, text):
    """The labels parse reads from text, as strings, or the message and
    position of the error it raises."""
    try:
        return [str(label) for label in parse(text)]
    except error as exc:
        return str(exc), exc.position


# the syntax's characters, whitespace, ASCII digits, a superscript digit that
# is not a decimal digit and an Arabic-Indic decimal digit
_ALPHABET = list("D+-(),/") + [" ", "\t", "\n"] + list("0123456789") + ["\u00b2", "\u0663"]
_SPACE = st.sampled_from(["", "", "", " ", "\t", " \n "])
_SPIN = st.one_of(
    st.sampled_from(["0", "1", "1/2", "3/2", "2/4", "1/0", "3/6", "00/2", "1/2/2", "/2", "1/"]),
    st.text(alphabet=st.sampled_from(list("0123456789/") + ["\u00b2", "\u0663"]), max_size=6),
)


@st.composite
def _label_sums(draw):
    """A sum of one to three labels, each token drawn with whitespace around
    it and now and then swapped for one character of the alphabet."""
    parts = []
    for k in range(draw(st.integers(1, 3))):
        spins = draw(_SPIN), draw(_SPIN)
        for token in ("+" if k else "", "D", draw(st.sampled_from("+-")), "(",
                      spins[0], ",", spins[1], ")"):
            parts.append(draw(_SPACE))
            parts.append(token if draw(st.integers(0, 15)) else draw(st.sampled_from(_ALPHABET)))
    parts.append(draw(_SPACE))
    return "".join(parts)


@settings(max_examples=600, deadline=None)
@given(text=st.one_of(st.text(alphabet=st.sampled_from(_ALPHABET), max_size=30), _label_sums()))
@example(text="D+(1/0,0)")
@example(text="D+(3/6,0)")
@example(text="D+(1/2/2,0)")
@example(text="D+(00/2,0)")
@example(text="D+(\u0663,\u00b2)")
def test_parser_matches_the_fraction_reference(text):
    """The integer parser reads the same labels as the Fraction reference
    of `oracles`, or fails with the same message at the same position."""
    assert _outcome(parse_labels, LabelParseError, text) == _outcome(
        reference_parse_labels, ReferenceParseError, text
    )
