from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptclab.labels import (
    CANONICAL8_CONTENT,
    FOUR_COMPONENT_CONTENTS,
    HALF,
    IrrepLabel,
    LabelParseError,
    MasslessLabel,
    half_integer,
    massless_decompose,
    massless_pair_count,
    parse_labels,
    ptc_complete,
)

from oracles import quartet_ptc_complete

Q = Fraction


def L(sign, s, tau):
    return IrrepLabel(sign, Q(s), Q(tau))


# ---------------------------------------------------------------------------
# completeness rule


def test_quadruple_is_complete():
    labels = [L(1, "1/2", 0), L(-1, "1/2", 0), L(1, 0, "1/2"), L(-1, 0, "1/2")]
    assert ptc_complete(labels)


def test_equal_spin_pair_is_complete():
    assert ptc_complete([L(1, "1/2", "1/2"), L(-1, "1/2", "1/2")])


def test_single_label_incomplete():
    assert not ptc_complete([L(1, "1/2", 0)])


def test_spin_one_quadruple():
    labels = [L(1, 1, 0), L(-1, 1, 0), L(1, 0, 1), L(-1, 0, 1)]
    assert ptc_complete(labels)


def test_removing_any_summand_breaks_completeness():
    labels = [L(1, "1/2", 0), L(-1, "1/2", 0), L(1, 0, "1/2"), L(-1, 0, "1/2")]
    for k in range(4):
        assert not ptc_complete(labels[:k] + labels[k + 1 :])
    pair = [L(1, "1/2", "1/2"), L(-1, "1/2", "1/2")]
    for k in range(2):
        assert not ptc_complete(pair[:k] + pair[k + 1 :])


def test_four_component_contents_incomplete():
    for content in FOUR_COMPONENT_CONTENTS.values():
        assert not ptc_complete(content)


def conjugate_partner(label: IrrepLabel) -> IrrepLabel:
    """Charge-conjugate partner: energy sign flips and (s, tau) swap."""
    return IrrepLabel(-label.energy_sign, label.tau, label.s)


def test_union_with_conjugate_partners_complete():
    distinct = set(FOUR_COMPONENT_CONTENTS["rep1"]) | set(FOUR_COMPONENT_CONTENTS["rep3"])
    closed = distinct | {conjugate_partner(lab) for lab in distinct}
    assert ptc_complete(closed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_ptc_complete_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    labels = [L(1, "1/2", 0), L(-1, "1/2", 0), L(1, 0, "1/2"), L(-1, 0, "1/2"),
              L(1, 1, 1), L(-1, 1, 1)]
    shuffled = [labels[i] for i in rng.permutation(len(labels))]
    assert ptc_complete(shuffled) == ptc_complete(labels)


def test_multiset_multiplicity_matters():
    labels = [L(1, "1/2", 0), L(1, "1/2", 0), L(-1, "1/2", 0),
              L(1, 0, "1/2"), L(-1, 0, "1/2")]
    assert not ptc_complete(labels)


_SPINS = (Q(0), HALF, Q(1), Q(3, 2))
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
            IrrepLabel(sign * lab.energy_sign, *((lab.tau, lab.s) if swap else (lab.s, lab.tau)))
            for lab in labels
            for sign, swap in moves
        ]
        assert ptc_complete(images) == quartet_ptc_complete(images), moves
    assert ptc_complete(images)


def test_orbit_rule_matches_the_quartet_reference_exhaustively():
    """Every multiset with counts 0 to 2 of the eight labels with
    s, tau in {0, 1/2}: 3^8 multisets, both rules agree on each."""
    labels = [IrrepLabel(sign, s, tau) for sign in (1, -1) for s in (0, HALF) for tau in (0, HALF)]
    complete = 0
    for counts in product(range(3), repeat=len(labels)):
        multiset = [label for label, n in zip(labels, counts) for _ in range(n)]
        assert ptc_complete(multiset) == quartet_ptc_complete(multiset), counts
        complete += ptc_complete(multiset)
    assert complete == 3 ** 3  # free: the (0, 0) pair, the (1/2, 1/2) pair, the quartet


# ---------------------------------------------------------------------------
# spin content


def spin_content(s, tau) -> list:
    """Spins |s - tau|, |s - tau| + 1, ..., s + tau carried by a (s, tau) block."""
    s, tau = half_integer(s), half_integer(tau)
    low, high = abs(s - tau), s + tau
    return [low + k for k in range(int(high - low) + 1)]


def test_spin_content_examples():
    assert spin_content("1/2", "1/2") == [Q(0), Q(1)]
    assert spin_content(Q(3), 0) == [Q(3)]
    assert spin_content("3/2", 1) == [Q(1, 2), Q(3, 2), Q(5, 2)]


def test_label_dimension():
    assert L(1, "1/2", 0).dimension == 2
    assert L(1, "1/2", "1/2").dimension == 4
    with pytest.raises(ValueError):
        L(1, "1/3", 0)


# ---------------------------------------------------------------------------
# massless decomposition


def test_massless_decomposition_has_eight_pieces():
    labels = massless_decompose()
    assert len(labels) == 8
    rendered = [str(l) for l in labels]
    assert "D+(1/2,0)" in rendered and "D+(-1/2,0)" in rendered
    assert massless_pair_count() == 28


def test_massless_total_dimension_matches_parent():
    # 8 one-dimensional helicity pieces against the dim-8 massive content
    assert sum(label.dimension for label in CANONICAL8_CONTENT) == 8
    assert len(massless_decompose()) == 8


def test_massless_label_validation():
    with pytest.raises(ValueError):
        MasslessLabel(1, s_helicity=HALF, t_helicity=HALF)
    with pytest.raises(ValueError):
        MasslessLabel(1)


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    text = "D+(1/2,0)+D-(0,1/2)"
    labels = parse_labels(text)
    assert labels == [L(1, "1/2", 0), L(-1, 0, "1/2")]
    assert "+".join(str(l) for l in labels) == text


def test_parse_errors_carry_position():
    with pytest.raises(LabelParseError) as err:
        parse_labels("D+(1/2,0)+X")
    assert err.value.position == 10
    with pytest.raises(LabelParseError, match="malformed half-integer"):
        parse_labels("D+(1/3,0)")
    with pytest.raises(LabelParseError):
        parse_labels("D+(1/2;0)")
