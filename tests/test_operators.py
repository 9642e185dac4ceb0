import pytest

from ptclab.classify import PRIMITIVE_OPS, momentum_action
from ptclab.expr import E, P1
from ptclab.generators import build_generators
from ptclab.generators import GENERATOR_NAMES
from ptclab.operators import Coefficient, FlagTransform, MomentumOperator, commutator

from oracles import (
    I_UNIT,
    OperatorOrderError,
    adjoint,
    apply_flags,
    bracket,
    compose,
    energy,
    equal_at,
    identity,
    minus,
    order,
    plus,
    position,
    scaled,
    zero,
)


def test_canonical_commutation(points):
    x1 = position(1, 2)
    p1 = MomentumOperator.momentum(1, 2)
    p2 = MomentumOperator.momentum(2, 2)
    ok, resid = equal_at(bracket(x1, p1), scaled(identity(2), 1j), points)
    assert ok and resid < 1e-15
    ok, _ = equal_at(bracket(x1, p2), zero(2), points)
    assert ok


def test_compose_with_zero(points):
    z = zero(4)
    b = position(2, 4)
    assert compose(z, b).terms == {}
    assert compose(b, z).terms == {}


def test_position_energy_bracket(points):
    # [x1, E] = i p1 / E, straight from the chain rule
    x1 = position(1, 4)
    e_op = MomentumOperator.scalar(E, 4)
    expected = MomentumOperator.scalar(I_UNIT * P1 / E, 4)
    ok, resid = equal_at(bracket(x1, e_op), expected, points)
    assert ok, resid
    # E followed by x1 keeps no order-0 piece; x1 followed by E gains one
    assert set(compose(e_op, x1).terms) == {(1, 0, 0)}
    assert set(compose(x1, e_op).terms) == {(0, 0, 0), (1, 0, 0)}


def test_scalar_rotation_bracket(points):
    # [J12, P1] = i P2 for the orbital generators
    dim = 1
    x1, x2 = position(1, dim), position(2, dim)
    p1, p2 = MomentumOperator.momentum(1, dim), MomentumOperator.momentum(2, dim)
    j12 = minus(compose(x1, p2), compose(x2, p1))
    ok, resid = equal_at(bracket(j12, p1), scaled(p2, 1j), points)
    assert ok, resid


def test_bracket_of_operator_with_itself(rep1, points):
    for name in ("P0", "J01"):
        ok, resid = equal_at(bracket(rep1[name], rep1[name]), zero(4), points)
        assert ok and resid == 0.0


def test_equal_at_detects_difference(canonical8, points):
    e_op = MomentumOperator.scalar(E, 8)
    ok, resid = equal_at(canonical8["P0"], e_op, points)
    assert not ok
    # residual is exactly twice the largest sampled energy (the -E block)
    expected = 2 * max(energy(pt) for pt in points)
    assert resid == pytest.approx(expected, rel=1e-12)


def test_apply_flags_examples(canonical8, points):
    flip_p = FlagTransform(eta_p=-1)
    ok, resid = equal_at(apply_flags(canonical8["P0"], flip_p), canonical8["P0"], points)
    assert ok and resid == 0.0  # Gamma0 E is even in p

    p1_op = MomentumOperator.momentum(1, 4)
    ok, _ = equal_at(apply_flags(p1_op, flip_p), scaled(p1_op, -1), points)
    assert ok

    x1 = position(1, 4)
    conj_flip = FlagTransform(eta_p=-1, conj=True)
    ok, resid = equal_at(apply_flags(x1, conj_flip), x1, points)
    assert ok and resid == 0.0


def test_apply_flags_is_homomorphism(rep1, points):
    a, b = rep1["J01"], rep1["P0"]
    for op in PRIMITIVE_OPS.values():
        f = momentum_action(op)
        lhs = apply_flags(compose(a, b), f)
        rhs = compose(apply_flags(a, f), apply_flags(b, f))
        ok, resid = equal_at(lhs, rhs, points, tol=1e-12)
        assert ok, (op.name, resid)


def test_apply_flags_involution(rep1, points):
    for op in PRIMITIVE_OPS.values():
        f = momentum_action(op)
        twice = apply_flags(apply_flags(rep1["J02"], f), f)
        ok, resid = equal_at(twice, rep1["J02"], points, tol=1e-12)
        assert ok, (op.name, resid)


def test_jacobi_identity_spot_check(rep1, points):
    j01, j02, j12 = rep1["J01"], rep1["J02"], rep1["J12"]
    acc = bracket(j01, bracket(j02, j12))
    acc = plus(acc, bracket(j02, bracket(j12, j01)))
    acc = plus(acc, bracket(j12, bracket(j01, j02)))
    ok, resid = equal_at(acc, zero(4), points)
    assert resid < 1e-9, resid


def test_order_cap_rejected():
    x1 = position(1, 2)
    second = compose(x1, x1)
    assert order(second) == 2
    with pytest.raises(OperatorOrderError):
        compose(second, x1)


def test_adjoint_of_position_and_symmetrized_product(points):
    x1 = position(1, 4)
    ok, resid = equal_at(adjoint(x1), x1, points)
    assert ok and resid == 0.0
    e_op = MomentumOperator.scalar(E, 4)
    sym = scaled(plus(compose(x1, e_op), compose(e_op, x1)), 0.5)
    ok, resid = equal_at(adjoint(sym), sym, points)
    assert ok, resid


@pytest.mark.parametrize("kind", ["rep1", "canonical8", "dirac8"])
def test_commutator_matches_oracle_bracket(kind, points):
    """The package's exact commutator equals the oracle's Leibniz-rule
    bracket for all 45 pairs: per multi-index their difference has an empty
    mass-shell normal form, and it is zero at the sample points."""
    g = build_generators(kind)
    zero = Coefficient.scalar(0, g.dim)
    for i, a in enumerate(GENERATOR_NAMES):
        for b in GENERATOR_NAMES[i + 1 :]:
            exact, oracle = commutator(g[a], g[b]), bracket(g[a], g[b])
            for alpha in set(exact.terms) | set(oracle.terms):
                gap = exact.terms.get(alpha, zero) - oracle.terms.get(alpha, zero)
                assert len(gap.on_shell()[1].exps) == 0, (kind, a, b, alpha)
            ok, residual = equal_at(exact, oracle, points, tol=1e-12)
            assert ok, (kind, a, b, residual)


def test_commutator_rejects_second_order_inputs():
    x1 = position(1, 2)
    second = compose(x1, x1)
    with pytest.raises(ValueError):
        commutator(second, x1)
    with pytest.raises(ValueError):
        commutator(x1, second)
