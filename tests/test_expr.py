import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptclab.expr import (
    E,
    LAURENT_VARS,
    MASS,
    TIME,
    VARIABLES,
    Const,
    Var,
    add,
    div,
    intpow,
    mul,
    on_shell,
    sqrt,
)
from ptclab.generators import REP_KINDS, RepId, build_generators, helicity_operator
from ptclab.operators import Coefficient
from ptclab.sampling import Point, env_arrays, sample_points

from oracles import conjugated, mapped


def ev(expr, p1=0.0, p2=0.0, p3=0.0, m=1.0, t=0.0):
    return expr.eval(Point(p1, p2, p3, m, t).env())


def central_diff(expr, point, var, h=1e-6):
    """Finite-difference oracle; E is recomputed from the perturbed point."""
    fields = {name: getattr(point, name) for name in ("p1", "p2", "p3", "m", "t")}
    up = dict(fields)
    up[var] += h
    down = dict(fields)
    down[var] -= h
    return (expr.eval(Point(**up).env()) - expr.eval(Point(**down).env())) / (2 * h)


def test_energy_derivative_chain_rule():
    # forced by the chain rule: dE/dp1 at p=(1,0,0), m=1 is 1/sqrt(2)
    assert ev(E.diff("p1"), p1=1.0, m=1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_product_derivative():
    expr = mul(Var("p1"), Var("p2"))
    assert ev(expr.diff("p1"), p1=0.3, p2=-1.25) == pytest.approx(-1.25, abs=0)


def test_inverse_energy_derivative_value():
    # d(1/E)/dp2 = -p2/E^3; at p=(0,3,0), m=4 the energy is 5, so -3/125
    expr = div(Const(1), E)
    point = Point(0.0, 3.0, 0.0, 4.0, 0.0)
    exact = expr.diff("p2").eval(point.env())
    assert exact == pytest.approx(-3 / 125, abs=1e-15)
    fd = central_diff(expr, point, "p2")
    assert abs(exact - fd) < 1e-8


def test_energy_even_under_flips():
    point = Point(0.7, -1.1, 0.4, 1.3, 0.2).env()
    for signs in ({"p1": -1, "p2": -1, "p3": -1}, {"m": -1}):
        assert mapped(E, signs, False).eval(point) == E.eval(point)


def test_mass_flip_substitutes_but_energy_untouched():
    expr = mul(MASS, div(Var("p1"), E))
    point = Point(0.5, 0.1, -0.2, 1.4, 0.0).env()
    flipped = mapped(expr, {"m": -1}, False)
    assert flipped.eval(point) == pytest.approx(-expr.eval(point), abs=1e-15)


def test_conjugation_hits_constants_only():
    expr = mul(Const(2j), add(Var("p1"), mul(Const(1 - 1j), TIME)))
    point = Point(0.9, 0.0, 0.0, 1.0, 0.7).env()
    assert conjugated(expr).eval(point) == np.conj(expr.eval(point))


def test_sqrt_derivative():
    expr = sqrt(mul(2, mul(E, add(E, MASS))))
    point = Point(0.8, -0.5, 1.2, 1.1, 0.0)
    fd = central_diff(expr, point, "p1")
    exact = expr.diff("p1").eval(point.env())
    assert abs(exact - fd) < 1e-7


def test_integer_power_and_negative_exponent():
    expr = intpow(E, -2)
    point = Point(1.0, 2.0, 2.0, 0.0, 0.0)  # E = 3
    assert expr.eval(point.env()) == pytest.approx(1 / 9, abs=1e-15)
    assert expr.diff("p1").eval(point.env()) == pytest.approx(-2 / 81, abs=1e-15)


def _random_expr(rng, probe, depth):
    """Random tree whose divisions stay away from zero at the probe point."""
    leaves = [Var("p1"), Var("p2"), Var("p3"), MASS, E, Const(rng.uniform(-2, 2))]
    if depth == 0:
        return leaves[rng.integers(0, len(leaves))]
    choice = rng.integers(0, 5)
    a = _random_expr(rng, probe, depth - 1)
    b = _random_expr(rng, probe, depth - 1)
    if choice == 0:
        return add(a, b)
    if choice == 1:
        return mul(a, b)
    if choice == 2:
        denom = add(mul(b, b), Const(rng.uniform(0.5, 2.0)))
        return div(a, denom)
    if choice == 3:
        return intpow(a, int(rng.integers(2, 4)))
    return add(mul(Const(1j), a), b)


def test_derivative_matches_finite_differences_on_100_expressions():
    rng = np.random.default_rng(0x5EED)
    probe = Point(0.83, -0.41, 1.27, 1.15, 0.3)
    checked = 0
    while checked < 100:
        expr = _random_expr(rng, probe, depth=int(rng.integers(1, 4)))
        var = ("p1", "p2", "p3", "m")[rng.integers(0, 4)]
        exact = expr.diff(var).eval(probe.env())
        fd = central_diff(expr, probe, var)
        scale = max(1.0, abs(exact), abs(fd))
        assert abs(exact - fd) / scale < 1e-7, (expr, var)
        checked += 1


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=2, max_size=2
    ),
    var=st.sampled_from(["p1", "p2", "m"]),
)
def test_product_rule_property(coeffs, var):
    a = add(mul(Const(coeffs[0]), Var("p1")), E)
    b = add(mul(Const(coeffs[1]), MASS), intpow(Var("p2"), 2))
    point = Point(0.6, -0.9, 0.35, 1.2, 0.0).env()
    lhs = mul(a, b).diff(var).eval(point)
    rhs = (add(mul(a.diff(var), b), mul(a, b.diff(var)))).eval(point)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# Laurent expansion

# the eight generator sets: the five representations and the negative-energy
# four-component sets
GENERATOR_SETS = [(kind, 1) for kind in REP_KINDS] + [
    (kind, -1) for kind in ("rep1", "rep2", "rep3")
]


def _all_scalars():
    """Every coefficient scalar of the eight generator sets and of both
    helicity operators."""
    operators = [
        op
        for kind, sign in GENERATOR_SETS
        for op in build_generators(RepId(kind, sign)).ops.values()
    ]
    operators += [helicity_operator("s"), helicity_operator("t")]
    return [x for op in operators for c in op.terms.values() for x in c.scalars]


def _laurent_eval(poly, env):
    """sum_b c_b x^b with every power taken here."""
    total = 0.0
    for exps, c in poly.items():
        term = c
        for name, k in zip(LAURENT_VARS, exps):
            term = term * env[name] ** float(k)
        total = total + term
    return total


def _formal_diff(poly, var):
    """d/dvar of a Laurent polynomial, E differentiated by the chain rule:
    dE/dp_a = p_a / E and dE/dm = m / E."""
    axis = LAURENT_VARS.index(var)
    energy = LAURENT_VARS.index("E")
    out = {}
    for exps, c in poly.items():
        terms = []
        if exps[axis]:
            lowered = list(exps)
            lowered[axis] -= 1
            terms.append((tuple(lowered), c * exps[axis]))
        if exps[energy] and var != "t":
            chained = list(exps)
            chained[axis] += 1
            chained[energy] -= 2
            terms.append((tuple(chained), c * exps[energy]))
        for key, value in terms:
            out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v != 0}


def test_laurent_matches_eval_on_every_generator_scalar():
    env = env_arrays(sample_points())
    scalars = _all_scalars()
    assert len(scalars) > 100
    for x in scalars:
        direct = np.asarray(x.eval(env)) * np.ones_like(env["E"])
        expanded = _laurent_eval(x.laurent(), env) * np.ones_like(env["E"])
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(expanded - direct)) <= 1e-13 * scale, x


def test_laurent_of_a_derivative_is_the_formal_derivative():
    memo = {}
    for x in _all_scalars():
        for var in VARIABLES:
            got = x.diff(var).laurent(memo)
            want = _formal_diff(x.laurent(memo), var)
            assert sorted(got) == sorted(want), (x, var)
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-15 * abs(value), (x, var, key)


def test_laurent_rejects_square_roots_and_non_monomial_divisors():
    with pytest.raises(ValueError):
        sqrt(add(E, MASS)).laurent()
    with pytest.raises(ValueError):
        div(Var("p1"), add(E, MASS)).laurent()
    with pytest.raises(ValueError):
        intpow(add(E, MASS), -1).laurent()
    # a monomial divisor is fine: p1 / (2 E^2) = 0.5 p1 E^-2
    assert div(Var("p1"), mul(2, intpow(E, 2))).laurent() == {(1, 0, 0, 0, 0, -2): 0.5}


def test_on_shell_block_that_vanishes_through_the_mass_shell_yields_no_equation():
    """E^2 - p1^2 - p2^2 - p3^2 - m^2 is a nonzero Laurent polynomial in
    the free variable E but zero on the mass shell: its normal form has no
    monomial, while a block that does not vanish keeps its equations."""
    shell = [mul(E, E), mul(-1, intpow(Var("p1"), 2)), mul(-1, intpow(Var("p2"), 2)),
             mul(-1, intpow(Var("p3"), 2)), mul(-1, intpow(MASS, 2))]
    mat = np.array([[1.0, 2j], [0.0, -1.0]])
    vanishing = Coefficient([mat] * 5, shell)
    assert len(add(shell[0], shell[1]).laurent()) == 2
    shift, exps, mats = vanishing.on_shell()
    assert shift == 0 and exps.shape == (0, 6) and mats.shape == (0, 2, 2)
    # (E^2 - p1^2) / E^3: shift 4 clears E^-3, leaving E (p2^2 + p3^2 + m^2)
    kept = Coefficient([mat, mat], [div(1, E), div(mul(-1, intpow(Var("p1"), 2)), intpow(E, 3))])
    shift, exps, mats = kept.on_shell()
    assert shift == 4
    assert exps.tolist() == [[0, 0, 0, 2, 0, 1], [0, 0, 2, 0, 0, 1], [0, 2, 0, 0, 0, 1]]
    assert all(np.array_equal(m, mat) for m in mats)


def test_on_shell_expands_even_powers_of_the_energy():
    poly = intpow(E, 4).laurent()
    reduced = on_shell(poly, 0)
    # (p1^2 + p2^2 + p3^2 + m^2)^2: 4 squares and 6 cross terms of weight 2
    assert len(reduced) == 10
    assert sorted(reduced.values(), key=abs) == [1] * 4 + [2] * 6
    env = env_arrays(sample_points(count=3))
    assert np.allclose(_laurent_eval(reduced, env), env["E"] ** 4, rtol=1e-14, atol=0)
    with pytest.raises(ValueError):
        on_shell(intpow(E, -3).laurent(), 2)
