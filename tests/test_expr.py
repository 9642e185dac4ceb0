import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptclab.expr import (
    E,
    LAURENT_VARS,
    MASS,
    MOMENTA,
    MOMENTUM_VARS,
    ONE,
    TIME,
    VARIABLES,
    Expr,
    FlagTransform,
    flag_signs,
)
from ptclab.generators import (
    REP_KINDS,
    RepId,
    _connector_numerator,
    build_generators,
    helicity_operator,
)
from ptclab.operators import (
    ZERO_INDEX,
    Coefficient,
    MomentumOperator,
    commutator,
    index_add,
    index_order,
)

from oracles import (
    Point,
    arrays,
    conjugated,
    env_arrays,
    evaluate,
    mapped,
    monomials,
    sample_points,
)

PROBE = Point(0.83, -0.41, 1.27, 1.15, 0.3)


def ev(expr, p1=0.0, p2=0.0, p3=0.0, m=1.0, t=0.0):
    return evaluate(expr, env_arrays([Point(p1, p2, p3, m, t)]))[0]


def central_diff(expr, point, var, h=1e-6):
    """Finite-difference oracle; E is recomputed from the perturbed point."""
    fields = point._asdict()
    up = dict(fields, **{var: fields[var] + h})
    down = dict(fields, **{var: fields[var] - h})
    return (ev(expr, **up) - ev(expr, **down)) / (2 * h)


# random Laurent polynomials: p, m, t to small powers, E to either sign
_ROWS = st.tuples(
    *[st.integers(0, 3)] * 3, st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3),
)
_COMPLEX = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def _polynomials(max_terms=5):
    def build(terms):
        exps = np.array([row for row, _ in terms], dtype=int).reshape(-1, len(LAURENT_VARS))
        return Expr(exps, [c for _, c in terms])

    return st.lists(st.tuples(_ROWS, _COMPLEX), max_size=max_terms).map(build)


def _size(x, env):
    """sum_k |c_k| |x^e_k| point by point: the size of the terms an
    evaluation of x rounds, with a matrix coefficient's largest entry."""
    exps, coeffs = arrays(x)
    coeffs = np.abs(coeffs).reshape(len(coeffs), math.prod(coeffs.shape[1:]))
    return np.abs(monomials(exps, env)) @ coeffs.max(axis=1, initial=0)


def _close(got, want, rel, size):
    """got equals want within rel (1 + size) at every point, size per point."""
    size = np.reshape(1 + size, np.shape(size) + (1,) * (np.ndim(got) - np.ndim(size)))
    return bool(np.all(np.abs(np.asarray(got) - want) <= rel * size))


# ---------------------------------------------------------------------------
# values and derivatives at fixed points


def test_energy_derivative_chain_rule():
    # forced by the chain rule: dE/dp1 at p=(1,0,0), m=1 is 1/sqrt(2)
    assert ev(E.diff("p1"), p1=1.0, m=1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_product_derivative():
    expr = MOMENTA[0] * MOMENTA[1]
    assert ev(expr.diff("p1"), p1=0.3, p2=-1.25) == pytest.approx(-1.25, abs=0)


def test_inverse_energy_derivative_value():
    # d(1/E)/dp2 = -p2/E^3; at p=(0,3,0), m=4 the energy is 5, so -3/125
    expr = 1 / E
    point = Point(0.0, 3.0, 0.0, 4.0, 0.0)
    exact = ev(expr.diff("p2"), **point._asdict())
    assert exact == pytest.approx(-3 / 125, abs=1e-15)
    assert abs(exact - central_diff(expr, point, "p2")) < 1e-8


def test_integer_power_and_negative_exponent():
    expr = E ** -2
    point = dict(p1=1.0, p2=2.0, p3=2.0, m=0.0)  # E = 3
    assert ev(expr, **point) == pytest.approx(1 / 9, abs=1e-15)
    assert ev(expr.diff("p1"), **point) == pytest.approx(-2 / 81, abs=1e-15)
    assert np.array_equal((E ** 3).exps, [[0, 0, 0, 0, 0, 3]])
    assert (MASS + E) ** 0 is ONE


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expr=_polynomials(), var=st.sampled_from(("p1", "p2", "p3", "m", "t")))
def test_derivative_matches_finite_differences_on_100_expressions(expr, var):
    exact = ev(expr.diff(var), **PROBE._asdict())
    fd = central_diff(expr, PROBE, var)
    scale = max(1.0, abs(exact), abs(fd))
    assert abs(exact - fd) / scale < 1e-7, (expr, var)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=2, max_size=2),
    var=st.sampled_from(["p1", "p2", "m"]),
)
def test_product_rule_property(coeffs, var):
    a = coeffs[0] * MOMENTA[0] + E
    b = coeffs[1] * MASS + MOMENTA[1] ** 2 + 1 / E
    point = PROBE._asdict()
    lhs = ev((a * b).diff(var), **point)
    rhs = ev(a.diff(var) * b + a * b.diff(var), **point)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# the algebra


@settings(max_examples=60, deadline=None)
@given(a=_polynomials(), b=_polynomials(), c=_COMPLEX)
def test_eval_is_a_ring_homomorphism(a, b, c):
    env = env_arrays(sample_points(count=4))
    va, vb = evaluate(a, env), evaluate(b, env)
    sa, sb = _size(a, env), _size(b, env)
    assert _close(evaluate(a + b, env), va + vb, 1e-13, sa + sb)
    assert _close(evaluate(a - b, env), va - vb, 1e-13, sa + sb)
    assert _close(evaluate(c * a + 1, env), c * va + 1, 1e-13, abs(c) * sa)
    assert _close(evaluate(a * b, env), va * vb, 1e-13, sa * sb)
    # equal monomials are merged and zero coefficients dropped
    rows = [tuple(r) for r in np.asarray((a * b).exps).tolist()]
    assert len(set(rows)) == len(rows)
    assert len((a - a).exps) == 0


@settings(max_examples=40, deadline=None)
@given(x=_polynomials(), k=st.integers(0, 3))
def test_scalar_times_matrix_coefficient(x, k):
    """A Coefficient shares the scalar algebra: scaling by a scalar
    expression, left factors and derivatives act matrix by matrix."""
    env = env_arrays(sample_points(count=3))
    mats = np.arange(2 * 4 * 4).reshape(2, 4, 4) * (1 + 0.5j) - 7
    scalars = [MOMENTA[k % 3] / E, TIME * E]
    c = Coefficient(mats, scalars)
    left = np.eye(4)[::-1] * 2j
    assert isinstance(x * c, Coefficient) and isinstance(c.scale(x), Coefficient)
    size = _size(x, env) * _size(c, env)
    scaled = evaluate(x, env)[:, None, None] * evaluate(c, env)
    assert _close(evaluate(c.scale(x), env), scaled, 1e-13, size)
    assert _close(evaluate(c.lmul(left), env), left @ evaluate(c, env), 1e-13, 2 * _size(c, env))
    var = VARIABLES[k]
    by_matrix = sum(m * evaluate(s.diff(var), env)[:, None, None] for m, s in zip(mats, scalars))
    size = sum(np.abs(m).max() * _size(s.diff(var), env) for m, s in zip(mats, scalars))
    assert _close(evaluate(c.diff(var), env), by_matrix, 1e-13, size)


@settings(max_examples=60, deadline=None)
@given(
    x=_polynomials(),
    flags=st.builds(
        FlagTransform, st.sampled_from((1, -1)), st.sampled_from((1, -1)),
        st.sampled_from((1, -1)), st.booleans(),
    ),
)
def test_sign_map_equals_evaluation_at_reflected_points(x, flags):
    """sign * [conj] coefficient per monomial, evaluated at (p, m, t), is
    [conj] x evaluated at (eta_p p, eta_m m, eta_t t)."""
    points = sample_points(count=4)
    reflected = [
        Point(flags.eta_p * p.p1, flags.eta_p * p.p2, flags.eta_p * p.p3,
              flags.eta_m * p.m, flags.eta_t * p.t)
        for p in points
    ]
    exps, coeffs = arrays(x)
    coeffs = coeffs.conj() if flags.conj else coeffs
    signed = Expr(exps, flag_signs(exps, flags) * coeffs)
    env = env_arrays(points)
    want = evaluate(x, env_arrays(reflected))
    assert _close(evaluate(signed, env), want.conj() if flags.conj else want, 1e-13, _size(x, env))


def test_energy_even_under_flips():
    env = env_arrays([PROBE])
    for flags in (FlagTransform(eta_p=-1), FlagTransform(eta_m=-1), FlagTransform(eta_t=-1)):
        assert evaluate(mapped(E, flags), env) == evaluate(E, env)


def test_mass_flip_substitutes_but_energy_untouched():
    expr = MASS * MOMENTA[0] / E
    env = env_arrays([Point(0.5, 0.1, -0.2, 1.4, 0.0)])
    flipped = mapped(expr, FlagTransform(eta_m=-1))
    assert evaluate(flipped, env) == pytest.approx(-evaluate(expr, env), abs=1e-15)


def test_conjugation_hits_constants_only():
    expr = 2j * (MOMENTA[0] + (1 - 1j) * TIME)
    env = env_arrays([Point(0.9, 0.0, 0.0, 1.0, 0.7)])
    assert evaluate(conjugated(expr), env) == np.conj(evaluate(expr, env))


# ---------------------------------------------------------------------------
# every generator coefficient, and the mass-shell normal form

# the eight generator sets: the five representations and the negative-energy
# four-component sets
GENERATOR_SETS = [(kind, 1) for kind in REP_KINDS] + [
    (kind, -1) for kind in ("rep1", "rep2", "rep3")
]


def _all_coefficients():
    """Every coefficient of the eight generator sets and of both helicity
    operators."""
    operators = [
        op
        for kind, sign in GENERATOR_SETS
        for op in build_generators(RepId(kind, sign)).ops.values()
    ]
    operators += [helicity_operator("s"), helicity_operator("t")]
    return [c for op in operators for c in op.terms.values()]


def _rows_eval(exps, mats, env):
    """sum_b M_b x^b with every power taken here, point by point."""
    total = 0.0
    for row, mat in zip(exps, mats):
        weight = np.ones_like(env["E"])
        for name, k in zip(LAURENT_VARS, row):
            weight = weight * env[name] ** float(k)
        total = total + weight[:, None, None] * mat
    return total


def _formal_diff(exps, mats, var):
    """d/dvar of sum_b M_b x^b as a dict from exponent tuples, with the
    atom differentiated by hand: dE/dv = v / E."""
    axis = {name: k for k, name in enumerate(LAURENT_VARS)}

    def moved(row, **shift):
        out = list(row)
        for name, k in shift.items():
            out[axis[name]] += k
        return tuple(out)

    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for row, mat in zip(map(tuple, exps.tolist()), mats):
        if row[axis[var]]:
            add(moved(row, **{var: -1}), row[axis[var]] * mat)
        if var == "t":
            continue
        if row[axis["E"]]:
            add(moved(row, **{var: 1}, E=-2), row[axis["E"]] * mat)
    return {key: value for key, value in out.items() if np.any(value != 0)}


def test_laurent_matches_eval_on_every_generator_scalar():
    """Every generator coefficient evaluates to its rows summed by hand, and
    its mass-shell normal form to E^shift times it, with no power of E
    beyond the first."""
    env = env_arrays(sample_points())
    coefficients = _all_coefficients()
    assert len(coefficients) > 100
    energy = env["E"][:, None, None]
    for c in coefficients:
        direct = evaluate(c, env)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(_rows_eval(*arrays(c), env) - direct)) <= 1e-13 * scale, c
        shift, form = c.on_shell()
        assert isinstance(form, Coefficient) and shift % 2 == 0
        assert set(arrays(form)[0][:, LAURENT_VARS.index("E")].tolist()) <= {0, 1}
        reduced = evaluate(form, env)
        assert np.max(np.abs(reduced - energy ** shift * direct)) <= 1e-12 * scale * 10 ** shift


def test_laurent_of_a_derivative_is_the_formal_derivative():
    for c in _all_coefficients() + [_connector_numerator()]:
        for var in VARIABLES:
            got = c.diff(var)
            want = _formal_diff(*arrays(c), var)
            got_exps, got_mats = arrays(got)
            assert sorted(map(tuple, got_exps.tolist())) == sorted(want), (c, var)
            for row, mat in zip(map(tuple, got_exps.tolist()), got_mats):
                assert np.all(np.abs(mat - want[row]) <= 1e-15 * np.abs(want[row])), (c, var, row)


def test_laurent_rejects_square_roots_and_non_monomial_divisors():
    with pytest.raises(ValueError):
        MOMENTA[0] / (E + MASS)
    with pytest.raises(ValueError):
        (E + MASS) ** -1
    with pytest.raises(TypeError):
        Coefficient.constant(np.eye(2)) ** -1
    # a monomial divisor is fine: p1 / (2 E^2) = 0.5 p1 E^-2
    half = MOMENTA[0] / (2 * E ** 2)
    assert np.asarray(half.exps).tolist() == [[1, 0, 0, 0, 0, -2]]
    assert np.asarray(half.coeffs).tolist() == [0.5]


@settings(max_examples=60, deadline=None)
@given(x=_polynomials())
def test_on_shell_equals_the_input_on_the_mass_shell(x):
    env = env_arrays(sample_points(count=4))
    shift, form = x.on_shell()
    assert shift % 2 == 0 and shift >= 0
    exps = arrays(form)[0]
    assert set(exps[:, LAURENT_VARS.index("E")].tolist()) <= {0, 1}
    rows = exps.tolist()
    assert rows == sorted(rows)
    direct = env["E"] ** shift * evaluate(x, env)
    assert _close(evaluate(form, env), direct, 1e-13, env["E"] ** shift * _size(x, env))


def test_on_shell_block_that_vanishes_through_the_mass_shell_yields_no_equation():
    """E^2 - p1^2 - p2^2 - p3^2 - m^2 is a nonzero Laurent polynomial in
    the free variable E but zero on the mass shell: its normal form has no
    monomial, while a block that does not vanish keeps its equations."""
    shell = [E * E, -MOMENTA[0] ** 2, -MOMENTA[1] ** 2, -MOMENTA[2] ** 2, -MASS ** 2]
    mat = np.array([[1.0, 2j], [0.0, -1.0]])
    vanishing = Coefficient([mat] * 5, shell)
    assert len(vanishing.exps) == 5
    shift, form = vanishing.on_shell()
    exps, mats = arrays(form)
    assert shift == 0 and exps.shape == (0, 6) and mats.shape == (0, 2, 2)
    # (E^2 - p1^2) / E^3: shift 4 clears E^-3, leaving E (p2^2 + p3^2 + m^2)
    kept = Coefficient([mat, mat], [1 / E, -MOMENTA[0] ** 2 / E ** 3])
    shift, form = kept.on_shell()
    assert shift == 4
    assert np.asarray(form.exps).tolist() == [
        [0, 0, 0, 2, 0, 1], [0, 0, 2, 0, 0, 1], [0, 2, 0, 0, 0, 1]
    ]
    assert all(np.array_equal(m, mat) for m in form.mats)


def test_on_shell_expands_even_powers_of_the_energy():
    shift, reduced = (E ** 4).on_shell()
    # (p1^2 + p2^2 + p3^2 + m^2)^2: 4 squares and 6 cross terms of weight 2
    assert shift == 0 and len(reduced.exps) == 10
    assert sorted(np.asarray(reduced.coeffs).real.tolist()) == [1] * 4 + [2] * 6
    env = env_arrays(sample_points(count=3))
    assert np.allclose(evaluate(reduced, env), env["E"] ** 4, rtol=1e-14, atol=0)
    # E^-3 needs E^4: E^4 / E^3 = E
    shift, reduced = (E ** -3).on_shell()
    assert shift == 4 and np.asarray(reduced.exps).tolist() == [[0, 0, 0, 0, 0, 1]]


# ---------------------------------------------------------------------------
# the plain-Python core against dense numpy, exactly

# Gaussian dyadic entries: every sum and product of a few of them is exact
_DYADIC = st.builds(
    lambda re, im, k: complex(re, im) / 2 ** k,
    st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),
)
_DIM = 3


@st.composite
def _sparse_rows(draw):
    """(exps (K, 6), mats (K, d, d)): up to four rows, each matrix with up to
    d nonzero Gaussian dyadic entries, rows possibly repeated."""
    exps = np.array(draw(st.lists(_ROWS, max_size=4)), dtype=int).reshape(-1, len(LAURENT_VARS))
    mats = np.zeros((len(exps), _DIM, _DIM), dtype=complex)
    for mat in mats:
        for _ in range(draw(st.integers(1, _DIM))):
            i, j = draw(st.integers(0, _DIM - 1)), draw(st.integers(0, _DIM - 1))
            mat[i, j] = draw(_DYADIC)
    return exps, mats


def _dense_terms(exps, mats) -> dict:
    """{row: matrix} with equal rows summed and zero matrices dropped."""
    out = {}
    for row, mat in zip(map(tuple, np.asarray(exps).tolist()), mats):
        out[row] = out.get(row, 0) + mat
    return {row: mat for row, mat in out.items() if mat.any()}


def _equal(core, want: dict) -> bool:
    """The core coefficient has exactly the rows of want, distinct, with
    array_equal matrices."""
    exps, mats = arrays(core)
    got = dict(zip(map(tuple, exps.tolist()), mats))
    return (
        len(got) == len(exps)
        and got.keys() == want.keys()
        and all(np.array_equal(got[row], want[row]) for row in want)
    )


def _dense_product(a, b) -> dict:
    (ea, ma), (eb, mb) = a, b
    exps = (ea[:, None] + eb[None]).reshape(-1, len(LAURENT_VARS))
    return _dense_terms(exps, np.matmul(ma[:, None], mb[None]).reshape(-1, _DIM, _DIM))


def _rows(terms: dict):
    exps = np.array(list(terms), dtype=int).reshape(-1, len(LAURENT_VARS))
    return exps, np.array(list(terms.values()), dtype=complex).reshape(-1, _DIM, _DIM)


def _dense_on_shell(exps, mats):
    """(shift, {row: matrix}): E^shift times the rows, with E^2 replaced by
    p1^2 + p2^2 + p3^2 + m^2 one square at a time until no power of E above
    the first is left."""
    axis = LAURENT_VARS.index("E")
    shift = -int(exps[:, axis].min(initial=0))
    shift += shift % 2
    unit = np.arange(len(LAURENT_VARS)) == axis
    todo = [(row + shift * unit, mat) for row, mat in zip(exps, mats)]
    done = []
    while todo:
        row, mat = todo.pop()
        if row[axis] < 2:
            done.append((row, mat))
            continue
        for name in ("p1", "p2", "p3", "m"):
            square = row.copy()
            square[axis] -= 2
            square[LAURENT_VARS.index(name)] += 2
            todo.append((square, mat))
    return shift, _dense_terms([row for row, _ in done], [mat for _, mat in done])


@settings(max_examples=80, deadline=None)
@given(
    a=_sparse_rows(), b=_sparse_rows(), shell=_sparse_rows(),
    left=_sparse_rows(), var=st.sampled_from(VARIABLES),
)
def test_core_matches_dense_numpy_exactly(a, b, shell, left, var):
    """Sparse Gaussian dyadic coefficients: the product, a constant left
    factor, the adjoint, a derivative and the mass-shell normal form of the
    core equal their dense numpy counterparts entry for entry."""
    ca, cb = (Coefficient.from_rows(*x, _DIM) for x in (a, b))
    assert _equal(ca, _dense_terms(*a))
    assert _equal(ca @ cb, _dense_product(_rows(_dense_terms(*a)), _rows(_dense_terms(*b))))
    factor = sum(left[1]) if len(left[1]) else np.eye(_DIM)
    assert _equal(ca.lmul(factor), _dense_terms(a[0], factor @ a[1]))
    assert _equal(ca.dagger(), _dense_terms(a[0], a[1].conj().transpose(0, 2, 1)))
    assert _equal(ca.diff(var), _formal_diff(*_rows(_dense_terms(*a)), var))
    shift, form = Coefficient.from_rows(*shell, _DIM).on_shell()
    want_shift, want = _dense_on_shell(*_rows(_dense_terms(*shell)))
    assert shift == want_shift and _equal(form, want)
    assert list(form.exps) == sorted(form.exps)


_UNITS = (ZERO_INDEX, (1, 0, 0), (0, 1, 0), (0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(
    a=st.dictionaries(st.sampled_from(_UNITS), _sparse_rows(), min_size=1, max_size=3),
    b=st.dictionaries(st.sampled_from(_UNITS), _sparse_rows(), min_size=1, max_size=3),
)
def test_commutator_matches_dense_numpy_exactly(a, b):
    """The exact commutator of two order <= 1 operators with sparse Gaussian
    dyadic coefficients equals the same Leibniz formula in dense numpy:
    sum A_alpha B_beta d^(alpha+beta) + sum_{|alpha|=1} A_alpha (d_alpha
    B_beta) d^beta - (A <-> B), per multi-index."""
    a = {alpha: _rows(_dense_terms(*x)) for alpha, x in a.items()}
    b = {alpha: _rows(_dense_terms(*x)) for alpha, x in b.items()}
    want = {}
    for sign, x, y in ((1, a, b), (-1, b, a)):
        for alpha, xc in x.items():
            for beta, yc in y.items():
                products = [(index_add(alpha, beta), yc)]
                if index_order(alpha) == 1:
                    derivative = _formal_diff(*yc, MOMENTUM_VARS[alpha.index(1)])
                    products.append((beta, _rows(derivative)))
                for index, right in products:
                    terms = want.setdefault(index, {})
                    for row, mat in _dense_product(xc, right).items():
                        terms[row] = terms.get(row, 0) + sign * mat
    want = {index: _dense_terms(*_rows(t)) for index, t in want.items()}
    want = {index: t for index, t in want.items() if t}

    def operator(terms):
        return MomentumOperator(_DIM, {
            alpha: Coefficient.from_rows(*rows, _DIM) for alpha, rows in terms.items()
        })

    got = commutator(operator(a), operator(b)).terms
    assert got.keys() == want.keys()
    assert all(_equal(got[index], want[index]) for index in want)
