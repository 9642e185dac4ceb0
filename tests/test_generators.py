import numpy as np
import pytest
import scipy.linalg

from ptclab.clifford import cached_basis, cached_spin
from ptclab.expr import LAURENT_VARS, E, MASS, MOMENTA, TIME
from ptclab.generators import (
    GENERATOR_NAMES,
    REP_KINDS,
    GeneratorSet,
    _canonical_numerator,
    _connector_numerator,
    _shell_residual,
    build_generators,
    charge_check,
    check_algebra,
    dirac_hamiltonian8,
    helicity_check,
    helicity_operator,
    scalar_generator_set,
    structure_constants,
)
from ptclab.labels import IrrepLabel
from ptclab.operators import (
    ZERO_INDEX,
    Coefficient,
    MomentumOperator,
    commutator,
    index_order,
)

import oracles
from oracles import (
    Point,
    adjoint,
    arrays,
    bracket,
    canonical_transform_at,
    compose,
    connector_at,
    energy,
    env_arrays,
    equal_at,
    eval_operator,
    minus,
    order,
    plus,
    position,
    sample_points,
    scaled,
    spectral_projector,
    subspace_decomposition,
    zero,
)


def _matrix_at(op, points):
    env = env_arrays(points)
    return eval_operator(op, env)[(0, 0, 0)]


# ---------------------------------------------------------------------------
# the diagonalizing unitary U / sqrt(2), from the package's numerator U


def test_canonical_transform_at_rest():
    rest = Point(0.0, 0.0, 0.0, 1.0, 0.0)
    u = canonical_transform_at(env_arrays([rest]))[0]
    basis = cached_basis(8)
    expected = (np.eye(8) + np.asarray(basis.gamma(4))) / np.sqrt(2)
    assert np.allclose(u, expected, atol=1e-15)


def test_canonical_transform_unitary_100_samples(points100):
    u = canonical_transform_at(env_arrays(points100))
    resid = np.max(np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(8)))
    assert resid < 1e-10


def test_canonical_transform_diagonalizes(points100):
    env = env_arrays(points100)
    u = canonical_transform_at(env)
    h8 = _matrix_at(dirac_hamiltonian8(), points100)
    target = np.asarray(cached_basis(8).gamma0)[None, :, :] * env["E"][:, None, None]
    resid = np.max(np.abs(u @ h8 @ u.conj().transpose(0, 2, 1) - target))
    assert resid < 1e-10


def test_exponential_equals_closed_form(points100):
    """The generator of the transform squares to -1, so the exponential
    collapses to the closed form; checked against an independent expm."""
    env = env_arrays(points100)
    h8 = _matrix_at(dirac_hamiltonian8(), points100)
    u = canonical_transform_at(env)
    gamma0 = np.asarray(cached_basis(8).gamma0)
    worst = 0.0
    for k in range(0, len(points100), 5):
        a = gamma0 @ h8[k] / env["E"][k]
        assert np.max(np.abs(a @ a + np.eye(8))) < 1e-12
        worst = max(worst, float(np.max(np.abs(scipy.linalg.expm(np.pi / 4 * a) - u[k]))))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# the canonical-form connector N / sqrt(2E(E + m)), from the package's numerator N


def test_connector_is_identity_at_rest():
    u1 = connector_at(env_arrays([Point(0.0, 0.0, 0.0, 1.3, 0.0)]))[0]
    assert np.allclose(u1, np.eye(4), atol=1e-15)


def test_connector_unitary_100_samples(points100):
    u1 = connector_at(env_arrays(points100))
    resid = np.max(np.abs(u1.conj().transpose(0, 2, 1) @ u1 - np.eye(4)))
    assert resid < 1e-10


def _connector_gap(c: Coefficient) -> Coefficient:
    """N C N^H - 2E(E + m) C: since N N^H = N^H N = 2E(E + m), the connector
    u1 = N / sqrt(2E(E + m)) keeps C, u1 C u1^H = C, iff this vanishes on
    the mass shell."""
    n = _connector_numerator()
    return n @ c @ n.dagger() - c.scale(2 * E * (E + MASS))


def test_connector_preserves_orbital_part(rep1):
    """Conjugating a boost by the connector can only move its constant-matrix
    part: u1 C_a u1^H = C_a for every derivative coefficient C_a, exactly."""
    for a in (1, 2, 3):
        for alpha, c in rep1[f"J0{a}"].terms.items():
            if alpha != ZERO_INDEX:
                assert len(_connector_gap(c).on_shell()[1].exps) == 0, (a, alpha)


def test_connector_difference_time_independent(rep1):
    """The order-0 part of u1 J01 u1^H - J01 has no explicit time dependence:
    the rows of N C_0 N^H - 2E(E + m) C_0 with a power of t vanish, while
    C_0 itself carries t p_1.  Its other term, u1 C_1 d_1(u1^H), holds no t,
    since neither C_1 = -i H nor u1 does."""
    t_axis = LAURENT_VARS.index("t")
    c0 = rep1["J01"].terms[ZERO_INDEX]
    assert any(row[t_axis] for row in c0.exps)
    form = _connector_gap(c0).on_shell()[1]
    assert not any(row[t_axis] for row in form.exps)


# ---------------------------------------------------------------------------
# structure constants and closure


def test_structure_constants_are_gaussian_integers():
    constants = structure_constants()
    assert len(constants) == 45
    for coeffs in constants.values():
        for c in coeffs:
            assert c == complex(round(c.real), round(c.imag))


def test_structure_constants_known_entries():
    constants = structure_constants()
    idx = {n: i for i, n in enumerate(GENERATOR_NAMES)}
    # [P1, J12] = -i P2  (equivalently [J12, P1] = i P2)
    vec = constants[(idx["P1"], idx["J12"])]
    assert vec[idx["P2"]] == -1j
    assert sum(abs(c) for c in vec) == 1
    # translations commute
    vec = constants[(idx["P1"], idx["P2"])]
    assert all(c == 0 for c in vec)
    # boosts close on a rotation
    vec = constants[(idx["J01"], idx["J02"])]
    assert abs(vec[idx["J12"]]) == 1


def test_structure_constants_close_the_oracle_brackets(points):
    """On the scalar set the oracle's Leibniz-rule bracket of every pair, in
    i < j order, equals sum_k c_k G_k at the sample points."""
    g = scalar_generator_set()
    ops = [g[name] for name in GENERATOR_NAMES]
    constants = structure_constants()
    assert list(constants) == [(i, j) for i in range(10) for j in range(i + 1, 10)]
    for (i, j), coeffs in constants.items():
        combination = zero(1)
        for op, c in zip(ops, coeffs):
            if c != 0:
                combination = plus(combination, scaled(op, c))
        ok, resid = equal_at(bracket(ops[i], ops[j]), combination, points, tol=1e-12)
        assert ok, (GENERATOR_NAMES[i], GENERATOR_NAMES[j], resid)


def test_scalar_set_closes():
    report = check_algebra(scalar_generator_set())
    assert report.ok, report.failures()


@pytest.mark.parametrize("kind", ["dirac8", "canonical8", "rep1", "rep2", "rep3"])
def test_all_representations_close(kind):
    report = check_algebra(build_generators(kind))
    assert report.ok, (kind, report.failures(), report.max_residual)
    assert len(report.residuals) == 45


@pytest.mark.parametrize("kind", ["rep1", "rep2", "rep3"])
def test_negative_energy_sets_close(kind):
    report = check_algebra(build_generators(kind, -1))
    assert report.ok, (kind, report.max_residual)


@pytest.mark.parametrize("term", range(5))
def test_check_algebra_rejects_one_flipped_term_of_a_boost(rep1, term):
    """The invariance decision is homogeneous in each monomial's matrix, so
    flipping the sign of one term of rep1's J01 zero-index coefficient moves
    no verdict of `classify`; the exact closure check must reject it."""
    constant = rep1["J01"].terms[ZERO_INDEX]
    assert len(constant.exps) == 5
    exps, mats = arrays(constant)
    mats[term] *= -1
    ops = dict(rep1.ops)
    ops["J01"] = MomentumOperator(
        rep1.dim, {**rep1["J01"].terms, ZERO_INDEX: Coefficient.from_rows(exps, mats)}
    )
    report = check_algebra(GeneratorSet(rep1.name, rep1.dim, ops))
    assert not report.ok
    assert report.max_residual >= 1.0
    assert any("J01" in pair for pair in report.failures())


def test_check_algebra_passes_only_at_exactly_zero(rep1):
    """Scaling one term of rep1's J01 by 1 + 2^-40 leaves residuals near
    1e-12, far below any float tolerance, and the set still fails."""
    constant = rep1["J01"].terms[ZERO_INDEX]
    exps, mats = arrays(constant)
    mats[0] *= 1 + 2 ** -40
    ops = dict(rep1.ops)
    ops["J01"] = MomentumOperator(
        rep1.dim, {**rep1["J01"].terms, ZERO_INDEX: Coefficient.from_rows(exps, mats)}
    )
    report = check_algebra(GeneratorSet(rep1.name, rep1.dim, ops))
    assert 0.0 < report.max_residual < 1e-11
    assert not report.ok


def test_check_algebra_rejects_a_derivative_coefficient_that_is_not_anti_hermitian():
    """Adding the constant d_1 to the scalar J01 leaves d_1 C_1 as it was, so
    only the condition C_a + C_a^H = 0 sees it, with residual 2."""
    g = scalar_generator_set()
    boost = g["J01"]
    first = boost.terms[(1, 0, 0)] + Coefficient.constant([[1.0]])
    ops = {**g.ops, "J01": MomentumOperator(1, {**boost.terms, (1, 0, 0): first})}
    report = check_algebra(GeneratorSet(g.name, g.dim, ops))
    assert report.adjoint_residuals["J01"] == 2.0
    assert all(r == 0.0 for name, r in report.adjoint_residuals.items() if name != "J01")


def test_check_algebra_rejects_boosts_that_are_not_self_adjoint(canonical8):
    """Without their (i/2) dH/dp_a term the canonical boosts still close: the
    change is a conjugation by E^(1/2) when H is E times a constant matrix.
    They are no longer self-adjoint, and check_algebra must say so."""
    h = canonical8["P0"].terms[ZERO_INDEX]
    ops = dict(canonical8.ops)
    for a in (1, 2, 3):
        boost = canonical8[f"J0{a}"]
        constant = boost.terms[ZERO_INDEX] + h.diff(f"p{a}").scale(0.5j)
        ops[f"J0{a}"] = MomentumOperator(boost.dim, {**boost.terms, ZERO_INDEX: constant})
    report = check_algebra(GeneratorSet(canonical8.name, canonical8.dim, ops))
    assert report.max_residual == 0.0
    assert not report.ok
    assert report.failures() == ["J01", "J02", "J03"]
    assert max(report.adjoint_residuals[n] for n in ("J01", "J02", "J03")) > 0.1


def test_rep2_mass_term_differs_from_rep1(rep1, rep2, points):
    # same Hamiltonian, different boost spin content
    ok, _ = equal_at(rep1["P0"], rep2["P0"], points)
    assert ok
    ok, resid = equal_at(rep1["J01"], rep2["J01"], points)
    assert not ok and resid > 1e-3


def _first_order_part(op):
    return MomentumOperator(op.dim, {a: m for a, m in op.terms.items() if index_order(a) == 1})


@pytest.mark.parametrize("kind", REP_KINDS + ("scalar",))
def test_closed_form_matches_composed_generators(kind, points, points_alt):
    """The closed-form rotations and boosts against the Leibniz-rule oracle:
    J_ab - S_ab is x_a p_b - x_b p_a, and J_0a has the first-order part of
    t p_a - (x_a P0 + P0 x_a)/2.  The spinless boosts have no spin term, so
    there the two agree in full."""
    g = scalar_generator_set() if kind == "scalar" else build_generators(kind)
    dim = g.dim
    x = {a: position(a, dim) for a in (1, 2, 3)}
    p = {a: MomentumOperator.momentum(a, dim) for a in (1, 2, 3)}
    for (a, b) in ((1, 2), (1, 3), (2, 3)):
        spin = np.zeros((1, 1)) if kind == "scalar" else cached_spin(dim).entry(a, b)
        orbital = minus(g[f"J{a}{b}"], MomentumOperator.from_matrix(Coefficient.constant(spin)))
        expected = minus(compose(x[a], p[b]), compose(x[b], p[a]))
        for pts in (points, points_alt):
            ok, resid = equal_at(orbital, expected, pts)
            assert ok, (kind, a, b, resid)
    for a in (1, 2, 3):
        boost = g[f"J0{a}"]
        expected = minus(
            MomentumOperator.scalar(TIME * MOMENTA[a - 1], dim),
            scaled(plus(compose(x[a], g["P0"]), compose(g["P0"], x[a])), 0.5),
        )
        for pts in (points, points_alt):
            ok, resid = equal_at(_first_order_part(boost), _first_order_part(expected), pts)
            assert ok, (kind, a, resid)
            if kind == "scalar":
                ok, resid = equal_at(boost, expected, pts)
                assert ok, (kind, a, resid)


@pytest.mark.parametrize(
    "kind, sign, message",
    [
        pytest.param("bogus", 1, "unknown representation 'bogus'", id="bogus-1"),
        pytest.param("rep1", 0, "energy sign must be +1 or -1", id="rep1-0"),
        pytest.param("rep1", True, "energy sign must be +1 or -1", id="rep1-True"),
        pytest.param("rep1", False, "energy sign must be +1 or -1", id="rep1-False"),
        pytest.param("dirac8", -1, "dirac8 does not carry an energy-sign flag", id="dirac8--1"),
        pytest.param("scalar", 1, "unknown representation 'scalar'", id="scalar-1"),
    ],
)
def test_rep_id_rejects_an_unknown_kind_or_energy_sign(kind, sign, message):
    """build_generators builds one of the known kinds, with energy sign +1
    or -1 (an int: True == 1 is refused, though the cache would take it for
    1), and only rep1-rep3 carry the sign -1; the spinless orbital set is
    not one of the kinds."""
    build_generators("rep1")  # cached, so a sign True that reached the cache would find it
    with pytest.raises(ValueError) as excinfo:
        build_generators(kind, sign)
    assert str(excinfo.value) == message


def test_generators_have_order_at_most_one():
    for kind in ("dirac8", "canonical8", "rep1", "rep2", "rep3"):
        g = build_generators(kind)
        for name, op in g.items():
            assert order(op) <= 1, (kind, name)
            if name.startswith("P") and name != "P0":
                a = int(name[1])
                expected = MomentumOperator.momentum(a, g.dim)
                ok, _ = equal_at(op, expected, sample_points(count=4))
                assert ok


# ---------------------------------------------------------------------------
# cross-checks between the Dirac-type and canonical pictures


def test_dirac_p0_matches_conjugated_canonical(dirac8, canonical8, points, points_alt):
    """dirac8 is built from H8 directly, not by conjugation: U^dagger G U / 2
    of every canonical generator, for the numerator U of the unitary
    U / sqrt(2), must reproduce it on two disjoint sample sets."""
    u = MomentumOperator.from_matrix(_canonical_numerator())
    u_dag = adjoint(u)
    for name in GENERATOR_NAMES:
        conjugated = scaled(compose(u_dag, compose(canonical8[name], u)), 0.5)
        for pts in (points, points_alt):
            ok, resid = equal_at(conjugated, dirac8[name], pts)
            assert ok, (name, resid)


def test_dirac_rotations_equal_canonical(dirac8, canonical8, points):
    # the diagonalizing transform is a rotation scalar
    for name in ("J12", "J13", "J23"):
        ok, resid = equal_at(dirac8[name], canonical8[name], points)
        assert ok, (name, resid)


def test_rep3_boost_alternate_form(rep3, points):
    """The two printed forms of the positive-Hamiltonian boost agree once the
    spin coefficient is read as S_0a (gamma0 gamma_k p_k)/E with p4 = m."""
    spin = cached_spin(4)
    basis = cached_basis(4)
    h_mat = Coefficient(
        [np.asarray(basis.gamma0) @ np.asarray(basis.gamma(k)) for k in range(1, 5)],
        MOMENTA + (MASS,),
    )
    for a in (1, 2, 3):
        alt_spin = h_mat.lmul(spin.entry(0, a)).scale(1 / E)
        alt = plus(
            minus(
                MomentumOperator.scalar(TIME * MOMENTA[a - 1], 4),
                compose(position(a, 4), MomentumOperator.scalar(E, 4)),
            ),
            MomentumOperator.from_matrix(alt_spin),
        )
        ok, resid = equal_at(rep3[f"J0{a}"], alt, points)
        assert ok, (a, resid)


def test_rep3_hamiltonian_positive(rep3, points):
    values = _matrix_at(rep3["P0"], points)
    eigs = np.linalg.eigvalsh(values)
    assert np.min(eigs) > 0


def test_hamiltonian_forms(canonical8, rep3, points):
    env = env_arrays(points)
    g0e = np.asarray(cached_basis(8).gamma0)[None, :, :] * env["E"][:, None, None]
    assert np.array_equal(_matrix_at(canonical8["P0"], points), g0e)
    assert np.allclose(
        _matrix_at(rep3["P0"], points),
        np.eye(4)[None, :, :] * env["E"][:, None, None],
    )
    minus = build_generators("rep1", -1)
    g0e4 = np.asarray(cached_basis(4).gamma0)[None, :, :] * env["E"][:, None, None]
    assert np.array_equal(_matrix_at(minus["P0"], points), -g0e4)


def test_generators_self_adjoint(canonical8, rep3, points):
    for g in (canonical8, rep3):
        for name in ("P0", "J12", "J01"):
            ok, resid = equal_at(adjoint(g[name]), g[name], points)
            assert ok, (g.name, name, resid)


# ---------------------------------------------------------------------------
# subspaces and the charge remark


def test_subspace_decomposition():
    report = subspace_decomposition()
    assert report.complete
    labels = [label for _, label in report.blocks]
    assert labels == [
        IrrepLabel(1, 1, 0),
        IrrepLabel(-1, 0, 1),
        IrrepLabel(-1, 1, 0),
        IrrepLabel(1, 0, 1),
    ]
    for proj, label in report.blocks:
        proj = np.asarray(proj)
        assert np.trace(proj) == 2
        assert np.array_equal(proj @ proj, proj)
    total = sum(np.asarray(proj) for proj, _ in report.blocks)
    assert np.array_equal(total, np.eye(8))


def test_subspace_decomposition_raises_on_a_doctored_projector(monkeypatch):
    """The report carries no residual: a projector that fails to commute
    with the generators raises.  Conjugating every spectral projector by a
    cyclic shift of the basis keeps each product a rank-2 projector but
    breaks the commutation."""
    shift = np.roll(np.eye(8), 1, axis=0)

    def doctored(matrix, value, spectrum):
        return shift @ np.asarray(spectral_projector(matrix, value, spectrum)) @ shift.T

    monkeypatch.setattr(oracles, "spectral_projector", doctored)
    with pytest.raises(AssertionError, match="fails to commute"):
        subspace_decomposition()


def test_charge_commutes_with_positive_set():
    report = charge_check()
    assert report.ok
    assert report.max_residual == 0.0


def test_commutant_residual_sees_a_matrix_that_does_not_commute(rep3):
    """The charge check's bracket residual: gamma_1 commutes with the scalar
    generators of rep3 but not with the spin parts of J12, J13 and the boosts."""
    gamma1 = MomentumOperator.from_matrix(Coefficient.constant(cached_basis(4).gamma(1)))
    residuals = {
        name: _shell_residual(commutator(gamma1, op).terms.values()) for name, op in rep3.items()
    }
    assert residuals["J01"] == 1.0 and residuals["J12"] == 1.0
    assert residuals["P0"] == 0.0 and residuals["J23"] == 0.0


def test_charge_commutes_with_spin_term_directly(points):
    # both factors of S_0a H anticommute with gamma0, so the product commutes
    basis = cached_basis(4)
    spin = cached_spin(4)
    q = np.asarray(basis.gamma0)
    for pt in points[:5]:
        h = sum(
            np.asarray(q @ np.asarray(basis.gamma(k)))
            * (getattr(pt, f"p{k}") if k < 4 else pt.m)
            for k in range(1, 5)
        )
        for a in (1, 2, 3):
            mat = np.asarray(spin.entry(0, a)) @ h / energy(pt)
            assert np.max(np.abs(q @ mat - mat @ q)) < 1e-12


def test_helicity_operators_commute_at_zero_mass(massless_points):
    report = helicity_check()
    assert report.ok
    assert report.max_residual == 0.0
    assert report.eigenvalue_residual == 0.0
    # the sampled reference: S.p/E restricted to the S^2 = 3/4 subspace has
    # eigenvalues -1/2, -1/2, 1/2, 1/2 at every massless sample point
    proj = np.asarray(spectral_projector(cached_spin(8).s_squared, 0.75, (0, 0.75)))
    values, vectors = np.linalg.eigh(proj)
    basis = vectors[:, values > 0.5]
    hmat = _matrix_at(helicity_operator("s"), massless_points)
    for mat in hmat:
        eigs = np.sort(np.linalg.eigvalsh(basis.conj().T @ mat @ basis))
        assert np.max(np.abs(eigs - [-0.5, -0.5, 0.5, 0.5])) < 1e-12


def test_helicity_normal_forms_keep_mass_terms(canonical8):
    """With m kept, the boosts' commutators with the helicity operators have a
    nonzero normal form, every row of it carrying a power of m; the
    translations' normal forms are empty."""
    m_axis = LAURENT_VARS.index("m")
    for which in ("s", "t"):
        h = helicity_operator(which)
        for a in (1, 2, 3):
            forms = [arrays(c.on_shell()[1])
                     for c in commutator(h, canonical8[f"J0{a}"]).terms.values()]
            assert sum(len(exps) for exps, _ in forms) > 0, (which, a)
            assert max(float(np.abs(coeffs).max(initial=0.0)) for _, coeffs in forms) > 1e-3
            assert all((exps[:, m_axis] > 0).all() for exps, _ in forms), (which, a)
            forms = [c.on_shell()[1] for c in commutator(h, canonical8[f"P{a}"]).terms.values()]
            assert all(len(form.exps) == 0 for form in forms), (which, a)
