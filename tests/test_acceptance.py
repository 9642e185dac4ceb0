"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.  The package's exact
checks (closure, subspaces, charge, helicity, the classification witnesses
and their intertwining relations) take no tolerance: they pass only when
every residual is exactly 0.0, and the criteria require that.
"""

import time

import numpy as np
import scipy.linalg

from ptclab.classify import (
    PAPER_CLAIMS,
    PRIMITIVE_OPS,
    classify,
    full_table,
    get_op,
    momentum_action,
)
from ptclab.clifford import METRIC, build_basis, cached_basis, cached_spin
from ptclab.generators import (
    GeneratorSet,
    build_generators,
    charge_check,
    check_algebra,
    dirac_hamiltonian8,
    helicity_check,
)
from ptclab.labels import (
    FOUR_COMPONENT_CONTENTS,
    IrrepLabel,
    massless_decompose,
    massless_pair_count,
    ptc_complete,
)
from ptclab.vocabulary import DEFAULT_SEED

from oracles import (
    apply_flags,
    canonical_transform_at,
    casimir_spectrum,
    connector_at,
    env_arrays,
    equal_at,
    eval_operator,
    intertwining_check,
    position,
    sample_points,
    scaled,
    subspace_decomposition,
)



def _passline(n, text):
    print(f"ACCEPTANCE {n:>2}: PASS  {text}")


def _matrix_at(op, points):
    env = env_arrays(points)
    return eval_operator(op, env)[(0, 0, 0)]


def test_criterion_01_clifford_exact():
    for dim in (4, 8):
        basis = build_basis(dim)
        eye = np.eye(dim, dtype=complex)
        gamma = [np.asarray(basis.gamma(mu)) for mu in range(5)]
        assert np.array_equal(gamma[0], gamma[0].conj().T)
        for k in gamma[1:]:
            assert np.array_equal(k, -k.conj().T)
        for mu in range(5):
            for nu in range(5):
                anti = gamma[mu] @ gamma[nu] + gamma[nu] @ gamma[mu]
                assert np.array_equal(anti, 2 * np.asarray(METRIC)[mu, nu] * eye)
        # entries are exact integers or half-integers times i
        for mat in gamma:
            assert np.array_equal(2 * mat, np.round(2 * mat.real) + 1j * np.round(2 * mat.imag))
    _passline(1, "Clifford invariants hold exactly for dims 4 and 8 (zero tolerance)")


def test_criterion_02_diagonalization():
    points = sample_points(count=100, seed=DEFAULT_SEED)
    start = time.perf_counter()
    env = env_arrays(points)
    u = canonical_transform_at(env)
    u_dag = u.conj().transpose(0, 2, 1)
    unitary = float(np.max(np.abs(u @ u_dag - np.eye(8))))
    h8 = _matrix_at(dirac_hamiltonian8(), points)
    gamma0 = np.asarray(cached_basis(8).gamma0)
    target = gamma0[None, :, :] * env["E"][:, None, None]
    diag = float(np.max(np.abs(u @ h8 @ u_dag - target)))
    assert unitary < 1e-10 and diag < 1e-10
    # exponential and closed forms agree; the generator squares to -1
    worst = 0.0
    for k in range(0, 100, 10):
        a = gamma0 @ h8[k] / env["E"][k]
        assert np.max(np.abs(a @ a + np.eye(8))) < 1e-12
        worst = max(worst, float(np.max(np.abs(scipy.linalg.expm(np.pi / 4 * a) - u[k]))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0, f"diagonalization checks took {elapsed:.2f}s"
    _passline(2, f"transform unitary ({unitary:.1e}) and diagonalizing ({diag:.1e}); "
                 f"exp = closed ({worst:.1e}); {elapsed:.2f}s")


def test_criterion_03_connector_unitary():
    points = sample_points(count=100, seed=DEFAULT_SEED)
    u1 = connector_at(env_arrays(points))
    resid = float(np.max(np.abs(u1.conj().transpose(0, 2, 1) @ u1 - np.eye(4))))
    assert resid < 1e-10
    _passline(3, f"connector unitary at 100 samples (residual {resid:.1e})")


def test_criterion_04_poincare_closure():
    kinds = ("dirac8", "canonical8", "rep1", "rep2", "rep3")
    sets = {kind: build_generators(kind) for kind in kinds}  # cached builds
    start = time.perf_counter()
    worst = 0.0
    for kind in kinds:
        report = check_algebra(sets[kind])
        assert report.ok, (kind, report.failures())
        assert report.max_residual == report.max_adjoint_residual == 0.0
        assert len(report.residuals) == 45
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"closure checks took {elapsed:.2f}s"
    _passline(4, f"all 5 generator sets close, worst residual {worst:.1e}, {elapsed:.2f}s")


def test_criterion_05_casimirs_and_subspaces():
    spectra = casimir_spectrum(cached_spin(8))
    assert spectra["s_squared"] == {0.75: 4, 0.0: 4}
    assert spectra["t_squared"] == {0.75: 4, 0.0: 4}
    report = subspace_decomposition()
    labels = [label for _, label in report.blocks]
    assert labels == [
        IrrepLabel(1, 1, 0),
        IrrepLabel(-1, 0, 1),
        IrrepLabel(-1, 1, 0),
        IrrepLabel(1, 0, 1),
    ]
    for proj, _ in report.blocks:
        assert np.trace(np.asarray(proj)) == 2
    assert report.complete
    _passline(5, "Casimir spectra {3/4:4, 0:4}; four rank-2 projectors, "
                 "each commuting exactly with all ten generators")


def _tables():
    return {kind: full_table(kind) for kind in ("rep1", "rep2", "rep3")}


def test_criterion_06_classification_table():
    for kind, table in _tables().items():
        claims = PAPER_CLAIMS[kind]
        verdicts = table.verdicts()
        invariant = {name for name, v in verdicts.items() if v == "invariant"}
        noninvariant = {name for name, v in verdicts.items() if v == "noninvariant"}
        assert claims["invariant"] <= invariant, kind
        assert claims["noninvariant"] <= noninvariant, kind
        # entries outside the stated claims are reported but never asserted
        stated = claims["invariant"] | claims["noninvariant"]
        for name in verdicts:
            if name not in stated:
                assert table.rows[name].expectation is None
        # a fresh copy of the set, built into no cache, gives the same table
        g = build_generators(kind)
        again = full_table(GeneratorSet(g.name, g.dim, dict(g.ops)))
        assert again == table, f"{kind} differs on a fresh copy of its generators"
    _passline(6, "classification table reproduces all three published claims, "
                 "identically on a fresh copy of each generator set")


def test_criterion_07_witness_contract():
    elicited = []
    for kind, table in _tables().items():
        for name, row in table.rows.items():
            if row.verdict == "invariant":
                elicited.append((kind, name, row.result))
    g8 = build_generators("canonical8")
    for name in ("P1", "M", "T1"):
        elicited.append(("canonical8", name, classify(g8, name)))
    assert len(elicited) >= 13
    for kind, name, result in elicited:
        assert result.residual == 0.0, (kind, name)
        w = np.asarray(result.witness)
        dim = w.shape[0]
        c = (w @ w.conj().T)[0, 0].real
        assert c > 0 and np.array_equal(w @ w.conj().T, c * np.eye(dim)), (kind, name)
        lam = result.operator_square
        assert lam in (1, -1), (kind, name)
        # the physical square: W W for a linear operator, W conj(W) for an antilinear one
        square = w @ (w.conj() if get_op(name).conj else w)
        assert np.array_equal(square, lam * c * np.eye(dim)), (kind, name)
    _passline(7, f"{len(elicited)} reported witnesses: residual 0.0, "
                 "W W^H = c 1 and operator square +-1, exactly")


def test_criterion_08_intertwining_relations():
    report = intertwining_check()
    assert not report.missing
    assert set(report.residuals) == {"P1_swap", "M_swap", "T1_commute"}
    assert report.ok
    assert all(value == 0.0 for value in report.residuals.values())
    _passline(8, "witness intertwining relations hold: "
                 + ", ".join(f"{k}={v:.1e}" for k, v in report.residuals.items()))


def test_criterion_09_position_conditions():
    points = sample_points(seed=DEFAULT_SEED)
    assert len(PRIMITIVE_OPS) == 7
    for op in PRIMITIVE_OPS.values():
        flags = momentum_action(op)
        for a in (1, 2, 3):
            for dim in (4, 8):
                x = position(a, dim)
                ok, resid = equal_at(apply_flags(x, flags), scaled(x, op.eta_x), points, tol=1e-12)
                assert ok, (op.name, a, dim, resid)
    _passline(9, "subsidiary position-operator conditions hold identically "
                 "for all seven primitive operators (< 1e-12)")


def test_criterion_10_charge_commutes():
    report = charge_check()
    assert report.ok
    assert report.max_residual == 0.0
    _passline(10, f"charge operator commutes with all ten positive-Hamiltonian "
                  f"generators (residual {report.max_residual:.1e})")


def test_criterion_11_massless_helicity():
    points = sample_points(seed=DEFAULT_SEED, masses=(0.0,))
    assert all(pt.p1 ** 2 + pt.p2 ** 2 + pt.p3 ** 2 > 1e-6 for pt in points)
    report = helicity_check()
    assert report.ok and report.max_residual == 0.0
    assert report.eigenvalue_residual == 0.0
    labels = massless_decompose()
    assert len(labels) == 8
    assert massless_pair_count() == 28
    _passline(11, f"helicity operators commute at m = 0 (residual "
                  f"{report.max_residual:.1e}); 8 labels, 28 pairs")


def test_criterion_12_ptc_completeness():
    quadruple = [
        IrrepLabel(1, 1, 0), IrrepLabel(-1, 1, 0),
        IrrepLabel(1, 0, 1), IrrepLabel(-1, 0, 1),
    ]
    pair = [IrrepLabel(1, 1, 1), IrrepLabel(-1, 1, 1)]
    assert ptc_complete(quadruple) and ptc_complete(pair)
    for k in range(4):
        assert not ptc_complete(quadruple[:k] + quadruple[k + 1 :])
    for k in range(2):
        assert not ptc_complete(pair[:k] + pair[k + 1 :])
    for content in FOUR_COMPONENT_CONTENTS.values():
        assert not ptc_complete(content)
    _passline(12, "completeness rule: quadruple and equal-spin pair pass, every "
                  "single-summand removal and every 4-component content fails")
