import json
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ptclab
from ptclab.classify import (
    OP_ORDER,
    PAPER_CLAIMS,
    PRIMITIVE_OPS,
    SIGN_CLASSES,
    _index_classes,
    _inverse_sqrt,
    _monomial_pairs,
    _monomial_system,
    _rank_decision,
    _rank_system,
    _select_witness,
    _witness_residual,
    build_constraints,
    classify,
    compose_ops,
    full_table,
    get_op,
    intertwining_check,
    momentum_action,
)
from ptclab.clifford import cached_basis, cached_spin, spectral_projector
from ptclab.expr import LAURENT_VARS
from ptclab.generators import GENERATOR_CLASS, REP_KINDS, GeneratorSet, RepId, build_generators
from ptclab.operators import (
    ZERO_INDEX,
    Coefficient,
    FlagTransform,
    MomentumOperator,
)
from ptclab.vocabulary import DEFAULT_RANK_TOL, DEFAULT_SEED, DEFAULT_TOL

from oracles import (
    apply_flags,
    arrays,
    env_arrays,
    equal_at,
    eval_operator,
    position,
    sample_points,
    scaled,
)

# the five representations and the negative-energy four-component sets
SETS = [(kind, 1) for kind in REP_KINDS] + [(kind, -1) for kind in ("rep1", "rep2", "rep3")]


# ---------------------------------------------------------------------------
# flag signatures and composition


def test_momentum_action_examples():
    f = momentum_action(get_op("P1"))
    assert (f.eta_p, f.conj) == (-1, False)
    f = momentum_action(get_op("P2"))
    assert (f.eta_p, f.conj) == (1, True)
    f = momentum_action(get_op("T1"))
    assert (f.eta_p, f.eta_t, f.conj) == (1, -1, False)


def test_charge_conjugation_composition():
    c = compose_ops(get_op("T1"), get_op("T2"))
    assert c.conj and c.eta_t == 1 and c.eta_x == 1 and c.eta_m == 1
    assert c.signs == (-1, -1, -1, -1)
    # the product of the two space reflections gives the same operator
    alt = compose_ops(get_op("P1"), get_op("P2"))
    assert alt.signs == c.signs
    assert momentum_action(alt) == momentum_action(c)


def test_parity_time_composite():
    op = get_op("P1T2")
    assert (op.eta_x, op.eta_t, op.conj) == (-1, -1, True)
    assert op.signs == (1, 1, -1, -1)


def test_self_composition_is_trivial():
    op = compose_ops(get_op("P1"), get_op("P1"))
    assert momentum_action(op) == FlagTransform()
    assert op.signs == (1, 1, 1, 1)


def test_subsidiary_position_conditions_hold_identically(points):
    """The flagged position operator is exactly eta_x times itself, so the
    anticommutation (space reflections) / commutation (time and mass flips)
    conditions with any constant matrix hold with zero residual."""
    for op in PRIMITIVE_OPS.values():
        f = momentum_action(op)
        for a in (1, 2, 3):
            x = position(a, 4)
            ok, resid = equal_at(apply_flags(x, f), scaled(x, op.eta_x), points, tol=1e-12)
            assert ok and resid == 0.0, (op.name, a, resid)


# ---------------------------------------------------------------------------
# constraint systems


def _pairs_of(g, name):
    return _monomial_pairs(_monomial_system(g), get_op(name))


def test_constraint_nullspace_dimensions(rep1):
    sv, basis = _rank_decision(rep1, get_op("P1"), 1e-8)
    assert np.sum(sv < 1e-8 * sv.max()) == 0 == len(basis)  # claim 1: no parity intertwiner

    sv, basis = _rank_decision(rep1, get_op("Mx"), 1e-8)
    assert np.sum(sv < 1e-8 * sv.max()) >= 1
    assert len(basis) == np.sum(sv < 1e-8 * sv.max())


def test_monomial_equation_counts():
    """One equation per distinct monomial of every block in normal form: 34
    on dirac8 and 40 on every other set, summed over 19 blocks; 14 on every
    set once merged for the rank decision."""
    for kind, sign in SETS:
        g = build_generators(RepId(kind, sign))
        assert len(_rank_system(g).mats) == 14, (kind, sign)
        system = _monomial_system(g)
        assert len(system.mats) == (34 if kind == "dirac8" else 40), (kind, sign)
        assert len(system.shift) == 19, (kind, sign)
        assert all(m.any() for m in system.mats), (kind, sign)


def _oracle_blocks(g, op, points):
    """(flagged coeffs, coeffs, sign) per (generator, multi-index), with the
    flagged operator built symbolically by apply_flags and evaluated as is."""
    env = env_arrays(points)
    flags = momentum_action(op)
    blocks = []
    for name, gen in g.items():
        plain = eval_operator(gen, env)
        flagged = eval_operator(apply_flags(gen, flags), env)
        for alpha in sorted(plain):
            sign = op.signs[SIGN_CLASSES.index(GENERATOR_CLASS[name])]
            blocks.append((flagged[alpha], plain[alpha], sign))
    return blocks


def _evaluated_pairs(system, pairs, points):
    """The monomial pairs summed into each block at each sample point,
    (blocks, n, 2, d, d): sum over the block's equations of x^b / E^shift
    times the pair, with every power taken here, not by the package."""
    env = env_arrays(points)
    variables = np.stack([env[name] for name in LAURENT_VARS], axis=1)
    energy = LAURENT_VARS.index("E")
    out = np.zeros((len(system.shift), len(points)) + pairs.shape[1:], dtype=complex)
    for e, (c, exps) in enumerate(zip(system.block, system.exps)):
        for i, x in enumerate(variables):
            weight = math.prod(float(v) ** int(k) for v, k in zip(x, exps))
            out[c, i] += weight / float(x[energy]) ** int(system.shift[c]) * pairs[e]
    return out


def _stacked_system(blocks, d):
    """Every row of every block at every sample, as one dense matrix."""
    eye = np.eye(d)
    rows = []
    for a, b, sign in blocks:
        left = np.einsum("ij,nlk->nikjl", eye, a).reshape(-1, d * d)
        right = np.einsum("nij,kl->nikjl", b, eye).reshape(-1, d * d)
        rows.append(left - sign * right)
    return np.concatenate(rows)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, DEFAULT_SEED + 1])
@pytest.mark.parametrize("kind", REP_KINDS)
def test_reflected_path_matches_flag_oracle(kind, seed):
    """The monomial pairs, with each flag applied as a sign per monomial and
    evaluated at the samples, equal the apply_flags blocks: the flagged side
    within 1e-14 relative, the plain side sign(G) times the coefficient."""
    g = build_generators(RepId(kind))
    system = _monomial_system(g)
    points = sample_points(seed=seed)
    for name in OP_ORDER:
        op = get_op(name)
        oracle = _oracle_blocks(g, op, points)
        evaluated = _evaluated_pairs(system, _monomial_pairs(system, op), points)
        assert len(evaluated) == len(oracle)
        for block, (a0, b0, sign0) in zip(evaluated, oracle):
            scale = max(1.0, float(np.max(np.abs(a0))), float(np.max(np.abs(b0))))
            assert np.max(np.abs(block[:, 0] - a0)) <= 1e-14 * scale, (kind, name)
            assert np.max(np.abs(block[:, 1] - sign0 * b0)) <= 1e-14 * scale, (kind, name)


def test_index_classes_of_each_set():
    """Every coefficient is a sum of Pauli tensor products, so it is block
    diagonal over classes of the basis indices: 4 of 2 on canonical8, 2 of 4
    on dirac8 and 2 of 2 on the four-component sets.  Every operator's
    monomial pairs give the same classes; classes of unequal size raise."""
    expected = {
        "dirac8": (2, 4), "canonical8": (4, 2), "rep1": (2, 2), "rep2": (2, 2), "rep3": (2, 2),
    }
    for kind, shape in expected.items():
        g = build_generators(RepId(kind))
        coeffs = np.concatenate(
            [arrays(c)[1] for gen in g.ops.values() for c in gen.terms.values()]
        )
        classes = _index_classes(coeffs.any(axis=0))
        assert classes.shape == shape, kind
        assert sorted(classes.ravel().tolist()) == list(range(g.dim)), kind
        same_class = np.zeros((g.dim, g.dim), dtype=bool)
        for members in classes:
            same_class[np.ix_(members, members)] = True
        assert not np.any(coeffs[:, ~same_class]), kind
        for name in OP_ORDER:
            support = _pairs_of(g, name).any(axis=(0, 1))
            assert np.array_equal(_index_classes(support), classes), (kind, name)
        dense = np.ones((g.dim, g.dim), dtype=bool)
        assert _index_classes(dense).tolist() == [list(range(g.dim))], kind
    unequal = np.eye(4, dtype=bool)
    unequal[1, 2] = unequal[2, 3] = True
    with pytest.raises(ValueError):
        _index_classes(unequal)


@pytest.mark.parametrize("count", [1, 2, 20])
@pytest.mark.parametrize("kind", REP_KINDS)
def test_blockwise_factor_matches_the_stacked_system(kind, count):
    """The factors built submatrix by submatrix of q from the merged
    equations, one s^2 x s^2 block each, have together the singular values of
    the dense stacked system of every monomial equation, and their nullity is
    that of the dense system sampled at 20 points.  Fewer samples impose
    fewer conditions, so the sampled nullity at 1 or 2 points can only be
    larger; the factors use no samples."""
    g = build_generators(RepId(kind))
    points = sample_points(count=count)
    rank = _rank_system(g)
    m, s = rank.classes.shape
    for name in OP_ORDER:
        op = get_op(name)
        pairs = _pairs_of(g, name)
        stacked = _stacked_system([(a[None], b[None], 1) for a, b in pairs], g.dim)
        exact = np.linalg.svd(stacked, compute_uv=False)
        factor = build_constraints(_monomial_pairs(rank, op), rank.classes)
        assert factor.shape == (m * m * s * s, s * s)
        blocks = factor.reshape(m * m, s * s, s * s)
        blockwise = [np.linalg.svd(f, compute_uv=False) for f in blocks]
        singular = np.sort(np.concatenate(blockwise))[::-1]
        assert np.max(np.abs(singular - exact)) <= 1e-12 * exact[0], (kind, name)
        nullity = int(np.sum(singular < DEFAULT_RANK_TOL * singular[0]))
        sampled = np.linalg.svd(
            _stacked_system(_oracle_blocks(g, op, points), g.dim), compute_uv=False
        )
        sampled_nullity = int(np.sum(sampled < DEFAULT_RANK_TOL * sampled[0]))
        if count == 20:
            assert nullity == sampled_nullity, (kind, name)
        else:
            assert nullity <= sampled_nullity, (kind, name)
        assert classify(g, op).nullspace_dim == nullity, (kind, name)


def _null_projector(singular, vh, rank_tol=DEFAULT_RANK_TOL):
    null = vh[singular < rank_tol * singular[0]]
    return null.T @ null.conj()


@pytest.mark.parametrize("kind", REP_KINDS)
def test_merged_system_keeps_the_spectrum_and_the_nullspace(kind):
    """Merging the equations that impose the same constraint under every
    operator leaves the dense stacked system's singular values (within
    1e-12 relative) and its nullspace projector unchanged in all nine cells,
    and the blockwise basis spans the same nullspace.  Each merged equation
    stands for one or more of the monomial equations."""
    g = build_generators(RepId(kind))
    system, rank = _monomial_system(g), _rank_system(g)
    assert len(rank.mats) < len(system.mats), kind
    for name in OP_ORDER:
        op = get_op(name)
        dense = [
            np.linalg.svd(
                _stacked_system([(a[None], b[None], 1) for a, b in pairs], g.dim),
                full_matrices=False,
            )[1:]
            for pairs in (_monomial_pairs(system, op), _monomial_pairs(rank, op))
        ]
        (full, full_vh), (merged, merged_vh) = dense
        assert np.max(np.abs(full - merged)) <= 1e-12 * full[0], (kind, name)
        projector = _null_projector(full, full_vh)
        assert np.max(np.abs(projector - _null_projector(merged, merged_vh))) <= 1e-12
        basis = _rank_decision(g, op, DEFAULT_RANK_TOL)[1]
        assert np.max(np.abs(projector - basis.T @ basis.conj())) <= 1e-12, (kind, name)


def test_full_table_builds_each_monomial_system_once(monkeypatch):
    """Each coefficient of a generator set is put in normal form once, on the
    first cell classified, and the tables after it reuse the system; the
    merged rank system is likewise built once and then reused."""
    calls = []
    original = Coefficient.on_shell

    def counting(self):
        calls.append(id(self))
        return original(self)

    monkeypatch.setattr(Coefficient, "on_shell", counting)
    base = build_generators(RepId("canonical8"))
    g = GeneratorSet(base.rep, dict(base.ops))  # not yet cached
    before = _rank_system.cache_info()
    full_table(g)
    full_table(g, seed=DEFAULT_SEED + 1)
    after = _rank_system.cache_info()
    coefficients = [id(c) for gen in g.ops.values() for c in gen.terms.values()]
    assert sorted(calls) == sorted(coefficients)
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2 * len(OP_ORDER) - 1


def test_mutated_boost_coefficient_changes_the_verdicts(rep1):
    """Left-multiplying any one matrix of rep1's J01 zero-index coefficient
    by gamma0 breaks exactly the C and Mt invariances: both cells turn
    noninvariant, with the smallest singular value far above the threshold,
    and every other verdict stays.  (Flipping the sign of one matrix moves
    no verdict: each monomial equation is homogeneous in its matrix.)"""
    base = full_table(rep1).verdicts()
    gamma0 = np.asarray(cached_basis(4).gamma0)
    coeff = rep1["J01"].terms[ZERO_INDEX]
    for k in range(len(coeff.mats)):
        exps, mats = arrays(coeff)
        mats[k] = gamma0 @ mats[k]
        terms = dict(rep1["J01"].terms)
        terms[ZERO_INDEX] = Coefficient.from_rows(exps, mats)
        ops = dict(rep1.ops)
        ops["J01"] = MomentumOperator(rep1.dim, terms)
        table = full_table(GeneratorSet(rep1.rep, ops))
        changed = {name for name, verdict in table.verdicts().items() if verdict != base[name]}
        assert changed == {"C", "Mt"}, k
        for name in changed:
            result = table.rows[name].result
            assert result.verdict == "noninvariant", (k, name)
            threshold = DEFAULT_RANK_TOL * result.largest_singular_value
            assert result.smallest_singular_value > 1e6 * threshold, (k, name)


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"tol": 0.0}, id="tol-zero"),
        pytest.param({"tol": float("nan")}, id="tol-nan"),
        pytest.param({"tol": float("inf")}, id="tol-inf"),
        pytest.param({"rank_tol": 0.0}, id="rank_tol-zero"),
        pytest.param({"rank_tol": float("nan")}, id="rank_tol-nan"),
        pytest.param({"rank_tol": 1.0}, id="rank_tol-one"),
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param({"seed": 1.5}, id="seed-float"),
        pytest.param({"seed": "7"}, id="seed-str"),
        pytest.param({"rank_tol": 1e-300}, id="rank_tol-1e-300"),
        pytest.param({"rank_tol": 1e-18}, id="rank_tol-1e-18"),
    ],
)
def test_invalid_settings_raise(rep1, kwargs):
    with pytest.raises(ValueError):
        classify(rep1, "C", **kwargs)
    with pytest.raises(ValueError):
        full_table(rep1, **kwargs)


def test_classify_spot_checks(rep1, rep2, rep3):
    assert classify(rep1, "C").invariant
    assert classify(rep2, "P2").invariant
    assert not classify(rep2, "C").invariant
    assert not classify(rep3, "T1").invariant


def test_noninvariant_report_fields(rep1):
    result = classify(rep1, "P1")
    assert not result.invariant and not result.indeterminate
    assert result.nullspace_dim == 0
    assert result.witness is None and result.residual is None
    # evidence: the smallest retained singular value sits well above threshold
    assert result.smallest_singular_value > 10 * 1e-8 * result.largest_singular_value


@pytest.mark.parametrize("kind", ["rep1", "rep2", "rep3"])
def test_full_table_matches_paper(kind):
    table = full_table(RepId(kind))
    claims = PAPER_CLAIMS[kind]
    for name, row in table.rows.items():
        if name in claims["invariant"]:
            assert row.verdict == "invariant", name
        elif name in claims["noninvariant"]:
            assert row.verdict == "noninvariant", name
        else:
            assert row.expectation is None  # computed, unstated in the claims
    assert table.matches_paper


def test_unstated_entries_are_labelled():
    table = full_table(RepId("rep1"))
    assert table.rows["T1"].expectation is None
    assert table.rows["T1"].matches is None
    table8 = full_table(RepId("canonical8"))
    assert all(row.expectation is None for row in table8.rows.values())


def test_witness_contract(rep1, rep2, rep3):
    for g in (rep1, rep2, rep3):
        table = full_table(g)
        for name, row in table.rows.items():
            result = row.result
            if not result.invariant:
                continue
            assert result.residual < 1e-9
            assert abs(np.linalg.det(result.witness)) > 1e-6
            lam = result.involution_scale
            assert lam is not None and abs(lam) > 0
            square = result.witness @ result.witness
            assert np.max(np.abs(square - lam * np.eye(g.dim))) < 1e-9


@pytest.mark.parametrize("kind", REP_KINDS)
def test_witnesses_hold_on_held_out_points(kind, points_alt):
    """Every witness, found without sample points, satisfies the apply_flags
    constraints evaluated at sample points, and is unitary up to scale:
    d q q^H = 1.  The package's residual is the largest |q a - b q| over the
    monomial equations, and shifting one entry of the witness by 1e-6 lifts
    it above the tolerance."""
    g = build_generators(RepId(kind))
    table = full_table(g)
    invariant = [name for name, row in table.rows.items() if row.result.invariant]
    assert invariant
    eye = np.eye(g.dim)
    for name in invariant:
        q = table.rows[name].result.witness
        residual = max(
            float(np.max(np.abs(q @ a - sign * b @ q)))
            for a, b, sign in _oracle_blocks(g, get_op(name), points_alt)
        )
        assert residual < 1e-9, (kind, name)
        pairs = _pairs_of(g, name)
        per_equation = max(float(np.max(np.abs(q @ a - b @ q))) for a, b in pairs)
        assert _witness_residual(q, pairs) == per_equation, (kind, name)
        shifted = q.copy()
        shifted[0, 0] += 1e-6
        assert _witness_residual(shifted, pairs) > DEFAULT_TOL, (kind, name)
        assert np.max(np.abs(g.dim * q @ q.conj().T - eye)) <= 1e-12, (kind, name)


@pytest.mark.parametrize("seed", range(5))
def test_inverse_sqrt_keeps_a_cluster_at_minus_one_on_one_branch(seed):
    """q0 = i X for a random Hermitian unitary X squares to -1 up to rounding,
    which scatters w's eigenvalues on both sides of -1.  Unless the branch
    cut is turned away, w^(-1/2) splits them and (w^(-1/2) q0)^2 is not 1."""
    rng = np.random.default_rng(seed)
    d = 8
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q0 = 1j * u @ np.diag([1.0] * 4 + [-1.0] * 4) @ u.conj().T
    q = _inverse_sqrt(q0 @ q0) @ q0
    assert np.max(np.abs(q @ q - np.eye(d))) < 1e-12


@pytest.mark.parametrize("kind", REP_KINDS)
def test_witness_depends_only_on_the_nullspace(kind):
    """Re-expressing the nullspace basis through a random unitary, with the
    same draw, leaves every invariant cell's witness unchanged."""
    g = build_generators(RepId(kind))
    rotations = np.random.default_rng(11)
    checked = 0
    for name in OP_ORDER:
        pairs = _pairs_of(g, name)
        basis = _rank_decision(g, get_op(name), DEFAULT_RANK_TOL)[1]
        k = len(basis)
        if k == 0:
            continue
        u, _ = np.linalg.qr(
            rotations.standard_normal((k, k)) + 1j * rotations.standard_normal((k, k))
        )
        witnesses = [
            _select_witness(b, pairs, random.Random(5), DEFAULT_TOL)[0]
            for b in (basis, u @ basis)
        ]
        assert witnesses[0] is not None, (kind, name)
        assert np.max(np.abs(witnesses[0] - witnesses[1])) <= 1e-12, (kind, name)
        checked += 1
    assert checked


def test_singular_nullspace_gives_no_witness():
    """q a = b q holds only for multiples of E_11: the polar factor leaves
    the nullspace and the nullspace element itself is singular."""
    a, b = np.diag([1.0, 2.0]), np.diag([1.0, 3.0])
    basis = [np.diag([1.0, 0.0])]
    pairs = np.array([[a, b]])
    assert _select_witness(basis, pairs, random.Random(0), 1e-9) == (None, None, None)


def test_witness_fallback_checks_the_tolerance(dirac8):
    """With tol below rounding, neither the constructed witness nor the
    projected element passes: _select_witness returns no witness but the
    residual it found, and classify reports indeterminate, not invariant.
    dirac8 under C has a nonzero residual on its monomial equations, where a
    witness with exact entries could reach zero."""
    pairs = _pairs_of(dirac8, "C")
    basis = _rank_decision(dirac8, get_op("C"), DEFAULT_RANK_TOL)[1]
    assert len(basis)
    q, residual, scale = _select_witness(basis, pairs, random.Random(0), 1e-300)
    assert q is None and scale is None
    assert 0 < residual < DEFAULT_TOL
    q, residual, _ = _select_witness(basis, pairs, random.Random(0), DEFAULT_TOL)
    assert q is not None and residual < DEFAULT_TOL

    result = classify(dirac8, "C", tol=1e-300)
    assert result.indeterminate and not result.invariant
    assert result.verdict == "indeterminate"
    assert result.nullspace_dim >= 1 and result.witness is None
    assert result.residual > 0


def test_block_sparse_witness_is_exact_on_canonical8(canonical8):
    """canonical8's nullspace basis under C is block sparse, with exact zeros
    off its submatrices, and the projected element it gives has residual
    exactly 0.0 on the monomial equations: it passes even tol 1e-300, as an
    invariant verdict without an involution scale, since the constructed
    witness's square misses that tol."""
    result = classify(canonical8, "C", tol=1e-300)
    assert result.verdict == "invariant"
    assert result.residual == 0.0 and result.involution_scale is None
    assert result.witness is not None
    assert _witness_residual(result.witness, _pairs_of(canonical8, "C")) == 0.0


def test_witness_falls_back_when_the_commutant_is_not_adjoint_closed():
    """q J = J q and q y = (J y J^-1) q hold only for multiples of the Jordan
    block J, whose commutant holds no adjoints.  The polar factor of J leaves
    the nullspace, so J itself is reported without an involution scale."""
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    y = np.diag([1.0, 2.0])
    pairs = np.array([
        [jordan, jordan],
        [y, jordan @ y @ np.linalg.inv(jordan)],
    ])
    basis = [jordan / np.linalg.norm(jordan)]
    q, residual, scale = _select_witness(basis, pairs, random.Random(0), 1e-9)
    assert scale is None and residual < 1e-9
    assert np.allclose(q / q[0, 0], jordan)


def test_classification_does_not_import_scipy():
    """Witnesses are closed-form linear algebra: classifying every
    representation, and the selftest, algebra and massless commands, import
    no part of scipy."""
    code = (
        "import contextlib, io, sys\n"
        "from ptclab.classify import full_table, intertwining_check\n"
        "from ptclab.cli import main\n"
        "from ptclab.generators import REP_KINDS, RepId\n"
        "for kind in REP_KINDS:\n"
        "    full_table(RepId(kind))\n"
        "intertwining_check()\n"
        "for argv in (['selftest'], ['algebra', '--rep', 'dirac8'], ['massless']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ptclab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_commands_do_not_import_numpy_ma():
    """numpy's unique() imports numpy.ma on first use, about 18 ms and 2 MB
    per process; a table and a classify command run without it."""
    code = (
        "import contextlib, io, sys\n"
        "from ptclab.cli import main\n"
        "for argv in (['table', '--rep', 'dirac8'], ['classify', '--rep', 'rep1', '--op', 'C']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ptclab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_commands_do_not_import_numpy_random_or_labels():
    """The witness draw comes from the standard library's random module and
    the label calculus is imported only where it is used: a table and a
    classify command load neither numpy.random nor ptclab.labels nor the
    fractions module it needs, and algebra and selftest load no
    ptclab.labels.  Only the classifier uses numpy: selftest, algebra and
    massless load no numpy module at all (listed as numpy*)."""
    code = (
        "import contextlib, io, json, sys\n"
        "from ptclab.cli import main\n"
        "argv = json.loads(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(argv) == 0, argv\n"
        "names = ('numpy.random', 'ptclab.labels', 'fractions')\n"
        "loaded = [name for name in names if name in sys.modules]\n"
        "loaded += ['numpy*'] if any(m.split('.')[0] == 'numpy' for m in sys.modules) else []\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ptclab.__file__).resolve().parents[1]))
    classifying = {"numpy.random", "ptclab.labels", "fractions"}
    banned = {
        ("table", "--rep", "dirac8"): classifying,
        ("classify", "--rep", "rep1", "--op", "C"): classifying,
        ("algebra", "--rep", "dirac8"): {"ptclab.labels", "numpy*"},
        ("selftest",): {"ptclab.labels", "numpy*"},
        ("massless",): {"numpy*"},
    }
    for argv, names in banned.items():
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert not set(json.loads(out.stdout)) & names, argv


def test_classify_submodule_is_not_shadowed():
    import ptclab.classify as module

    assert isinstance(module, types.ModuleType)


def test_indeterminate_flagged_not_misclassified(rep1):
    result = classify(rep1, "C", rank_tol=1e-1)
    assert result.indeterminate
    assert not result.invariant


# ---------------------------------------------------------------------------
# intertwining relations of the eight-component witnesses


def test_intertwining_relations():
    report = intertwining_check()
    assert not report.missing
    assert report.ok
    assert set(report.residuals) == {"P1_swap", "M_swap", "T1_commute"}
    for value in report.residuals.values():
        assert value < 1e-9


def test_identity_fails_swap_relation():
    # negative control: S_a and T_a differ, so the identity cannot intertwine them
    spin = cached_spin(8)
    worst = max(
        float(np.max(np.abs(np.eye(8) @ np.asarray(spin.S[a]) - np.asarray(spin.T[a]) @ np.eye(8))))
        for a in range(3)
    )
    assert worst > 0.4


def test_parity_witness_swaps_casimir_eigenspaces(canonical8):
    result = classify(canonical8, "P1")
    assert result.invariant
    spin = cached_spin(8)
    w = result.witness
    p_s = np.asarray(spectral_projector(spin.s_squared, 0.75, (0, 0.75)))
    p_t = np.asarray(spectral_projector(spin.t_squared, 0.75, (0, 0.75)))
    # w S^2 = T^2 w follows from the swap relation, so w maps the excited
    # S-block onto the excited T-block
    assert np.max(np.abs(w @ p_s - p_t @ w)) < 1e-9
