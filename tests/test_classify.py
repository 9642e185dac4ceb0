import json
import math
from fractions import Fraction
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptclab
import ptclab.classify as classify_module
from ptclab.classify import (
    OP_ORDER,
    PAPER_CLAIMS,
    PRIMITIVE_OPS,
    SIGN_CLASSES,
    UNITS,
    WITNESS_CANDIDATES,
    _PAIRS,
    _ROWS,
    _cell_equations,
    _combine,
    _decide,
    _equation_table,
    _nullspace,
    _pair,
    _scalar_product,
    _select_witness,
    _witness_residual,
    classify,
    compose_ops,
    full_table,
    get_op,
    momentum_action,
    paper_expectation,
)
from ptclab.clifford import cached_basis, cached_spin
from ptclab.expr import LAURENT_VARS
from ptclab.generators import GENERATOR_CLASS, REP_KINDS, GeneratorSet, build_generators
from ptclab.operators import (
    ZERO_INDEX,
    Coefficient,
    FlagTransform,
    MomentumOperator,
)
from ptclab.vocabulary import DEFAULT_SEED, check_seed

from oracles import (
    RANK_TOL,
    apply_flags,
    arrays,
    complex_witness_residual,
    dense_pairs,
    dense_scalar_product,
    dense_select_witness,
    env_arrays,
    equal_at,
    eval_operator,
    float_nullity,
    intertwining_check,
    monomial_blocks,
    monomial_pairs,
    position,
    sample_points,
    scaled,
    spectral_projector,
    stacked_system,
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
    """The monomial pairs of g under the named operator, as arrays."""
    return dense_pairs(monomial_pairs(g, get_op(name)), g.dim)


def _basis(g, op):
    """The exact nullspace basis of g's monomial equations under op."""
    return _decide(frozenset(_cell_equations(g, op)), g.dim, op.conj)[0]


def _rows(equations) -> list:
    """The distinct rows of a cell's equations {pair key: s}, the dicts of
    _ROWS that their families' ids name, the sparsest first."""
    return sorted((_ROWS[i] for i in set().union(*(_pair(key)[2] for key in equations))), key=len)


def _complex(w: dict, d: int) -> tuple:
    """The d x d rows of complex of a sparse Gaussian-integer matrix
    {(i, j): (re, im)}."""
    return tuple(tuple(complex(*w.get((i, j), (0, 0))) for j in range(d)) for i in range(d))


def _matrix(vector, dim):
    """The d x d array of a nullspace vector {(i, j): (re, im)}."""
    q = np.zeros((dim, dim), dtype=complex)
    for (i, j), (re, im) in vector.items():
        q[i, j] = complex(re, im)
    return q


def test_constraint_nullspace_dimensions(rep1):
    assert _basis(rep1, get_op("P1")) == []  # claim 1: no parity intertwiner

    basis = _basis(rep1, get_op("Mx"))
    assert len(basis) == 2
    pairs = _pairs_of(rep1, "Mx")
    for vector in basis:  # every basis element solves every monomial equation exactly
        q = _matrix(vector, rep1.dim)
        assert np.array_equal(q @ pairs[:, 0], pairs[:, 1] @ q)


def _mats(g) -> list:
    """The matrices of g's monomial equations, from the oracle's blocks."""
    return [mat for block in monomial_blocks(g) for mat in block.terms.values()]


def test_monomial_equation_counts():
    """One equation per distinct monomial of every block in normal form: 34
    on dirac8 and 40 on every other set, summed over 19 blocks, in the
    oracle's blocks and in the package's equation table alike."""
    for kind, sign in SETS:
        g = build_generators(kind, sign)
        mats = _mats(g)
        assert len(mats) == (34 if kind == "dirac8" else 40), (kind, sign)
        assert len(monomial_blocks(g)) == 19, (kind, sign)
        assert all(mats), (kind, sign)
        assert len(_equation_table(g)[1]) == len(mats), (kind, sign)


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


def _evaluated_pairs(blocks, pairs, points):
    """The monomial pairs summed into each of the oracle's blocks at each
    sample point, (blocks, n, 2, d, d): sum over the block's equations of
    x^b / E^shift times the pair, with every power taken here, not by the
    package."""
    env = env_arrays(points)
    variables = np.stack([env[name] for name in LAURENT_VARS], axis=1)
    energy = LAURENT_VARS.index("E")
    out = np.zeros((len(blocks), len(points)) + pairs.shape[1:], dtype=complex)
    equations = [(c, exps) for c, block in enumerate(blocks) for exps in block.terms]
    for e, (c, exps) in enumerate(equations):
        for i, x in enumerate(variables):
            weight = math.prod(float(v) ** int(k) for v, k in zip(x, exps))
            out[c, i] += weight / float(x[energy]) ** int(blocks[c].shift) * pairs[e]
    return out


def _sampled_system(blocks):
    """Every row of every block at every sample, as one dense matrix."""
    pairs = [np.stack([a, sign * b], axis=1) for a, b, sign in blocks]
    return stacked_system(np.concatenate(pairs))


def _index_classes(mats, dim: int) -> tuple:
    """The classes of basis indices that no matrix of mats couples: the
    connected components of the union of their supports, each sorted,
    ordered by their smallest index."""
    linked = {i: {i} for i in range(dim)}  # index -> its class so far
    for mat in mats:
        for i, j in mat:
            merged = linked[i] | linked[j]
            for k in merged:
                linked[k] = merged
    return tuple(sorted({tuple(sorted(c)) for c in linked.values()}))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, DEFAULT_SEED + 1])
@pytest.mark.parametrize("kind", REP_KINDS)
def test_reflected_path_matches_flag_oracle(kind, seed):
    """The monomial pairs, with each flag applied as a sign per monomial and
    evaluated at the samples, equal the apply_flags blocks: the flagged side
    within 1e-14 relative, the plain side sign(G) times the coefficient."""
    g = build_generators(kind)
    blocks = monomial_blocks(g)
    points = sample_points(seed=seed)
    for name in OP_ORDER:
        op = get_op(name)
        oracle = _oracle_blocks(g, op, points)
        evaluated = _evaluated_pairs(blocks, dense_pairs(monomial_pairs(g, op), g.dim), points)
        assert len(evaluated) == len(oracle)
        for block, (a0, b0, sign0) in zip(evaluated, oracle):
            scale = max(1.0, float(np.max(np.abs(a0))), float(np.max(np.abs(b0))))
            assert np.max(np.abs(block[:, 0] - a0)) <= 1e-14 * scale, (kind, name)
            assert np.max(np.abs(block[:, 1] - sign0 * b0)) <= 1e-14 * scale, (kind, name)


def test_index_classes_of_each_set():
    """Every coefficient is a sum of Pauli tensor products, so it is block
    diagonal over classes of the basis indices, the components of the union
    of their supports: 4 of 2 on canonical8, 2 of 4 on dirac8 and 2 of 2 on
    the four-component sets, and no coefficient couples two classes.  Every
    operator's monomial pairs give the same classes; classes of unequal size
    are components like any other."""
    expected = {
        "dirac8": (2, 4), "canonical8": (4, 2), "rep1": (2, 2), "rep2": (2, 2), "rep3": (2, 2),
    }
    for kind, shape in expected.items():
        g = build_generators(kind)
        coeffs = np.concatenate(
            [arrays(c)[1] for gen in g.ops.values() for c in gen.terms.values()]
        )
        classes = _index_classes(_mats(g), g.dim)
        assert (len(classes), len(classes[0])) == shape, kind
        assert {len(members) for members in classes} == {shape[1]}, kind
        assert sorted(i for members in classes for i in members) == list(range(g.dim)), kind
        same_class = np.zeros((g.dim, g.dim), dtype=bool)
        for members in classes:
            same_class[np.ix_(members, members)] = True
        assert not np.any(coeffs[:, ~same_class]), kind
        for name in OP_ORDER:
            pairs = monomial_pairs(g, get_op(name))
            assert _index_classes([m for pair in pairs for m in pair], g.dim) == classes, (kind, name)
        full = {(i, j): 1 for i in range(g.dim) for j in range(g.dim)}
        assert _index_classes([full], g.dim) == (tuple(range(g.dim)),), kind
    assert _index_classes([{(1, 2): 1, (2, 3): 1}], 4) == ((0,), (1, 2, 3))


@pytest.mark.parametrize("kind, sign", SETS)
def test_basis_vectors_lie_in_one_submatrix(kind, sign):
    """The elimination runs over all d^2 entries of q, yet in all 72 cells
    every basis vector lies in one (row class, column class) submatrix of q:
    rows that share no entry are never combined."""
    g = build_generators(kind, sign)
    classes = _index_classes(_mats(g), g.dim)
    class_of = {i: k for k, members in enumerate(classes) for i in members}
    for name in OP_ORDER:
        for vector in _basis(g, get_op(name)):
            assert len({(class_of[i], class_of[j]) for i, j in vector}) == 1, (kind, name)


@pytest.mark.parametrize("count", [1, 2, 20])
@pytest.mark.parametrize("kind", REP_KINDS)
def test_blockwise_factor_matches_the_stacked_system(kind, count):
    """The float reference nullity (`oracles.float_nullity`, one SVD of the
    dense system of every monomial equation over all d^2 entries of q) is
    that of the dense system sampled at 20 points.  Fewer samples impose
    fewer conditions, so the sampled nullity at 1 or 2 points can only be
    larger; the reference uses no samples.  The exact nullity of `classify`
    equals the reference's."""
    g = build_generators(kind)
    points = sample_points(count=count)
    for name in OP_ORDER:
        op = get_op(name)
        nullity = float_nullity(_pairs_of(g, name))
        sampled = np.linalg.svd(_sampled_system(_oracle_blocks(g, op, points)), compute_uv=False)
        sampled_nullity = int(np.sum(sampled < RANK_TOL * sampled[0]))
        if count == 20:
            assert nullity == sampled_nullity, (kind, name)
        else:
            assert nullity <= sampled_nullity, (kind, name)
        assert classify(g, op).nullspace_dim == nullity, (kind, name)


def _null_projector(matrix):
    """The orthogonal projector onto the nullspace of a float matrix with at
    least as many rows as columns."""
    _, singular, vh = np.linalg.svd(matrix, full_matrices=False)
    null = vh[np.sum(singular >= RANK_TOL * singular[0]):]
    return null.T @ null.conj()


@pytest.mark.parametrize("kind", REP_KINDS)
def test_merged_system_keeps_the_spectrum_and_the_nullspace(kind):
    """The exact basis spans the nullspace of the dense stacked system of
    every monomial equation: in all nine cells its orthogonal projector is
    the system's null projector within 1e-12."""
    g = build_generators(kind)
    for name in OP_ORDER:
        projector = _null_projector(stacked_system(_pairs_of(g, name)))
        basis = _basis(g, get_op(name))
        if basis:
            q, _ = np.linalg.qr(np.array([_matrix(v, g.dim).ravel() for v in basis]).T)
            assert np.max(np.abs(projector - q @ q.conj().T)) <= 1e-12, (kind, name)
        else:
            assert np.max(np.abs(projector)) <= 1e-12, (kind, name)


def test_full_table_builds_each_monomial_system_once(monkeypatch):
    """Each coefficient of a generator set is put in normal form once, on the
    first cell classified, and the tables after it reuse the result: the
    equation table, with the row-family pairs of every equation, is built
    once per generator set and then reused by all nine operators and by the
    second table."""
    calls = []
    original = Coefficient.on_shell

    def counting(self):
        calls.append(id(self))
        return original(self)

    monkeypatch.setattr(Coefficient, "on_shell", counting)
    base = build_generators("canonical8")
    g = GeneratorSet(base.name, base.dim, dict(base.ops))  # not yet cached
    before = _equation_table.cache_info()
    full_table(g)
    full_table(g)
    after = _equation_table.cache_info()
    coefficients = [id(c) for gen in g.ops.values() for c in gen.terms.values()]
    assert sorted(calls) == sorted(coefficients)
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2 * len(OP_ORDER) - 1


def _real_class(*mats) -> tuple:
    """mats, dyadic complex matrices {(i, j): v}, up to one common real
    factor: each divided by the factor that makes all their entries coprime
    Gaussian integers with the first nonzero part positive, as sorted items
    without zero entries.  q a = b q is one equation for every (r a, r b)."""
    items = [sorted((key, v) for key, v in m.items() if v) for m in mats]
    parts = [Fraction(x) for m in items for _, v in m for x in (v.real, v.imag)]
    unit = Fraction(math.gcd(*(x.numerator for x in parts)), math.lcm(*(x.denominator for x in parts)))
    unit *= 1 if next(x for x in parts if x) > 0 else -1
    return tuple(
        tuple((key, (int(Fraction(v.real) / unit), int(Fraction(v.imag) / unit))) for key, v in m)
        for m in items
    )


def _clear_decisions():
    """Empty the per-process cache of the decisions, so that the next tables
    eliminate and search again."""
    _decide.cache_clear()


def test_row_families_are_built_once_per_process(monkeypatch):
    """Over the sets of `table --rep all` (rep1, rep2, rep3, canonical8),
    `_pair` builds the row-indexed tables and the row family of each pair key
    that some cell picks exactly once, shared across sets, for the
    elimination and for the witness residuals alike, and a second pass, its
    decisions cleared so that it eliminates again, builds none: 43 pairs,
    one per equation of the oracle's monomial pairs up to a real factor,
    fewer than the four per distinct (N, d) an eager build makes.  No two
    picked keys are one equation: a real N is its own conjugate, and an
    imaginary one (conj N = -N) turns q conj(N) = sigma N q into
    q N = -sigma N q, so neither family is ever built twice."""
    sets = [build_generators(kind) for kind in ("rep1", "rep2", "rep3", "canonical8")]
    keys, matrices = set(), set()
    for g in sets:
        for name in OP_ORDER:
            for a, b in monomial_pairs(g, get_op(name)):
                keys.add((_real_class(a, b), g.dim))
                matrices.add((_real_class(b), g.dim))
    picked = []

    def recording(key):
        picked.append(key)
        return _pair(key)

    monkeypatch.setattr(classify_module, "_pair", recording)
    _pair.cache_clear()
    _clear_decisions()
    for g in sets:
        full_table(g)
    first = _pair.cache_info()
    _clear_decisions()
    for g in sets:
        full_table(g)
    second = _pair.cache_info()
    chosen = {key for g in sets for name in OP_ORDER for key in _cell_equations(g, get_op(name))}
    assert first.misses == first.currsize == len(set(picked)) == len(keys) == 43 < 4 * len(matrices)
    assert set(picked) == chosen
    assert second.misses == first.misses
    assert second.hits > first.hits
    classes = {
        (_real_class(*({k: complex(*v) for k, v in m} for m in (a, b))), d)
        for a, b, d in (_PAIRS[key] for key in picked)
    }
    assert classes == keys


def test_pair_tables_are_built_once_per_process():
    """Over the sets of `table --rep all`, `_pair` builds the row-indexed
    tables of each pair key that some cell picks once, for its row family
    and for the witness residuals alike, and a second pass, its decisions
    cleared so that it eliminates again, builds none."""
    sets = [build_generators(kind) for kind in ("rep1", "rep2", "rep3", "canonical8")]
    picked = {key for g in sets for name in OP_ORDER for key in _cell_equations(g, get_op(name))}
    _pair.cache_clear()
    _clear_decisions()
    for g in sets:
        full_table(g)
    first = _pair.cache_info()
    _clear_decisions()
    for g in sets:
        full_table(g)
    second = _pair.cache_info()
    assert first.misses == first.currsize == len(picked) == 43
    assert second.misses == first.misses
    assert second.hits > first.hits


@pytest.mark.parametrize("kind", REP_KINDS)
def test_each_distinct_system_is_decided_once(monkeypatch, kind):
    """With the decisions cleared, a full table calls `_nullspace` once per
    distinct system among its nine cells, counted on the oracle's monomial
    pairs as sets of equations up to a real factor: fewer than nine, since
    some operators impose the same equations (P1 and Mt, T1 and Mx on
    dirac8, P1 and M on the other sets).  The basis each cell then reads
    from the cache is `_nullspace` of that cell's own rows."""
    g = build_generators(kind)
    systems = {
        frozenset(_real_class(a, b) for a, b in monomial_pairs(g, get_op(name))) for name in OP_ORDER
    }
    calls = []

    def counting(rows, n):
        calls.append(n)
        return _nullspace(rows, n)

    monkeypatch.setattr(classify_module, "_nullspace", counting)
    _clear_decisions()
    full_table(g)
    assert len(calls) == len(systems) < len(OP_ORDER)
    decided = _decide.cache_info()
    for name in OP_ORDER:
        op = get_op(name)
        equations = _cell_equations(g, op)
        own = _nullspace(_rows(equations), g.dim ** 2)
        expected = [{divmod(c, g.dim): v for c, v in vector.items()} for vector in own]
        assert _decide(frozenset(equations), g.dim, op.conj)[0] == expected, (kind, name)
    assert _decide.cache_info().misses == decided.misses
    assert len(calls) == len(systems)


def test_no_system_is_both_linear_and_antilinear():
    """`_decide` is keyed by conj as well as by the system, yet eliminates
    no system twice: over the five sets and the three negative-energy sets,
    which one process may classify in turn, no system of pair keys is
    imposed by both a linear and an antilinear operator.  A set that breaks
    this is named with the cells that share the system."""
    cells = {}  # (system, d) -> conj -> [(kind, sign, op name)]
    for kind, sign in SETS:
        g = build_generators(kind, sign)
        for name in OP_ORDER:
            op = get_op(name)
            system = (frozenset(_cell_equations(g, op)), g.dim)
            cells.setdefault(system, {}).setdefault(op.conj, []).append((kind, sign, name))
    assert [by_conj for by_conj in cells.values() if len(by_conj) > 1] == []


def test_mutated_boost_coefficient_changes_the_verdicts(rep1):
    """Left-multiplying any one matrix of rep1's J01 zero-index coefficient
    by gamma0 breaks exactly the C and Mt invariances: both cells turn
    noninvariant, with an exactly trivial nullspace, and every other
    verdict stays.  (Flipping the sign of one matrix moves
    no verdict: each monomial equation is homogeneous in its matrix.)"""
    base = {name: result.verdict for name, result in full_table(rep1).items()}
    gamma0 = np.asarray(cached_basis(4).gamma0)
    coeff = rep1["J01"].terms[ZERO_INDEX]
    for k in range(len(coeff.mats)):
        exps, mats = arrays(coeff)
        mats[k] = gamma0 @ mats[k]
        terms = dict(rep1["J01"].terms)
        terms[ZERO_INDEX] = Coefficient.from_rows(exps, mats)
        ops = dict(rep1.ops)
        ops["J01"] = MomentumOperator(rep1.dim, terms)
        table = full_table(GeneratorSet(rep1.name, rep1.dim, ops))
        changed = {name for name, result in table.items() if result.verdict != base[name]}
        assert changed == {"C", "Mt"}, k
        for name in changed:
            result = table[name]
            assert result.verdict == "noninvariant", (k, name)
            assert result.nullspace_dim == 0 and result.witness is None, (k, name)


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
    """classify and full_table take no tolerance and no seed: the removed
    keywords are refused whatever their value.  The command line's --seed
    is still range-checked."""
    with pytest.raises(TypeError):
        classify(rep1, "C", **kwargs)
    with pytest.raises(TypeError):
        full_table(rep1, **kwargs)
    if "seed" in kwargs:
        with pytest.raises(ValueError):
            check_seed(kwargs["seed"])


def test_classify_spot_checks(rep1, rep2, rep3):
    assert classify(rep1, "C").verdict == "invariant"
    assert classify(rep2, "P2").verdict == "invariant"
    assert classify(rep2, "C").verdict != "invariant"
    assert classify(rep3, "T1").verdict != "invariant"


def test_noninvariant_report_fields(rep1):
    result = classify(rep1, "P1")
    assert result.verdict == "noninvariant"
    assert result.nullspace_dim == 0
    assert result.witness is None and result.residual is None
    assert result.operator_square is None


@pytest.mark.parametrize("kind", ["rep1", "rep2", "rep3"])
def test_full_table_matches_paper(kind):
    table = full_table(kind)
    assert list(table) == list(OP_ORDER)
    claims = PAPER_CLAIMS[kind]
    for name, result in table.items():
        if name in claims["invariant"]:
            assert result.verdict == "invariant", name
        elif name in claims["noninvariant"]:
            assert result.verdict == "noninvariant", name
        else:
            assert paper_expectation(kind, name) is None  # computed, unstated in the claims
    # the table matches the paper: no cell contradicts its published verdict
    assert all(paper_expectation(kind, name) in (None, r.verdict) for name, r in table.items())


def test_unstated_entries_are_labelled():
    assert paper_expectation("rep1", "T1") is None
    assert all(paper_expectation("canonical8", name) is None for name in full_table("canonical8"))


def test_witness_contract(rep1, rep2, rep3):
    for g in (rep1, rep2, rep3):
        for name, result in full_table(g).items():
            if result.verdict != "invariant":
                continue
            _assert_exact_witness(result, get_op(name).conj, g.dim)


def _assert_exact_witness(result, conj, dim):
    """W has Gaussian-integer entries, W W^H = c 1 with c > 0, its operator
    square is +1 or -1 with W W (W conj(W) when conj) = square c 1, and its
    residual on the monomial equations is 0.0, all exactly."""
    w = np.asarray(result.witness)
    assert np.array_equal(w, np.round(w.real) + 1j * np.round(w.imag))
    c = (w @ w.conj().T)[0, 0].real
    assert c > 0 and np.array_equal(w @ w.conj().T, c * np.eye(dim))
    assert result.operator_square in (1, -1)
    square = w @ (w.conj() if conj else w)
    assert np.array_equal(square, result.operator_square * c * np.eye(dim))
    assert result.residual == 0.0


@pytest.mark.parametrize("kind", REP_KINDS)
def test_witnesses_hold_on_held_out_points(kind, points_alt):
    """Every witness, found without sample points, satisfies the apply_flags
    constraints evaluated at sample points, and is unitary up to scale:
    q q^H = c 1.  The package's residual, computed in Z[i] on each cell's
    distinct equations, equals bit for bit the complex reference (the
    largest |q a - b q| over every monomial pair, in complex floats): 0.0
    for the witness, and the same nonzero value after one entry of the
    witness is shifted by the Gaussian integer 1, i or 3 - 2i, so taking
    each distinct equation once, with its largest real factor, drops none."""
    g = build_generators(kind)
    table = full_table(g)
    invariant = [name for name, result in table.items() if result.verdict == "invariant"]
    assert invariant
    for name in invariant:
        op = get_op(name)
        q = np.asarray(table[name].witness)
        residual = max(
            float(np.max(np.abs(q @ a - sign * b @ q)))
            for a, b, sign in _oracle_blocks(g, op, points_alt)
        )
        assert residual < 1e-9, (kind, name)
        pairs = monomial_pairs(g, op)
        equations = _cell_equations(g, op)
        w = {(i, j): (int(v.real), int(v.imag)) for (i, j), v in np.ndenumerate(q)}
        assert _witness_residual(w, equations, g.dim) == 0.0, (kind, name)
        assert complex_witness_residual(q, pairs) == 0.0, (kind, name)
        for shift in ((1, 0), (0, 1), (3, -2)):
            shifted = dict(w)
            shifted[0, 0] = (w[0, 0][0] + shift[0], w[0, 0][1] + shift[1])
            reference = complex_witness_residual(_complex(shifted, g.dim), pairs)
            exact = _witness_residual(shifted, equations, g.dim)
            assert exact == reference > 0.0, (kind, name, shift)
        c = (q @ q.conj().T)[0, 0].real
        assert np.array_equal(q @ q.conj().T, c * np.eye(g.dim)), (kind, name)


def test_equations_that_share_a_matrix_keep_its_largest_factor():
    """H = N p1 + 2 N m for N = diag(1, i, 0, 0) gives two monomial
    equations whose matrices differ by a real factor; under T1 both impose
    q N = -N q, so the cell keeps one equation, the key of the pair (n, -n) with
    n = diag(1, i, 0, 0) as items, with the larger factor 2,
    and the residual of any W is that of the 2N equation, bit for bit the
    complex reference over both pairs."""
    n = np.diag([1, 1j, 0, 0])
    coeff = Coefficient.from_rows([(1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)], [n, 2 * n])
    g = GeneratorSet("toy", 4, {"P0": MomentumOperator.from_matrix(coeff)})
    op = get_op("T1")
    n = (((0, 0), (1, 0)), ((1, 1), (0, 1)))
    minus = (((0, 0), (-1, 0)), ((1, 1), (0, -1)))
    equations = _cell_equations(g, op)
    assert [(_PAIRS[key], s) for key, s in equations.items()] == [((n, minus, 4), 2.0)]
    w = {(0, 0): (1, 0), (0, 1): (3, -2), (1, 1): (0, 1), (2, 3): (1, 1)}
    reference = complex_witness_residual(_complex(w, 4), monomial_pairs(g, op))
    assert _witness_residual(w, _cell_equations(g, op), 4) == reference > 0.0


def _mixed(rows):
    """Each row plus (1 + i) times the next: an invertible Gaussian-integer
    recombination, so the same row space."""
    return [
        _combine((1, 0), row, (-1, -1), rows[k + 1]) if k + 1 < len(rows) else row
        for k, row in enumerate(rows)
    ]


@pytest.mark.parametrize("kind", REP_KINDS)
def test_witness_depends_only_on_the_nullspace(kind):
    """The nullspace basis is a function of the nullspace alone: eliminating
    each cell's rows in reverse order, or after recombining them invertibly,
    gives the same primitive vectors, and so the same witness."""
    g = build_generators(kind)
    checked = 0
    for name in OP_ORDER:
        rows = _rows(_cell_equations(g, get_op(name)))
        basis = _nullspace(rows, g.dim ** 2)
        assert _nullspace(rows[::-1], g.dim ** 2) == basis, (kind, name)
        assert _nullspace(_mixed(rows), g.dim ** 2) == basis, (kind, name)
        checked += bool(basis)
    assert checked


def test_singular_nullspace_gives_no_witness():
    """A nullspace spanned by E_11, or by the Jordan block J = 1 + E_12,
    holds no unitary element: the search returns no witness, and neither
    does the dense reference search."""
    jordan = {(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0)}
    for basis, conj in (([{(0, 0): (1, 0)}], False), ([jordan], False), ([jordan], True)):
        reference = dense_select_witness(basis, 2, conj, UNITS, WITNESS_CANDIDATES)
        assert _select_witness(basis, 2, conj) is None and reference is None, (basis, conj)


@pytest.mark.parametrize("kind", REP_KINDS)
def test_witness_search_matches_the_dense_reference(kind):
    """In every cell with a nonzero nullity, the sparse witness search
    returns the same (W, lambda) as the dense reference search."""
    g = build_generators(kind)
    checked = 0
    for name in OP_ORDER:
        op = get_op(name)
        basis = _basis(g, op)
        if basis:
            found = _select_witness(basis, g.dim, op.conj)
            reference = dense_select_witness(basis, g.dim, op.conj, UNITS, WITNESS_CANDIDATES)
            if found is None:
                assert reference is None, (kind, name)
                continue
            w, square = found
            assert (_complex(w, g.dim), square) == reference, (kind, name)
            assert classify(g, op).witness == reference[0], (kind, name)
            checked += 1
    assert checked


def test_block_sparse_witness_is_exact_on_canonical8(canonical8):
    """canonical8's nullspace basis under C is block sparse, with exact zeros
    off its submatrices, and the witness combined from it is a
    Gaussian-integer unitary with residual exactly 0.0 on the monomial
    equations, in Z[i] and in the complex reference, and antiunitary
    square -1."""
    op = get_op("C")
    result = classify(canonical8, op)
    assert result.verdict == "invariant"
    basis = _basis(canonical8, op)
    for vector in basis:
        assert len({(i // 2, j // 2) for i, j in vector}) == 1
    _assert_exact_witness(result, True, 8)
    assert result.operator_square == -1
    w, _ = _select_witness(basis, 8, True)
    assert _complex(w, 8) == result.witness
    assert _witness_residual(w, _cell_equations(canonical8, op), 8) == 0.0
    pairs = monomial_pairs(canonical8, op)
    assert complex_witness_residual(result.witness, pairs) == 0.0


def test_classification_does_not_import_scipy():
    """Witnesses are closed-form linear algebra: classifying every
    representation, and the selftest, algebra and massless commands, import
    no part of scipy."""
    code = (
        "import contextlib, io, sys\n"
        "from ptclab.classify import full_table\n"
        "from ptclab.cli import main\n"
        "from ptclab.generators import REP_KINDS\n"
        "from oracles import intertwining_check\n"
        "for kind in REP_KINDS:\n"
        "    full_table(kind)\n"
        "intertwining_check()\n"
        "for argv in (['selftest'], ['algebra', '--rep', 'dirac8'], ['massless']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    paths = (Path(ptclab.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
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
    """The label calculus is imported only where it is used: a table and a
    classify command load no ptclab.labels, and algebra and selftest load
    no ptclab.labels either.  Labels hold spins as integers 2s, so massless
    and ptc load no fractions module.  No command uses numpy: none loads a
    numpy module at all (listed as numpy*)."""
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
    classifying = {"numpy.random", "numpy*", "ptclab.labels", "fractions"}
    banned = {
        ("table", "--rep", "dirac8"): classifying,
        ("classify", "--rep", "rep1", "--op", "C"): classifying,
        ("algebra", "--rep", "dirac8"): {"ptclab.labels", "numpy*"},
        ("selftest",): {"ptclab.labels", "numpy*"},
        ("massless",): {"numpy*", "fractions"},
        ("ptc", "--labels", "D+(1/2,0)+D-(1/2,0)"): {"numpy*", "fractions"},
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


def singular_nullspace_set():
    """A one-generator set, H = diag(i, 0, 0, 0), whose nullspace under the
    antilinear T2 (q conj(H) = H q) is every q with a zero first row and
    column: 9-dimensional, and every element singular."""
    h = Coefficient.constant(np.diag([1j, 0, 0, 0]))
    return GeneratorSet("toy", 4, {"P0": MomentumOperator.from_matrix(h)})


def test_indeterminate_flagged_not_misclassified():
    """A nullspace with no unitary element is neither evidence of invariance
    nor of noninvariance: the verdict is indeterminate."""
    result = classify(singular_nullspace_set(), "T2")
    assert result.verdict == "indeterminate"
    assert result.nullspace_dim == 9
    assert result.witness is None and result.residual is None


@pytest.mark.parametrize("kind, sign", SETS)
def test_exact_nullity_matches_the_float_reference(kind, sign):
    """In all 72 cells (the five sets and the three negative-energy sets,
    nine operators each), the exact nullity equals the float reference's
    (one SVD of the dense system at a relative threshold of 1e-8), nullity 0
    is exactly the noninvariant cells, and every invariant cell has an exact
    witness."""
    g = build_generators(kind, sign)
    for name in OP_ORDER:
        result = classify(g, name)
        assert result.nullspace_dim == float_nullity(_pairs_of(g, name)), (kind, name)
        assert result.verdict == ("invariant" if result.nullspace_dim else "noninvariant")
        if result.verdict == "invariant":
            _assert_exact_witness(result, get_op(name).conj, g.dim)


_GAUSSIAN = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    entries=st.lists(_GAUSSIAN, min_size=36, max_size=36),
    low_rank=st.booleans(),
)
def test_elimination_matches_numpy_rank(shape, entries, low_rank):
    """On small Gaussian-integer matrices (rank-deficient ones included, by
    repeating a combination of the first rows), the nullity of the
    fraction-free elimination equals numpy's rank deficiency, and every
    basis vector annihilates every row exactly in integers."""
    m, n = shape
    rows = [
        {j: v for j, v in enumerate(entries[i * n:(i + 1) * n]) if v != (0, 0)}
        for i in range(m)
    ]
    if low_rank and m > 1:
        rows[-1] = _combine((1, 1), rows[0], (2, 0), rows[1])
    basis = _nullspace(rows, n)
    dense = np.array([[complex(*row.get(j, (0, 0))) for j in range(n)] for row in rows])
    assert len(basis) == n - np.linalg.matrix_rank(dense)
    for vector in basis:
        assert any(vector.values())
        for row in rows:
            re = sum(a[0] * vector[j][0] - a[1] * vector[j][1] for j, a in row.items() if j in vector)
            im = sum(a[0] * vector[j][1] + a[1] * vector[j][0] for j, a in row.items() if j in vector)
            assert (re, im) == (0, 0)


def _dense(m: dict, d: int) -> list:
    return [[m.get((i, j), (0, 0)) for j in range(d)] for i in range(d)]


@st.composite
def _square_pairs(draw):
    """(u, v, d): sparse Gaussian-integer d x d matrices, random, zero, with
    u v scalar (u a monomial unitary, v = s u^H), or almost scalar (one entry
    of such a v shifted)."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "zero", "scalar", "almost"]))
    cells = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    if kind == "random":
        u, v = (draw(st.dictionaries(cells, _GAUSSIAN, max_size=2 * d)) for _ in range(2))
    elif kind == "zero":
        u = draw(st.dictionaries(cells, _GAUSSIAN, max_size=2 * d))
        u, v = draw(st.permutations([u, {}]))
    else:
        perm = draw(st.permutations(range(d)))
        units = draw(st.lists(st.sampled_from(UNITS[:4]), min_size=d, max_size=d))
        s = draw(_GAUSSIAN)
        u = {(i, perm[i]): unit for i, unit in enumerate(units)}
        v = {
            (j, i): (s[0] * re + s[1] * im, s[1] * re - s[0] * im) for (i, j), (re, im) in u.items()
        }
        if kind == "almost":
            key, delta = draw(cells), draw(_GAUSSIAN.filter(lambda x: x != (0, 0)))
            old = v.get(key, (0, 0))
            v[key] = (old[0] + delta[0], old[1] + delta[1])
    u, v = ({key: x for key, x in m.items() if x != (0, 0)} for m in (u, v))
    return u, v, d


@settings(max_examples=300, deadline=None)
@given(_square_pairs())
def test_sparse_scalar_product_matches_the_dense_reference(case):
    """The sparse, early-exit test of u v = s 1 gives the same s (or None)
    as the full dense product."""
    u, v, d = case
    assert _scalar_product(u, v, d) == dense_scalar_product(_dense(u, d), _dense(v, d))


# ---------------------------------------------------------------------------
# intertwining relations of the eight-component witnesses


def test_intertwining_relations():
    report = intertwining_check()
    assert not report.missing
    assert report.ok
    assert set(report.residuals) == {"P1_swap", "M_swap", "T1_commute"}
    for value in report.residuals.values():
        assert value == 0.0


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
    assert result.verdict == "invariant"
    spin = cached_spin(8)
    w = result.witness
    p_s = np.asarray(spectral_projector(spin.s_squared, 0.75, (0, 0.75)))
    p_t = np.asarray(spectral_projector(spin.t_squared, 0.75, (0, 0.75)))
    # w S^2 = T^2 w follows from the swap relation, so w maps the excited
    # S-block onto the excited T-block, exactly
    w = np.asarray(w)
    assert np.array_equal(w @ p_s, p_t @ w)
