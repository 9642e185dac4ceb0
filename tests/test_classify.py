import importlib

import numpy as np
import pytest

from ptclab.classify import (
    OP_ORDER,
    PAPER_CLAIMS,
    PRIMITIVE_OPS,
    _compressed_samples,
    _constraint_blocks,
    _SampleSet,
    build_constraints,
    classify,
    compose_ops,
    full_table,
    get_op,
    intertwining_check,
    momentum_action,
)
from ptclab.clifford import cached_spin, spectral_projector
from ptclab.generators import REP_KINDS, RepId, build_generators
from ptclab.operators import MomentumOperator, apply_flags, equal_at, eval_operator
from ptclab.sampling import DEFAULT_RANK_TOL, DEFAULT_SEED, env_arrays, sample_points


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
    assert momentum_action(op).is_identity
    assert op.signs == (1, 1, 1, 1)


def test_subsidiary_position_conditions_hold_identically(points):
    """The flagged position operator is exactly eta_x times itself, so the
    anticommutation (space reflections) / commutation (time and mass flips)
    conditions with any constant matrix hold with zero residual."""
    for op in PRIMITIVE_OPS.values():
        f = momentum_action(op)
        for a in (1, 2, 3):
            x = MomentumOperator.position(a, 4)
            ok, resid = equal_at(apply_flags(x, f), x.scale(op.eta_x), points, tol=1e-12)
            assert ok and resid == 0.0, (op.name, a, resid)


# ---------------------------------------------------------------------------
# constraint systems


def test_constraint_nullspace_dimensions(rep1, points):
    mat = build_constraints(rep1, get_op("P1"), points)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert np.sum(sv < 1e-8 * sv[0]) == 0  # claim 1: no parity intertwiner

    mat = build_constraints(rep1, get_op("Mx"), points)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert np.sum(sv < 1e-8 * sv[0]) >= 1


def _oracle_blocks(g, op, points):
    """(flagged coeffs, coeffs, sign) per (generator, multi-index), with the
    flagged operator built symbolically by apply_flags and evaluated as is."""
    env = env_arrays(points)
    flags = momentum_action(op)
    blocks = []
    for name, gen in g.items():
        plain = eval_operator(gen, env, derivatives=False).coeffs
        flagged = eval_operator(apply_flags(gen, flags), env, derivatives=False).coeffs
        for alpha in sorted(plain):
            blocks.append((flagged[alpha], plain[alpha], op.generator_sign(name)))
    return blocks


def _stacked_system(blocks, d):
    """Every row of every block at every sample, uncompressed."""
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
    """Reflected-point blocks, R-factor singular values and nullspace
    dimensions agree with the apply_flags path and a dense SVD of the full
    stacked system."""
    g = build_generators(RepId(kind))
    samples = _SampleSet(sample_points(seed=seed))
    table = full_table(g, samples, seed=seed)
    for name in OP_ORDER:
        op = get_op(name)
        oracle = _oracle_blocks(g, op, samples)
        blocks = _constraint_blocks(g, op, samples)
        assert len(blocks) == len(oracle)
        for (a, b, sign), (a0, b0, sign0) in zip(blocks, oracle):
            assert sign == sign0
            scale = max(1.0, float(np.max(np.abs(a0))))
            assert np.max(np.abs(a - a0)) <= 1e-14 * scale, (kind, name)
            assert np.array_equal(b, b0)
        dense = np.linalg.svd(_stacked_system(oracle, g.dim), compute_uv=False)
        factor = build_constraints(g, op, samples)
        assert factor.shape == (g.dim ** 2, g.dim ** 2)
        singular = np.linalg.svd(factor, compute_uv=False)
        assert np.max(np.abs(singular - dense)) <= 1e-12 * dense[0], (kind, name)
        expected_dim = int(np.sum(dense < DEFAULT_RANK_TOL * dense[0]))
        assert table.rows[name].result.nullspace_dim == expected_dim, (kind, name)


def test_full_table_evaluates_each_generator_once_per_reflection(monkeypatch, points):
    # the package re-exports the function classify under the submodule's name
    classify_module = importlib.import_module("ptclab.classify")
    calls = {}
    original = classify_module.eval_operator

    def counting(op, env, derivatives=True):
        calls[id(op)] = calls.get(id(op), 0) + 1
        return original(op, env, derivatives)

    monkeypatch.setattr(classify_module, "eval_operator", counting)
    g = build_generators(RepId("canonical8"))
    full_table(g, points)
    assert set(calls) == {id(gen) for gen in g.ops.values()}
    assert max(calls.values()) <= 7


def test_compressed_samples_keep_the_gram_matrix():
    """A block that is the same at every sample becomes one row, a block of
    rank two two rows and an all-zero block none; a block of full rank keeps
    its n rows even when most of its weight lies in two directions.  The
    Gram matrix of the (A, sign B) pairs is unchanged."""
    rng = np.random.default_rng(3)
    n, d = 6, 2

    def mats(k):
        return rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))

    constant = np.repeat(mats(1), n, axis=0)
    weights = rng.standard_normal((n, 2))
    low_rank = np.einsum("sk,kij->sij", weights, mats(2))
    zero = np.zeros((n, d, d), dtype=complex)
    blocks = [
        (constant, 3 * constant, 1),
        (low_rank, 2 * low_rank, -1),
        (zero, zero, 1),
        (low_rank + 1e-9 * mats(n), low_rank, 1),
    ]
    pairs = np.concatenate(
        [np.concatenate([a.reshape(n, -1), s * b.reshape(n, -1)], axis=1) for a, b, s in blocks]
    )
    z = _compressed_samples(blocks)
    assert len(z) == 1 + 2 + 0 + n
    gram = pairs.conj().T @ pairs
    assert np.max(np.abs(z.conj().T @ z - gram)) <= 1e-13 * np.max(np.abs(gram))


def test_single_sample_is_enough(rep1, points):
    """The compressed system of one sample can have fewer than d^2 rows; the
    factor is padded so the missing directions count as nullspace."""
    one = points[:1]
    for name in OP_ORDER:
        op = get_op(name)
        dense = np.linalg.svd(
            _stacked_system(_oracle_blocks(rep1, op, one), rep1.dim), compute_uv=False
        )
        result = classify(rep1, op, one)
        assert result.nullspace_dim == int(np.sum(dense < DEFAULT_RANK_TOL * dense[0]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"points": []},
        {"tol": 0.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"rank_tol": 0.0},
        {"rank_tol": float("nan")},
        {"rank_tol": 1.0},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "7"},
    ],
)
def test_invalid_settings_raise(rep1, points, kwargs):
    kwargs = {"points": points, **kwargs}
    with pytest.raises(ValueError):
        classify(rep1, "C", **kwargs)
    with pytest.raises(ValueError):
        full_table(rep1, **kwargs)


def test_invalid_sample_count_raises():
    for count in (0, -1):
        with pytest.raises(ValueError):
            sample_points(count=count)


def test_classify_spot_checks(rep1, rep2, rep3, points):
    assert classify(rep1, "C", points).invariant
    assert classify(rep2, "P2", points).invariant
    assert not classify(rep2, "C", points).invariant
    assert not classify(rep3, "T1", points).invariant


def test_noninvariant_report_fields(rep1, points):
    result = classify(rep1, "P1", points)
    assert not result.invariant and not result.indeterminate
    assert result.nullspace_dim == 0
    assert result.witness is None and result.residual is None
    # evidence: the smallest retained singular value sits well above threshold
    assert result.smallest_singular_value > 10 * 1e-8 * result.largest_singular_value


@pytest.mark.parametrize("kind", ["rep1", "rep2", "rep3"])
def test_full_table_matches_paper(kind, points):
    table = full_table(RepId(kind), points)
    claims = PAPER_CLAIMS[kind]
    for name, row in table.rows.items():
        if name in claims["invariant"]:
            assert row.verdict == "invariant", name
        elif name in claims["noninvariant"]:
            assert row.verdict == "noninvariant", name
        else:
            assert row.expectation is None  # computed, unstated in the claims
    assert table.matches_paper


def test_unstated_entries_are_labelled(points):
    table = full_table(RepId("rep1"), points)
    assert table.rows["T1"].expectation is None
    assert table.rows["T1"].matches is None
    table8 = full_table(RepId("canonical8"), points)
    assert all(row.expectation is None for row in table8.rows.values())


def test_witness_contract(rep1, rep2, rep3, points):
    for g in (rep1, rep2, rep3):
        table = full_table(g, points)
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


def test_verdicts_stable_across_sample_sets(points, points_alt):
    for kind in ("rep1", "rep2", "rep3"):
        g = build_generators(RepId(kind))
        first = full_table(g, points).verdicts()
        second = full_table(g, points_alt).verdicts()
        assert first == second


def test_indeterminate_flagged_not_misclassified(rep1, points):
    result = classify(rep1, "C", points, rank_tol=1e-1)
    assert result.indeterminate
    assert not result.invariant


# ---------------------------------------------------------------------------
# intertwining relations of the eight-component witnesses


def test_intertwining_relations(canonical8, points):
    report = intertwining_check(canonical8, points)
    assert not report.missing
    assert report.ok
    assert set(report.residuals) == {"P1_swap", "M_swap", "T1_commute"}
    for value in report.residuals.values():
        assert value < 1e-9


def test_identity_fails_swap_relation():
    # negative control: S_a and T_a differ, so the identity cannot intertwine them
    spin = cached_spin(8)
    worst = max(
        float(np.max(np.abs(np.eye(8) @ spin.S[a] - spin.T[a] @ np.eye(8))))
        for a in range(3)
    )
    assert worst > 0.4


def test_parity_witness_swaps_casimir_eigenspaces(canonical8, points):
    result = classify(canonical8, "P1", points)
    assert result.invariant
    spin = cached_spin(8)
    w = result.witness
    p_s = spectral_projector(spin.s_squared, 0.75)
    p_t = spectral_projector(spin.t_squared, 0.75)
    # w S^2 = T^2 w follows from the swap relation, so w maps the excited
    # S-block onto the excited T-block
    assert np.max(np.abs(w @ p_s - p_t @ w)) < 1e-9
