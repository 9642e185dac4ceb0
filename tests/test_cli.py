import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptclab
import ptclab.clifford as clifford
import ptclab.generators as generators
from ptclab.cli import main
from ptclab.clifford import cached_basis, cached_spin
from ptclab.expr import LAURENT_VARS, MASS
from ptclab.generators import GENERATOR_NAMES, RepId, build_generators
from ptclab.operators import ZERO_INDEX, Coefficient, MomentumOperator
from ptclab.vocabulary import OP_ORDER, REP_KINDS

from oracles import casimir_spectrum, spectral_projector, subspace_decomposition

SRC = str(Path(ptclab.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out
    code, payload = run_json(capsys, "selftest")
    assert code == 0 and payload["pass"] is True
    assert [c["residual"] for c in payload["checks"]] == [0.0] * 6


# (numerator, doctored value, the first check it fails); with U = 1 + X,
# X = Gamma0 H8 / E: 1 - X still gives U U^H = 2 but U H8 U^H = -2 Gamma0 E,
# 1 + 2X gives U U^H = 5, and N without its mass gives N^H N = 2E^2
_DOCTORED = [
    ("_canonical_numerator", lambda u: Coefficient.scalar(2, 8) - u,
     "hamiltonian_diagonalization"),
    ("_canonical_numerator", lambda u: u.scale(2) - Coefficient.scalar(1, 8),
     "canonical_transform_unitary"),
    ("_connector_numerator", lambda n: n - Coefficient.scalar(MASS, 4),
     "connector_unitary"),
]


@pytest.mark.parametrize("numerator, doctor, check", _DOCTORED)
def test_selftest_names_a_doctored_identity(capsys, monkeypatch, numerator, doctor, check):
    wrong = doctor(getattr(generators, numerator)())
    monkeypatch.setattr(generators, numerator, lambda: wrong)
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert f"FAIL  {check}" in out
    assert f"selftest failed at: {check}" in err


@pytest.mark.parametrize("dim", [4, 8])
def test_selftest_reports_a_failing_basis(capsys, monkeypatch, dim):
    """A Clifford basis that fails its check fails its own selftest line and
    every check that needs it, each with pass false and residual null, and
    the command exits 1 and names the first failure on stderr, in text mode
    only; it never raises.  Every transform needs both bases, and the charge
    check needs the four-dimensional one."""
    validate = clifford._validate

    def doctored(basis):
        if basis.dim == dim:
            raise AssertionError(f"doctored basis of dim {dim}")
        validate(basis)

    monkeypatch.setattr(clifford, "_validate", doctored)
    clifford.cached_basis.cache_clear()
    try:
        code, payload = run_json(capsys, "selftest")
        text_code, out, err = run(capsys, "selftest")
    finally:
        clifford.cached_basis.cache_clear()
    failed = {f"clifford_invariants_dim{dim}", *generators.TRANSFORM_CHECKS}
    failed |= {"charge_commutes"} if dim == 4 else set()
    assert code == text_code == 1 and payload["pass"] is False
    for check in payload["checks"]:
        if check["name"] in failed:
            assert (check["pass"], check["residual"]) == (False, None), check
            assert f"FAIL  {check['name']}\n" in out
        else:
            assert (check["pass"], check["residual"]) == (True, 0.0), check
    assert len(payload["checks"]) == 6
    assert err == f"selftest failed at: clifford_invariants_dim{dim}\n"


def test_selftest_checks_each_basis_once(capsys, monkeypatch):
    """selftest validates the dim-4 and dim-8 bases once each, through the
    cached basis that the other checks use."""
    validate, dims = clifford._validate, []

    def counting(basis):
        dims.append(basis.dim)
        validate(basis)

    monkeypatch.setattr(clifford, "_validate", counting)
    clifford.cached_basis.cache_clear()
    try:
        code, _, _ = run(capsys, "selftest")
    finally:
        clifford.cached_basis.cache_clear()
    assert code == 0 and dims == [4, 8]


# sha256 of the stdout of `table --rep all --json` and `table --rep dirac8 --json`
_TABLE_SHA256 = {
    "all": "cfcaf4c4f70d890aa55edc6f57f957d4c45ca1409ed78da13b8c45c7caae96bd",
    "dirac8": "9c0318992fe9fc98b9e0649ad26c0a890fb9aa01896475c709c5a64c5fa4c1b5",
}


@pytest.mark.parametrize("rep", sorted(_TABLE_SHA256))
def test_table_json_is_pinned(capsys, rep):
    """The table JSON, every verdict, witness, residual and square of it, is
    byte for byte the pinned output."""
    code, out, _ = run(capsys, "table", "--rep", rep, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_SHA256[rep], (
        f"table --rep {rep} --json changed; an intended change must be declared in "
        "CHANGES.md together with the new digest"
    )


@pytest.mark.parametrize("flags", [(), ("--json",), ("--seed", "0"), ("--seed", "7", "--json")])
def test_doctored_selftest_fails_under_every_accepted_flag(capsys, monkeypatch, flags):
    """The connector without its mass misses unitarity by 2: no flag selftest
    accepts turns that into a pass."""
    wrong = generators._connector_numerator() - Coefficient.scalar(MASS, 4)
    monkeypatch.setattr(generators, "_connector_numerator", lambda: wrong)
    code, _, _ = run(capsys, "selftest", *flags)
    assert code == 1


def _outputs_across_seeds(capsys, *command, seeds=("0", "1", "24301")) -> set:
    """The distinct JSON outputs of the command at the default seed and at
    each of `seeds`; a command that reads no setting prints config {}."""
    outputs = set()
    for flags in ([], *(["--seed", seed] for seed in seeds)):
        code, out, _ = run(capsys, *command, *flags, "--json")
        assert code == 0
        assert json.loads(out)["config"] == {}
        outputs.add(out)
    return outputs


def test_selftest_seed_change_same_verdicts(capsys):
    assert len(_outputs_across_seeds(capsys, "selftest")) == 1


def test_massless_seed_change_same_output(capsys):
    assert len(_outputs_across_seeds(capsys, "massless")) == 1


def test_algebra_command(capsys):
    code, payload = run_json(capsys, "algebra", "--rep", "rep2")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["brackets"]) == 45
    assert payload["max_residual"] == 0.0
    assert sorted(payload["adjoint_residuals"]) == sorted(GENERATOR_NAMES)
    assert max(payload["adjoint_residuals"].values()) == 0.0


def test_algebra_generator_export(capsys):
    code, payload = run_json(capsys, "algebra", "--rep", "rep1", "--dump-generators")
    assert code == 0
    gens = payload["generators"]
    assert set(gens) == {"P0", "P1", "P2", "P3", "J12", "J13", "J23", "J01", "J02", "J03"}
    # P1 is p1 times the identity: one order-0 term with the single row p1 * 1
    one = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    assert gens["P1"] == {"0,0,0": [{"exponents": [1, 0, 0, 0, 0, 0], "matrix": one}]}
    # boosts carry a first-order derivative term
    assert any(key != "0,0,0" for key in gens["J01"])
    # the flag takes no value: a sample index is a usage error
    code, _, err = run(capsys, "algebra", "--rep", "rep1", "--dump-generators", "0", "--json")
    assert code == 64 and "unrecognized arguments: 0" in err


@pytest.mark.parametrize("kind", REP_KINDS)
def test_generator_dump_reloads_exactly(capsys, kind):
    """The dumped rows, read back into coefficients, differ from the built
    generators by no row at all, every matrix entry is written as an exact
    dyadic rational, and the dump does not depend on --seed."""
    outputs = _outputs_across_seeds(
        capsys, "algebra", "--rep", kind, "--dump-generators", seeds=("0", "7")
    )
    assert len(outputs) == 1
    text = outputs.pop()
    payload = json.loads(text)
    assert payload["variables"] == list(LAURENT_VARS) == ["p1", "p2", "p3", "m", "t", "E"]
    # each float's decimal text, read as an exact fraction, has a power-of-two
    # denominator: 2^-1/2 would print as 0.7071067811865476, which has not
    exact = json.loads(text, parse_float=Fraction)["generators"]
    entries = [z for terms in exact.values() for rows in terms.values() for row in rows
               for line in row["matrix"] for pair in line for z in pair]
    assert entries and all(isinstance(z, Fraction) for z in entries)
    assert all(z.denominator & (z.denominator - 1) == 0 for z in entries)
    built = build_generators(RepId(kind))
    assert set(payload["generators"]) == set(built.ops)
    for name, terms in payload["generators"].items():
        assert set(terms) == {",".join(map(str, alpha)) for alpha in built[name].terms}
        for key, rows in terms.items():
            exps = [row["exponents"] for row in rows]
            assert all(len(row) == len(LAURENT_VARS) for row in exps), (name, key)
            mats = [[[complex(*z) for z in line] for line in row["matrix"]] for row in rows]
            assert exps == sorted(exps), (name, key)
            reloaded = Coefficient.from_rows(exps, mats)
            alpha = tuple(map(int, key.split(",")))
            difference = reloaded - built[name].terms[alpha]
            assert len(difference.exps) == 0, (kind, name, key)


def test_generator_dump_needs_json(capsys):
    code, out, err = run(capsys, "algebra", "--rep", "rep1", "--dump-generators")
    assert code == 64
    assert out == ""
    assert "--json" in err and "Traceback" not in err


def test_classify_command(capsys):
    code, payload = run_json(capsys, "classify", "--rep", "rep3", "--op", "P1")
    assert code == 0
    assert payload["verdict"] == "invariant"
    assert payload["nullspace_dim"] == 2
    assert payload["config"] == {}
    # complex numbers serialize as [re, im]; the witness is a 4x4 matrix
    assert len(payload["witness"]) == 4
    assert len(payload["witness"][0][0]) == 2
    assert payload["residual"] == 0.0 and payload["operator_square"] == [1.0, 0.0]
    assert "smallest_singular_value" not in payload and "involution_scale" not in payload


def test_classify_indeterminate_exit(capsys, monkeypatch):
    """A nullspace with no unitary element (H = diag(i, 0, 0, 0) under T2,
    whose every solution q has a zero first row) gives exit 2."""
    h = Coefficient.constant(np.diag([1j, 0, 0, 0]))
    toy = generators.GeneratorSet(RepId("rep1"), {"P0": MomentumOperator.from_matrix(h)})
    monkeypatch.setattr(generators, "build_generators", lambda rep: toy)
    code, payload = run_json(capsys, "classify", "--rep", "rep1", "--op", "T2")
    assert code == 2
    assert payload["verdict"] == "indeterminate"
    assert payload["nullspace_dim"] == 9
    assert payload["witness"] is None and payload["residual"] is None
    code, out, _ = run(capsys, "classify", "--rep", "rep1", "--op", "T2")
    assert code == 2 and "no unitary witness" in out


def test_classify_exact_witness_passes_any_tolerance(capsys):
    """canonical8 under C: the witness combined from the block-sparse exact
    nullspace basis has residual exactly 0.0, with its antiunitary square
    -1; the command takes no tolerance (--tol is a usage error)."""
    code, payload = run_json(capsys, "classify", "--rep", "canonical8", "--op", "C")
    assert code == 0
    assert payload["verdict"] == "invariant"
    assert payload["residual"] == 0.0 and payload["operator_square"] == [-1.0, 0.0]
    assert payload["witness"] is not None
    code, _, _ = run(capsys, "classify", "--rep", "canonical8", "--op", "C", "--tol", "1e-300")
    assert code == 64


def test_table_single_rep(capsys):
    code, payload = run_json(capsys, "table", "--rep", "rep1")
    assert code == 0
    ops = payload["reps"]["rep1"]["ops"]
    invariant = {name for name, row in ops.items() if row["verdict"] == "invariant"}
    assert invariant == {"C", "Mx", "Mt", "P1T2"}
    assert ops["T1"]["paper_expectation"] is None
    assert payload["matches_paper"] is True


def test_table_all_includes_unstated_eight_dim_row(capsys):
    code, payload = run_json(capsys, "table", "--rep", "all")
    assert code == 0
    assert set(payload["reps"]) == {"rep1", "rep2", "rep3", "canonical8"}
    eight = payload["reps"]["canonical8"]["ops"]
    assert all(row["paper_expectation"] is None for row in eight.values())


def test_table_json_round_trip_and_determinism(capsys):
    code_a, out_a, _ = run(capsys, "table", "--rep", "rep2", "--json")
    code_b, out_b, _ = run(capsys, "table", "--rep", "rep2", "--json")
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical under identical config
    payload = json.loads(out_a)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["schema"] == 2
    assert payload["config"] == {}


def test_table_json_identical_across_hash_seeds():
    """Fresh processes that differ only in PYTHONHASHSEED (and so in memory
    layout) print the same bytes, for the full table and for dirac8's."""
    for rep in ("all", "dirac8"):
        argv = [sys.executable, "-m", "ptclab.cli", "table", "--rep", rep, "--seed", "5", "--json"]
        outputs = set()
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
            outputs.add(subprocess.run(argv, env=env, capture_output=True, check=True).stdout)
        assert len(outputs) == 1, rep


def test_witness_is_the_same_at_every_seed():
    """The witness depends on nothing but the generator set: processes that
    differ in --seed or in PYTHONHASHSEED print the same witness bytes."""

    def witness(seed, hash_seed):
        argv = [sys.executable, "-m", "ptclab.cli", "classify", "--rep", "dirac8", "--op", "C",
                "--seed", str(seed), "--json"]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
        return json.dumps(json.loads(out)["witness"])

    assert witness(1, 0) == witness(1, 1) == witness(2, 0)


def test_massless_command(capsys):
    code, payload = run_json(capsys, "massless")
    assert code == 0
    assert payload["pair_count"] == 28
    assert len(payload["labels"]) == 8
    assert payload["helicity"]["pass"] is True
    assert payload["helicity"]["max_residual"] == 0.0
    assert payload["helicity"]["eigenvalue_residual"] == 0.0


def _doubled(helicity, which):
    """2 S.p/E: it still commutes with every generator at m = 0, but its
    eigenvalues on the S^2 = 3/4 subspace are +-1, not +-1/2."""
    coeff = helicity(which).terms[ZERO_INDEX]
    return MomentumOperator.from_matrix(coeff.scale(2))


def _one_signed(helicity, which):
    """P/2 for the S^2 = 3/4 projector P: it commutes with every generator and
    squares to P/4 there, but its eigenvalues are +1/2 four times."""
    proj = spectral_projector(cached_spin(8).s_squared, 0.75, (0, 0.75))
    return MomentumOperator.from_matrix(Coefficient.constant(np.asarray(proj) / 2))


@pytest.mark.parametrize("doctor", [_doubled, _one_signed])
def test_massless_rejects_a_doctored_helicity_operator(capsys, monkeypatch, doctor):
    helicity = generators.helicity_operator
    monkeypatch.setattr(generators, "helicity_operator", lambda which="s": doctor(helicity, which))
    code, payload = run_json(capsys, "massless")
    assert code == 1
    assert payload["helicity"]["pass"] is False
    assert payload["helicity"]["max_residual"] == 0.0
    assert payload["helicity"]["eigenvalue_residual"] > 0.5


def _quarter_added(s_squared):
    """S^2 + 1/4 at its first diagonal entry: an eigenvalue outside {0, 3/4}."""
    return np.asarray(s_squared) + np.diag([0.25] + [0.0] * 7)


def _positive_energy_only(s_squared):
    """S^2 (1 + Gamma0) / 2: its spectrum is still {0, 3/4} and it still
    commutes with S.p/E, but its 3/4-space is 2-dimensional, so each
    helicity comes once, and only tr S^2 = 3 fails."""
    gamma0 = np.asarray(cached_basis(8).gamma0)
    return np.asarray(s_squared) @ (np.eye(8) + gamma0) / 2


def _energy_weighted(s_squared):
    """S^2 (1 + Gamma0 / 2): trace 3, and it commutes with S.p/E, but its
    spectrum is {0, 3/8, 9/8}, so only S^2 S^2 = 3/4 S^2 fails."""
    gamma0 = np.asarray(cached_basis(8).gamma0)
    return np.asarray(s_squared) @ (np.eye(8) + gamma0 / 2)


@pytest.mark.parametrize("doctor", [_quarter_added, _positive_energy_only, _energy_weighted])
def test_massless_rejects_a_doctored_casimir(capsys, monkeypatch, doctor):
    """A doctored S^2 fails the eigenvalue check with a residual, and the
    command exits 1 rather than raising."""
    spin = cached_spin(8)
    monkeypatch.setattr(spin, "s_squared", tuple(map(tuple, doctor(spin.s_squared))))
    code, payload = run_json(capsys, "massless")
    assert code == 1
    assert payload["helicity"]["pass"] is False
    assert payload["helicity"]["max_residual"] == 0.0
    assert payload["helicity"]["eigenvalue_residual"] > 0


_COMMUTE = "helicity operators commute with all generators"
_EIGENVALUES = "S.p/E has eigenvalues +-1/2, twice each, on S^2 = 3/4"


def test_massless_text_reports_each_check(capsys, monkeypatch):
    """The text report gives the commutator check and the eigenvalue check a
    line each: the doubled operator still commutes, only its eigenvalues fail."""
    code, out, _ = run(capsys, "massless")
    assert code == 0
    assert f"{_COMMUTE}: PASS (residual 0.000e+00)" in out
    assert f"{_EIGENVALUES}: PASS (residual 0.000e+00)" in out
    helicity = generators.helicity_operator
    monkeypatch.setattr(generators, "helicity_operator", lambda which="s": _doubled(helicity, which))
    code, out, _ = run(capsys, "massless")
    assert code == 1
    assert f"{_COMMUTE}: PASS (residual 0.000e+00)" in out
    line = next(line for line in out.splitlines() if _EIGENVALUES in line)
    assert ": FAIL (residual " in line and "0.000e+00" not in line


def test_exact_checks_call_no_eigen_solver(capsys, monkeypatch):
    """selftest, algebra and massless, the subspace projectors and the
    Casimir spectra pass with every numpy eigen-solver made to raise: their
    spectra and projectors are built exactly, not found numerically."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an eigen-solver was called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for argv in (("selftest",), ("algebra", "--rep", "canonical8"), ("massless",)):
        assert run(capsys, *argv)[0] == 0, argv
    assert subspace_decomposition().complete
    assert casimir_spectrum(cached_spin(8))["s_squared"] == {0.0: 4, 0.75: 4}


def test_ptc_command(capsys):
    code, payload = run_json(capsys, "ptc", "--labels", "D+(1/2,1/2)+D-(1/2,1/2)")
    assert code == 0 and payload["ptc_complete"] is True
    # like every exact command, ptc reads no setting
    assert payload["config"] == {}
    code, payload = run_json(capsys, "ptc", "--labels", "D+(1/2,0)")
    assert code == 0 and payload["ptc_complete"] is False
    code, payload = run_json(
        capsys, "ptc", "--labels", "D+(1,0)+D-(1,0)+D+(0,1)+D-(0,1)"
    )
    assert code == 0 and payload["ptc_complete"] is True


def _verdict_lines(payload) -> list:
    """The PASS/FAIL and verdict lines the text form of a command must show,
    derived from its JSON payload alone."""
    command = payload["command"]
    if command == "selftest":
        return [
            f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}"
            + ("" if c["residual"] is None else f"  residual={c['residual']:.3e}")
            for c in payload["checks"]
        ]
    if command == "algebra":
        verdict = "PASS" if payload["pass"] else "FAIL"
        return [f"  {bracket}  {r:.3e}" for bracket, r in payload["brackets"].items()] + [
            f"max residual {payload['max_residual']:.3e}  ->  {verdict}"
        ]
    if command == "classify":
        return [
            f"{payload['rep']} under {payload['op']}: {payload['verdict']}",
            f"  nullspace dimension {payload['nullspace_dim']}",
        ]
    if command == "table":
        lines = []
        for kind, table in payload["reps"].items():
            lines.append(f"{kind}:")
            for name, row in table["ops"].items():
                note = ""
                if row["paper_expectation"] is None:
                    note = "  (computed, unstated in source claims)"
                elif row["matches_paper"] is False:
                    note = f"  MISMATCH, expected {row['paper_expectation']}"
                lines.append(f"  {name:<5} {row['verdict']}{note}")
            if kind in ("rep1", "rep2", "rep3"):
                lines.append(f"  -> matches published claims: {table['matches_paper']}")
        return lines
    if command == "massless":
        helicity = payload["helicity"]
        return ["  " + " + ".join(payload["labels"])] + [
            f"  {claim}: {'PASS' if r == 0.0 else 'FAIL'} (residual {r:.3e})"
            for claim, r in (
                (_COMMUTE, helicity["max_residual"]),
                (_EIGENVALUES, helicity["eigenvalue_residual"]),
            )
        ]
    assert command == "ptc"
    return [" + ".join(payload["labels"]), f"fully P, T, C invariant: {payload['ptc_complete']}"]


def _doctored_connector(monkeypatch):
    wrong = generators._connector_numerator() - Coefficient.scalar(MASS, 4)
    monkeypatch.setattr(generators, "_connector_numerator", lambda: wrong)


def _indeterminate_set(monkeypatch):
    h = Coefficient.constant(np.diag([1j, 0, 0, 0]))
    toy = generators.GeneratorSet(RepId("rep1"), {"P0": MomentumOperator.from_matrix(h)})
    monkeypatch.setattr(generators, "build_generators", lambda rep: toy)


@pytest.mark.parametrize(
    "argv, doctor, expected",
    [
        pytest.param(("selftest",), None, 0, id="selftest"),
        pytest.param(("selftest",), _doctored_connector, 1, id="selftest-doctored"),
        pytest.param(("algebra", "--rep", "rep1"), None, 0, id="algebra"),
        pytest.param(("classify", "--rep", "rep1", "--op", "C"), None, 0, id="classify-invariant"),
        pytest.param(("classify", "--rep", "rep1", "--op", "P1"), None, 0, id="classify-noninvariant"),
        pytest.param(
            ("classify", "--rep", "rep1", "--op", "T2"), _indeterminate_set, 2,
            id="classify-indeterminate",
        ),
        pytest.param(("table", "--rep", "all"), None, 0, id="table"),
        pytest.param(("massless",), None, 0, id="massless"),
        pytest.param(("ptc", "--labels", "D+(1/2,0)+D-(0,1/2)"), None, 0, id="ptc"),
    ],
)
def test_text_output_is_a_view_of_the_json_payload(capsys, monkeypatch, argv, doctor, expected):
    """Both modes exit with the same code; the text holds every line derived
    from the JSON payload, and its PASS/FAIL and verdict lines are exactly
    the derived ones.  Only a failing selftest writes to stderr, and only in
    text mode."""
    if doctor is not None:
        doctor(monkeypatch)
    code, out, err = run(capsys, *argv)
    json_code, json_out, json_err = run(capsys, *argv, "--json")
    assert code == json_code == expected
    assert json_err == ""
    payload = json.loads(json_out)
    wanted = _verdict_lines(payload)
    lines = out.splitlines()
    assert set(wanted) <= set(lines), argv
    words = ("PASS", "FAIL", "invariant", "indeterminate")
    verdicts = sorted(line for line in lines if any(w in line for w in words))
    assert verdicts == sorted(line for line in wanted if any(w in line for w in words)), argv
    if argv[0] == "selftest" and not payload["pass"]:
        failed = next(c["name"] for c in payload["checks"] if not c["pass"])
        assert err == f"selftest failed at: {failed}\n"
    else:
        assert err == ""


def test_ptc_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "ptc", "--labels", "D+(1/3,0)")
    assert code == 64
    assert "position" in err


def test_unknown_command_usage_error(capsys):
    assert main(["bogus"]) == 64
    capsys.readouterr()


def test_missing_required_flag_usage_error(capsys):
    assert main(["classify", "--rep", "rep1"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--seed", "1.5"), "seed"),
        (("--tol", "x"), "tol"),
        (("--tol", "0"), "tol"),
        (("--tol", "nan"), "tol"),
        (("--tol", "-1e-9"), "tol"),
        (("--rank-tol", "0"), "rank_tol"),
        (("--rank-tol", "nan"), "rank_tol"),
        (("--rank-tol", "inf"), "rank_tol"),
        (("--rank-tol", "1"), "rank_tol"),
        (("--seed", "-1"), "seed"),
        (("--rank-tol", "1e-300"), "rank_tol"),
        (("--rank-tol", "1e-18"), "rank_tol"),
        (("--rank-tol", "2.2e-15"), "2.220446049250313e-15"),
    ],
)
def test_invalid_setting_is_usage_error(capsys, argv, message):
    """A bad seed is named; --tol and --rank-tol are no options any more, so
    any value of them is an unrecognized argument."""
    code, out, err = run(capsys, "classify", "--rep", "rep1", "--op", "C", *argv)
    assert code == 64
    assert out == ""
    if argv[0] != "--seed":
        message = f"unrecognized arguments: {' '.join(argv)}"
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [("selftest",), ("algebra", "--rep", "rep1"), ("classify", "--rep", "rep1", "--op", "C"),
     ("table", "--rep", "rep1"), ("massless",), ("ptc", "--labels", "D+(1/2,0)")],
    ids=lambda command: command[0],
)
def test_samples_option_is_removed(capsys, command):
    code, out, err = run(capsys, *command, "--samples", "1")
    assert code == 64
    assert out == ""
    assert "--samples" in err


_EXACT_COMMANDS = [
    ("selftest",), ("algebra", "--rep", "rep1"), ("massless",), ("ptc", "--labels", "D+(1/2,0)"),
    ("classify", "--rep", "rep1", "--op", "C"), ("table", "--rep", "rep1"),
]


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(command, flag, id=f"{command[0]}-{flag.lstrip('-')}")
        for command in _EXACT_COMMANDS
        for flag in ("--tol", "--rank-tol")
    ],
)
def test_exact_commands_take_no_tolerance(capsys, command, flag):
    """Every check and classification of these commands is exact, so a
    tolerance could only hide a failure: the flag is a usage error."""
    code, out, err = run(capsys, *command, flag, "10", "--json")
    assert code == 64
    assert out == ""
    assert f"unrecognized arguments: {flag} 10" in err


# ---------------------------------------------------------------------------
# start-up: each command loads only the layers it runs


def _modules_after(*runs):
    """In a fresh process, import ptclab.cli, run each (argv, exit code)
    through main, and return the loaded numpy, ptclab and dataclasses modules."""
    code = (
        "import contextlib, io, json, sys\n"
        "from ptclab.cli import main\n"
        f"for argv, expected in {list(runs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == expected, argv\n"
        "roots = ('numpy', 'ptclab', 'dataclasses')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["ptc", "--labels", "D+(1/2,0)+D-(1/2,0)+D+(0,1/2)+D-(0,1/2)", "--json"], 0),
        (["--help"], 0),
        (["table", "--rep", "bogus"], 64),
    ],
)
def test_label_queries_and_usage_errors_load_no_numeric_layer(argv, expected):
    loaded = _modules_after((argv, expected))
    assert loaded <= {"ptclab", "ptclab.cli", "ptclab.labels", "ptclab.vocabulary"}


@pytest.mark.parametrize(
    "argv", [["selftest"], ["algebra", "--rep", "rep1"], ["massless"]]
)
def test_commands_that_classify_nothing_skip_the_classifier(argv):
    loaded = _modules_after((argv, 0))
    assert "ptclab.generators" in loaded
    assert "ptclab.classify" not in loaded


def test_cli_import_generates_no_dataclasses():
    assert "dataclasses" not in _modules_after()


def test_exact_commands_run_with_numpy_blocked():
    """With numpy made unimportable (sys.modules["numpy"] = None), selftest,
    algebra for every rep, with and without its generator dump, massless,
    ptc, classify for every operator and table for every rep and for all
    still run through main and pass: no command needs numpy."""
    runs = [["selftest"], ["massless"], ["ptc", "--labels", "D+(1/2,0)+D-(1/2,0)"]]
    runs += [["table", "--rep", kind, "--json"] for kind in REP_KINDS + ("all",)]
    runs += [["classify", "--rep", "dirac8", "--op", op] for op in OP_ORDER]
    for kind in REP_KINDS:
        runs.append(["algebra", "--rep", kind])
        runs.append(["algebra", "--rep", kind, "--dump-generators", "--json"])
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ptclab.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, check=True)


# ---------------------------------------------------------------------------
# fuzzed command lines

def _values(valid, invalid):
    """Mostly valid values, sometimes an invalid one."""
    return st.one_of(valid, valid, valid, st.sampled_from(invalid))


# every command takes --seed; the tolerances are usage errors on every command
_COMMON = {
    "--seed": _values(st.integers(0, 2 ** 70).map(str), ["-1", "x", "1.5", ""]),
    "--tol": _values(st.sampled_from(["1e-9", "1e-300", "1e300"]), ["0", "-1", "nan", "x"]),
    "--rank-tol": _values(
        st.sampled_from(["1e-8", "1e-12", "1e-3", "0.5"]), ["1", "0", "nan", "y"]
    ),
}
_REP = st.sampled_from(REP_KINDS + ("all",))
# per command: its required flags, then its optional ones
_COMMANDS = {
    "selftest": ({}, {}),
    "massless": ({}, {}),
    # a bare --dump-generators, sometimes followed by a stray value
    "algebra": ({"--rep": _REP}, {"--dump-generators": _values(
        st.just([]), [["0"], ["-1"], ["z"]])}),
    "classify": ({"--rep": _REP, "--op": st.sampled_from(OP_ORDER + ("Q",))}, {}),
    "table": ({"--rep": st.sampled_from(REP_KINDS + ("all", "rep4"))}, {}),
    "ptc": ({"--labels": st.sampled_from(
        ["D+(1/2,0)+D-(0,1/2)", "D+(1/2,0)+D+(0,1/2)+D-(1/2,0)+D-(0,1/2)", "D(", "", "x"]
    )}, {}),
    "bogus": ({}, {}),
}


@st.composite
def _command_lines(draw):
    """A subcommand, usually with its required flags, some optional flags,
    perhaps --json and rarely a stray token."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = [command]
    for flag, values in required.items():
        if draw(st.integers(0, 9)):
            argv += [flag, draw(values)]
    flags = {**_COMMON, **optional}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        value = draw(flags[flag])
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    if draw(st.booleans()):
        argv.append("--json")
    if not draw(st.integers(0, 14)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--help", "-x", "7"])))
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_command_lines())
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    """Whatever the arguments, main returns 0, 1, 2 or 64 and raises nothing."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 64), (argv, code)
