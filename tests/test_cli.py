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
from ptclab.generators import GENERATOR_NAMES, build_generators
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


# (sha256 of stdout, exit code) of each pinned command line, split at spaces
_STDOUT_SHA256 = {
    "selftest": ("a1dbc6b7548dd09c334e6a859c65f4022be4208c27679af4b4ed9aa720573d4e", 0),
    "selftest --json": ("534f1014792913efeb68a9355b7138a22ef6206292622a2e84bed23761cd55f5", 0),
    "massless": ("d128a185bb2ec90629c37eed0e0dad672b541769a14e61e6370acd60eba5278f", 0),
    "massless --json": ("38d83ca07c256a2bda41e4d304eed438155201326c296ba03897015541a904f9", 0),
    "ptc --labels D+(1/2,0)+D-(1/2,0)+D+(0,1/2)+D-(0,1/2)": (
        "84c8077dbf7cdfbebb1572ebe346a5e4c30c168deb592ea78794d4bb57297322", 0),
    "ptc --labels D+(1/2,0)+D-(1/2,0)+D+(0,1/2)+D-(0,1/2) --json": (
        "ef30d34263ac57d630191c03231de219cc656bd5dc7b229ffc34dee5fa511630", 0),
    "classify --rep rep1 --op C": (
        "3fa65f360fb927f73fe5adadeb928d88e546745c29b7d2ad97eb9e2f83ecc645", 0),
    "classify --rep rep1 --op C --json": (
        "8187a9e2ac10da52ae77b482d687cabdfa403829d58e2ce14187c9434af7f399", 0),
    "classify --rep rep1 --op P1": (
        "c31e69810926db5237004bc4782c2eb612c42af2197fbcd038eed3e312e9e6e7", 0),
    "classify --rep rep1 --op P1 --json": (
        "41adf8421f5b8ca9c49c2722a2fd4f64448006014343cfe49ef69497eca90e13", 0),
    "classify --rep dirac8 --op T2": (
        "0e6bbf9f514b616fa1f36419e1ea1d532ebf37c23b33fbc3f83be4894c11069a", 0),
    "classify --rep dirac8 --op T2 --json": (
        "251f6ecc417a207e78a67e730c29920a8dd80bd0a26f353f53272ca51d3fff3c", 0),
    "algebra --rep dirac8 --json": (
        "8d8278689acd7d94ba2d8471e95f9ecc92a379232028932867de81724fdc5419", 0),
    "algebra --rep dirac8 --dump-generators --json": (
        "2a230eeddd27f52f360384027921aee5f5b19a674070e0cd75c8cac658a1669f", 0),
    "algebra --rep canonical8 --json": (
        "b40fc00e7ae54001ac7dd700940d306d2328e072b1f03ac25e65ee888524f715", 0),
    "algebra --rep canonical8 --dump-generators --json": (
        "9d81997eb2d9abcc50f3773acf95cf245ef3c9741fb7da5c0cd2b33c705e3d47", 0),
    "algebra --rep rep1 --json": (
        "b8c20e66a37de70f29126b9ceefb683d6d3566f6d4b75ecf381a969985900661", 0),
    "algebra --rep rep1 --dump-generators --json": (
        "bd6e3069041af33d6f6dcba7bb9be5489d0749972606f0dac2fc8076f41fbe78", 0),
    "algebra --rep rep2 --json": (
        "33ad27910d66bd9eb32ff2b12c132e4edd3062e72c9fc8d15b202769320bb95c", 0),
    "algebra --rep rep2 --dump-generators --json": (
        "8562062ea3f63f372e46722a646c3aa37045ed7105833621fb3736ad8cd8ad1b", 0),
    "algebra --rep rep3 --json": (
        "21d9e04df95d703094ce3125c5d0f2ac3ab5e60a2ef2a22be7d056c1bb8d30f5", 0),
    "algebra --rep rep3 --dump-generators --json": (
        "204529838169df5c538529e54d8a925c5cfa1d871ed45ed77dac9fc4f8072610", 0),
    "table --rep all": ("715238c2ebc26e81dc15059627821915fe23c83ba0d4e3ae34884c0ea93f7354", 0),
    "table --rep all --json": (
        "cfcaf4c4f70d890aa55edc6f57f957d4c45ca1409ed78da13b8c45c7caae96bd", 0),
    "table --rep dirac8 --json": (
        "9c0318992fe9fc98b9e0649ad26c0a890fb9aa01896475c709c5a64c5fa4c1b5", 0),
}


def _assert_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split(" "))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == _STDOUT_SHA256[command], (
        f"the stdout or exit code of `{command}` changed; an intended change must be "
        "declared in CHANGES.md together with the new digest"
    )


@pytest.mark.parametrize("rep", ["all", "dirac8"])
def test_table_json_is_pinned(capsys, rep):
    """The table JSON, every verdict, witness, residual and square of it, is
    byte for byte the pinned output."""
    _assert_pinned(capsys, f"table --rep {rep} --json")


@pytest.mark.parametrize(
    "command", [c for c in _STDOUT_SHA256 if not (c.startswith("table") and c.endswith("--json"))]
)
def test_command_stdout_is_pinned(capsys, command):
    """Every other pinned command line writes byte for byte its pinned
    stdout and exits with its pinned code."""
    _assert_pinned(capsys, command)


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
    built = build_generators(kind)
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
    toy = generators.GeneratorSet("toy", 4, {"P0": MomentumOperator.from_matrix(h)})
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
    toy = generators.GeneratorSet("toy", 4, {"P0": MomentumOperator.from_matrix(h)})
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
# a failed write to stdout


def _cli(*argv) -> list:
    return [sys.executable, "-m", "ptclab.cli", *argv]


def _assert_write_error(code, err, reason):
    assert code == 1
    assert "Traceback" not in err
    assert err == f"ptclab: error: cannot write output ({reason})\n"


def test_a_reader_that_stops_early_is_a_write_error():
    """`algebra --rep dirac8 --dump-generators --json | head -c 1`: the dump
    (about 177 KB) is more than a pipe holds, so the reader's exit breaks the
    pipe mid-write; the command writes one error line and exits 1."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        _cli("algebra", "--rep", "dirac8", "--dump-generators", "--json"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stdout.read(1) == "{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    _assert_write_error(proc.wait(), err, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest"],
        ["algebra", "--rep", "rep1"],
        ["classify", "--rep", "rep1", "--op", "C", "--json"],
        ["table", "--rep", "all"],
        ["massless", "--json"],
        ["ptc", "--labels", "D+(1/2,0)+D-(0,1/2)"],
    ],
    ids=" ".join,
)
def test_stdout_on_a_closed_pipe_is_a_write_error(argv):
    """Every command, its stdout a pipe whose read end is closed before it
    starts, writes one error line to stderr, no traceback, and exits 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            _cli(*argv), stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    finally:
        os.close(write_end)
    _assert_write_error(proc.returncode, proc.stderr, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv", [["table", "--rep", "all", "--json"], ["massless"]], ids=" ".join
)
def test_stdout_on_a_full_device_is_a_write_error(argv):
    """With stdout on /dev/full, where every write fails with ENOSPC, the
    command writes one error line to stderr, no traceback, and exits 1."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            _cli(*argv), stdout=full, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    _assert_write_error(proc.returncode, proc.stderr, "No space left on device")


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
