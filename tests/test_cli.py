import json

import pytest

from ptclab.cli import main


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


def test_selftest_unreachable_tolerance(capsys):
    code, _, err = run(capsys, "selftest", "--tol", "1e-30")
    assert code == 1
    assert "failed" in err


def test_selftest_seed_change_same_verdicts(capsys):
    code_a, payload_a = run_json(capsys, "selftest", "--seed", "1")
    code_b, payload_b = run_json(capsys, "selftest", "--seed", "2")
    assert code_a == code_b == 0
    verdicts = lambda p: [(c["name"], c["pass"]) for c in p["checks"]]
    assert verdicts(payload_a) == verdicts(payload_b)


def test_algebra_command(capsys):
    code, payload = run_json(capsys, "algebra", "--rep", "rep2")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["brackets"]) == 45
    assert payload["max_residual"] < 1e-9


def test_algebra_generator_export(capsys):
    code, payload = run_json(capsys, "algebra", "--rep", "rep1", "--dump-generators", "0")
    assert code == 0
    gens = payload["generators"]
    assert set(gens) == {"P0", "P1", "P2", "P3", "J12", "J13", "J23", "J01", "J02", "J03"}
    # P1 is p1 times the identity: one order-0 term whose (0,0) entry is [p1, 0]
    p1_terms = gens["P1"]
    assert set(p1_terms) == {"0,0,0"}
    assert p1_terms["0,0,0"][0][0] == [payload["sample"]["p1"], 0.0]
    # boosts carry a first-order derivative term
    assert any(key != "0,0,0" for key in gens["J01"])
    code, _, err = run(capsys, "algebra", "--rep", "rep1", "--dump-generators", "99", "--json")
    assert code == 64 and "out of range" in err


def test_classify_command(capsys):
    code, payload = run_json(capsys, "classify", "--rep", "rep3", "--op", "P1")
    assert code == 0
    assert payload["verdict"] == "invariant"
    assert payload["nullspace_dim"] == 2
    # complex numbers serialize as [re, im]; the witness is a 4x4 matrix
    assert len(payload["witness"]) == 4
    assert len(payload["witness"][0][0]) == 2


def test_classify_indeterminate_exit(capsys):
    code, _, _ = run(capsys, "classify", "--rep", "rep1", "--op", "C", "--rank-tol", "1e-1")
    assert code == 2


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
    assert payload["schema"] == 1


def test_massless_command(capsys):
    code, payload = run_json(capsys, "massless")
    assert code == 0
    assert payload["pair_count"] == 28
    assert len(payload["labels"]) == 8
    assert payload["helicity"]["pass"] is True


def test_ptc_command(capsys):
    code, payload = run_json(capsys, "ptc", "--labels", "D+(1/2,1/2)+D-(1/2,1/2)")
    assert code == 0 and payload["ptc_complete"] is True
    code, payload = run_json(capsys, "ptc", "--labels", "D+(1/2,0)")
    assert code == 0 and payload["ptc_complete"] is False
    code, payload = run_json(
        capsys, "ptc", "--labels", "D+(1,0)+D-(1,0)+D+(0,1)+D-(0,1)"
    )
    assert code == 0 and payload["ptc_complete"] is True


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


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PTCLAB_SEED", "12345")
    code, payload = run_json(capsys, "classify", "--rep", "rep3", "--op", "M")
    assert code == 0
    assert payload["config"]["seed"] == 12345
    assert payload["verdict"] == "invariant"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--samples", "0"), "samples"),
        (("--samples", "-2"), "samples"),
        (("--tol", "0"), "tol"),
        (("--tol", "nan"), "tol"),
        (("--tol", "-1e-9"), "tol"),
        (("--rank-tol", "0"), "rank_tol"),
        (("--rank-tol", "nan"), "rank_tol"),
        (("--rank-tol", "inf"), "rank_tol"),
        (("--rank-tol", "1"), "rank_tol"),
        (("--seed", "-1"), "seed"),
    ],
)
def test_invalid_setting_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "classify", "--rep", "rep1", "--op", "C", *argv)
    assert code == 64
    assert out == ""
    assert message in err and "Traceback" not in err


def test_non_integer_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PTCLAB_SEED", "abc")
    code, out, err = run(capsys, "classify", "--rep", "rep1", "--op", "C")
    assert code == 64
    assert out == ""
    assert "PTCLAB_SEED" in err
