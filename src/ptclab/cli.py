"""Batch front door: self-tests, algebra checks, classification tables and
label-calculus queries, with deterministic text or JSON output.

JSON schema (version 1): complex numbers are [re, im] pairs, matrices are
row-major nested lists of such pairs.  Identical configuration produces
byte-identical JSON.  Exit codes: 0 pass, 1 mismatch or failure,
2 indeterminate classification, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .classify import OP_ORDER, classify, full_table, get_op
from .clifford import build_basis, cached_basis
from .generators import (
    RepId,
    build_generators,
    canonical_transform,
    charge_check,
    check_algebra,
    dirac_hamiltonian8,
    fs_transform,
)
from .labels import (
    LabelParseError,
    helicity_check,
    massless_decompose,
    massless_pair_count,
    parse_labels,
    ptc_complete,
)
from .operators import eval_operator
from .sampling import (
    DEFAULT_COUNT,
    DEFAULT_RANK_TOL,
    DEFAULT_SEED,
    DEFAULT_TOL,
    check_settings,
    env_arrays,
    sample_points,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64

REP_CHOICES = ("dirac8", "canonical8", "rep1", "rep2", "rep3")
SEED_ENV_VAR = "PTCLAB_SEED"


@dataclass
class RunConfig:
    seed: int = DEFAULT_SEED
    sample_count: int = DEFAULT_COUNT
    tol: float = DEFAULT_TOL
    rank_tol: float = DEFAULT_RANK_TOL
    json_output: bool = False

    def points(self, **kwargs):
        return sample_points(count=self.sample_count, seed=self.seed, **kwargs)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.sample_count,
            "tol": self.tol,
            "rank_tol": self.rank_tol,
        }


def cnum(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def cmat(matrix) -> list:
    return [[cnum(v) for v in row] for row in np.asarray(matrix)]


def _emit(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ptclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=DEFAULT_COUNT)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
        p.add_argument("--json", action="store_true")

    common(sub.add_parser("selftest", help="basis invariants, unitarity, diagonalization, charge"))

    p = sub.add_parser("algebra", help="bracket closure against the fitted structure constants")
    p.add_argument("--rep", required=True, choices=REP_CHOICES)
    p.add_argument(
        "--dump-generators",
        type=int,
        default=None,
        metavar="SAMPLE",
        help="also emit every generator's coefficient matrices at the given sample index",
    )
    common(p)

    p = sub.add_parser("classify", help="one (representation, operator) verdict")
    p.add_argument("--rep", required=True, choices=REP_CHOICES)
    p.add_argument("--op", required=True, choices=OP_ORDER)
    common(p)

    p = sub.add_parser("table", help="full discrete-symmetry table")
    p.add_argument("--rep", required=True, choices=REP_CHOICES + ("all",))
    common(p)

    p = sub.add_parser("massless", help="m = 0 helicity decomposition and checks")
    common(p)

    p = sub.add_parser("ptc", help="completeness of a representation sum")
    p.add_argument("--labels", required=True, help='e.g. "D+(1/2,0)+D-(0,1/2)"')
    common(p)

    return parser


def _config(args) -> RunConfig:
    """Settings from the flags and PTCLAB_SEED; ValueError names a bad one."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        try:
            seed = DEFAULT_SEED if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    check_settings(seed=seed, samples=args.samples, tol=args.tol, rank_tol=args.rank_tol)
    return RunConfig(seed, args.samples, args.tol, args.rank_tol, args.json)


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks(config: RunConfig) -> list:
    checks = []

    def record(name, passed, residual=None):
        checks.append({"name": name, "pass": bool(passed), "residual": residual})

    for dim in (4, 8):
        try:
            build_basis(dim)
            record(f"clifford_invariants_dim{dim}", True, 0.0)
        except AssertionError:
            record(f"clifford_invariants_dim{dim}", False)

    points = sample_points(count=100, seed=config.seed)
    env = env_arrays(points)
    u = eval_operator(canonical_transform(), env, derivatives=False).coeffs[(0, 0, 0)]
    u_dag = u.conj().transpose(0, 2, 1)
    resid = float(np.max(np.abs(u @ u_dag - np.eye(8))))
    record("canonical_transform_unitary", resid < config.tol, resid)

    h8 = eval_operator(dirac_hamiltonian8(), env, derivatives=False).coeffs[(0, 0, 0)]
    target = cached_basis(8).gamma0[None, :, :] * env["E"][:, None, None]
    resid = float(np.max(np.abs(u @ h8 @ u_dag - target)))
    record("hamiltonian_diagonalization", resid < config.tol, resid)

    u1 = eval_operator(fs_transform(), env, derivatives=False).coeffs[(0, 0, 0)]
    resid = float(np.max(np.abs(u1.conj().transpose(0, 2, 1) @ u1 - np.eye(4))))
    record("connector_unitary", resid < config.tol, resid)

    charge = charge_check(points=config.points(), tol=max(config.tol, 1e-10))
    record("charge_commutes", charge.ok, charge.max_residual)
    return checks


def cmd_selftest(config: RunConfig) -> int:
    checks = _selftest_checks(config)
    ok = all(c["pass"] for c in checks)
    if config.json_output:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "selftest",
                "config": config.as_dict(),
                "checks": checks,
                "pass": ok,
            }
        )
    else:
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            extra = "" if c["residual"] is None else f"  residual={c['residual']:.3e}"
            print(f"{status}  {c['name']}{extra}")
    if ok:
        return EXIT_OK
    if not config.json_output:
        first = next(c["name"] for c in checks if not c["pass"])
        print(f"selftest failed at: {first}", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# algebra / classify / table


def _generators_json(g, point) -> dict:
    """Every generator's coefficient matrices, per derivative multi-index,
    evaluated at one named sample point."""
    env = env_arrays([point])
    out = {
        "sample": {name: getattr(point, name) for name in ("p1", "p2", "p3", "m", "t")},
        "generators": {},
    }
    for name, op in g.items():
        ev = eval_operator(op, env, derivatives=False)
        out["generators"][name] = {
            ",".join(map(str, alpha)): cmat(mat[0]) for alpha, mat in sorted(ev.coeffs.items())
        }
    return out


def cmd_algebra(config: RunConfig, rep: str, dump_sample=None) -> int:
    g = build_generators(RepId(rep))
    points = config.points()
    if dump_sample is not None and not 0 <= dump_sample < len(points):
        print(
            f"ptclab: error: sample index {dump_sample} out of range "
            f"(0..{len(points) - 1})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = check_algebra(g, points, tol=config.tol)
    if config.json_output:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "algebra",
            "config": config.as_dict(),
            "rep": rep,
            "brackets": {
                f"[{a},{b}]": r for (a, b), r in sorted(report.residuals.items())
            },
            "max_residual": report.max_residual,
            "pass": report.ok,
        }
        if dump_sample is not None:
            payload.update(_generators_json(g, points[dump_sample]))
        _emit(payload)
    else:
        print(f"bracket closure for {rep} (tol {config.tol:g})")
        for (a, b), r in sorted(report.residuals.items()):
            print(f"  [{a},{b}]  {r:.3e}")
        print(f"max residual {report.max_residual:.3e}  ->  {'PASS' if report.ok else 'FAIL'}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _result_json(result) -> dict:
    return {
        "verdict": "indeterminate"
        if result.indeterminate
        else ("invariant" if result.invariant else "noninvariant"),
        "nullspace_dim": result.nullspace_dim,
        "residual": result.residual,
        "witness": None if result.witness is None else cmat(result.witness),
        "involution_scale": None
        if result.involution_scale is None
        else cnum(result.involution_scale),
        "smallest_singular_value": result.smallest_singular_value,
    }


def cmd_classify(config: RunConfig, rep: str, op: str) -> int:
    g = build_generators(RepId(rep))
    result = classify(
        g, get_op(op), config.points(), rank_tol=config.rank_tol,
        tol=config.tol, seed=config.seed,
    )
    if config.json_output:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "classify",
            "config": config.as_dict(),
            "rep": rep,
            "op": op,
        }
        payload.update(_result_json(result))
        _emit(payload)
    else:
        verdict = (
            "indeterminate"
            if result.indeterminate
            else ("invariant" if result.invariant else "noninvariant")
        )
        print(f"{rep} under {op}: {verdict}")
        print(f"  nullspace dimension {result.nullspace_dim}")
        if result.invariant:
            print(f"  witness residual {result.residual:.3e}")
            if result.involution_scale is not None:
                print(f"  witness squares to {result.involution_scale:.6g} * identity")
        else:
            print(f"  smallest singular value {result.smallest_singular_value:.3e}")
    return EXIT_INDETERMINATE if result.indeterminate else EXIT_OK


def cmd_table(config: RunConfig, rep: str) -> int:
    reps = ["rep1", "rep2", "rep3", "canonical8"] if rep == "all" else [rep]
    tables = {
        kind: full_table(
            RepId(kind), config.points(), rank_tol=config.rank_tol,
            tol=config.tol, seed=config.seed,
        )
        for kind in reps
    }
    any_indeterminate = any(t.any_indeterminate for t in tables.values())
    all_match = all(t.matches_paper for t in tables.values())

    if config.json_output:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "table",
            "config": config.as_dict(),
            "reps": {},
            "matches_paper": all_match,
        }
        for kind, table in tables.items():
            rows = {}
            for name, row in table.rows.items():
                entry = _result_json(row.result)
                entry["paper_expectation"] = row.expectation
                entry["matches_paper"] = row.matches
                rows[name] = entry
            payload["reps"][kind] = {"ops": rows, "matches_paper": table.matches_paper}
        _emit(payload)
    else:
        for kind, table in tables.items():
            print(f"{kind}:")
            for name, row in table.rows.items():
                note = ""
                if row.expectation is None:
                    note = "  (computed, unstated in source claims)"
                elif row.matches is False:
                    note = f"  MISMATCH, expected {row.expectation}"
                print(f"  {name:<5} {row.verdict}{note}")
            if kind in ("rep1", "rep2", "rep3"):
                print(f"  -> matches published claims: {table.matches_paper}")
    if any_indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK if all_match else EXIT_FAIL


# ---------------------------------------------------------------------------
# massless / ptc


def cmd_massless(config: RunConfig) -> int:
    labels = massless_decompose()
    pair_count = massless_pair_count()
    g = build_generators(RepId("canonical8"))
    report = helicity_check(
        g, sample_points(count=config.sample_count, seed=config.seed, masses=(0.0,)),
        tol=config.tol,
    )
    if config.json_output:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "massless",
                "config": config.as_dict(),
                "labels": [str(l) for l in labels],
                "pair_count": pair_count,
                "helicity": {
                    "max_residual": report.max_residual,
                    "eigenvalue_residual": report.eigenvalue_residual,
                    "pass": report.ok,
                },
            }
        )
    else:
        print("massless decomposition:")
        print("  " + " + ".join(str(l) for l in labels))
        print(f"  {len(labels)} one-dimensional pieces, {pair_count} unordered pairs")
        print(
            f"  helicity operators commute with all generators: "
            f"{'PASS' if report.ok else 'FAIL'} "
            f"(residual {report.max_residual:.3e})"
        )
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_ptc(config: RunConfig, expression: str) -> int:
    labels = parse_labels(expression)
    verdict = ptc_complete(labels)
    if config.json_output:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "ptc",
                "labels": [str(l) for l in labels],
                "ptc_complete": verdict,
            }
        )
    else:
        print(" + ".join(str(l) for l in labels))
        print(f"fully P, T, C invariant: {verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _config(args)
    except ValueError as exc:
        print(f"ptclab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "selftest":
        return cmd_selftest(config)
    if args.command == "algebra":
        return cmd_algebra(config, args.rep, args.dump_generators)
    if args.command == "classify":
        return cmd_classify(config, args.rep, args.op)
    if args.command == "table":
        return cmd_table(config, args.rep)
    if args.command == "massless":
        return cmd_massless(config)
    if args.command == "ptc":
        try:
            return cmd_ptc(config, args.labels)
        except LabelParseError as exc:
            print(f"ptclab: label error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
