"""The `ptclab` command line: argument parsing, usage errors and output.

At import this module loads only argparse, json and `ptclab.vocabulary`,
which holds the names the parser checks.  Each command's handler imports the
layers it runs, so `ptc`, `--help` and every usage error load no numeric
layer, and every other command runs on the plain-Python exact core; no
command loads numpy.  No command reads a sample point: every check and every
classification is decided on the exact Laurent coefficients, and
`algebra --dump-generators` writes those coefficients' rows.  The
user-facing summary, flags, JSON schema and exit codes are in DESCRIPTION,
which `--help` prints.
"""

from __future__ import annotations

import argparse
import json
import sys

from .vocabulary import DEFAULT_SEED, OP_ORDER, REP_KINDS, check_seed

DESCRIPTION = """\
Batch front door: self-tests, algebra checks, classification tables and
label-calculus queries, with deterministic text or JSON output.  Every check
and every classification is exact: no command takes a tolerance, and
--seed is accepted and read by no command.

JSON schema (version 2): complex numbers are [re, im] pairs, matrices are
row-major nested lists of such pairs.  "config" is {}: no command reads a
setting.  An invariant classification cell holds the witness W, a
Gaussian-integer matrix with W W^H = c 1, its "residual" on the monomial
equations (exactly 0.0), and its "operator_square" lambda: W W = lambda c 1
for a linear operator and W conj(W) = lambda c 1 for an antilinear one
(P2, T2, C, P1T2).  A noninvariant cell has nullspace_dim 0.  Identical
configuration produces byte-identical JSON.  Exit codes: 0 pass,
1 mismatch or failure, 2 indeterminate classification (a nullspace with no
unitary witness among the combinations searched), 64 usage error.
"""

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64


def cnum(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def cmat(matrix) -> list:
    return [[cnum(v) for v in row] for row in matrix]


def _emit(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ptclab", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument(
            "--seed", type=int, default=DEFAULT_SEED,
            help=f"a non-negative integer that no command reads (default {DEFAULT_SEED})",
        )
        p.add_argument("--json", action="store_true")

    common(sub.add_parser("selftest", help="basis invariants, unitarity, diagonalization, charge"))

    p = sub.add_parser("algebra", help="exact bracket closure against the structure constants")
    p.add_argument("--rep", required=True, choices=REP_KINDS)
    p.add_argument(
        "--dump-generators",
        action="store_true",
        help="also write every generator's exact coefficients, per derivative "
        "multi-index, as rows of an exponent vector and a constant matrix; needs --json",
    )
    common(p)

    p = sub.add_parser("classify", help="one (representation, operator) verdict")
    p.add_argument("--rep", required=True, choices=REP_KINDS)
    p.add_argument("--op", required=True, choices=OP_ORDER)
    common(p)

    p = sub.add_parser("table", help="discrete-symmetry table, nine operators per representation")
    p.add_argument(
        "--rep", required=True, choices=REP_KINDS + ("all",),
        help="all: rep1, rep2, rep3 and canonical8 (not dirac8)",
    )
    common(p)

    p = sub.add_parser("massless", help="m = 0 helicity decomposition and checks")
    common(p)

    p = sub.add_parser("ptc", help="completeness of a representation sum")
    p.add_argument("--labels", required=True, help='e.g. "D+(1/2,0)+D-(0,1/2)"')
    common(p)

    return parser


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks() -> list:
    from .clifford import build_basis
    from .generators import charge_check, transform_residuals

    checks = []

    def record(name, passed, residual=None):
        checks.append({"name": name, "pass": bool(passed), "residual": residual})

    for dim in (4, 8):
        try:
            build_basis(dim)
            record(f"clifford_invariants_dim{dim}", True, 0.0)
        except AssertionError:
            record(f"clifford_invariants_dim{dim}", False)

    for name, resid in transform_residuals().items():
        record(name, resid == 0.0, resid)

    charge = charge_check()
    record("charge_commutes", charge.ok, charge.max_residual)
    return checks


def cmd_selftest(json_output: bool) -> int:
    checks = _selftest_checks()
    ok = all(c["pass"] for c in checks)
    if json_output:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "selftest",
                "config": {},
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
    if not json_output:
        first = next(c["name"] for c in checks if not c["pass"])
        print(f"selftest failed at: {first}", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# algebra / classify / table


def _generators_json(g) -> dict:
    """Every generator's coefficients, per derivative multi-index, as exact
    rows {exponents, matrix} sorted by exponent vector: the coefficient is
    the sum of matrix x^exponents over its rows, the exponents ordered as
    `variables`.  Every matrix entry is dyadic, so the floats are exact."""
    from .expr import LAURENT_VARS

    def rows(c):
        return [
            {"exponents": exps, "matrix": cmat(mat)}
            for exps, mat in sorted(zip(c.exps, c.mats))
        ]

    return {
        "variables": list(LAURENT_VARS),
        "generators": {
            name: {",".join(map(str, alpha)): rows(c) for alpha, c in sorted(op.terms.items())}
            for name, op in g.items()
        },
    }


def cmd_algebra(json_output: bool, rep: str, dump: bool = False) -> int:
    from .generators import build_generators, check_algebra

    g = build_generators(rep)
    report = check_algebra(g)
    if json_output:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "algebra",
            "config": {},
            "rep": rep,
            "brackets": {
                f"[{a},{b}]": r for (a, b), r in sorted(report.residuals.items())
            },
            "max_residual": report.max_residual,
            "adjoint_residuals": dict(sorted(report.adjoint_residuals.items())),
            "pass": report.ok,
        }
        if dump:
            payload.update(_generators_json(g))
        _emit(payload)
    else:
        print(f"exact bracket closure for {rep}")
        for (a, b), r in sorted(report.residuals.items()):
            print(f"  [{a},{b}]  {r:.3e}")
        print(f"max self-adjointness residual {report.max_adjoint_residual:.3e}")
        print(f"max residual {report.max_residual:.3e}  ->  {'PASS' if report.ok else 'FAIL'}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _result_json(result) -> dict:
    return {
        "verdict": result.verdict,
        "nullspace_dim": result.nullspace_dim,
        "residual": result.residual,
        "witness": None if result.witness is None else cmat(result.witness),
        "operator_square": None
        if result.operator_square is None
        else cnum(result.operator_square),
    }


def cmd_classify(json_output: bool, rep: str, op: str) -> int:
    from .classify import WITNESS_CANDIDATES, classify, get_op
    from .generators import build_generators

    result = classify(build_generators(rep), get_op(op))
    if json_output:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "classify",
            "config": {},
            "rep": rep,
            "op": op,
        }
        payload.update(_result_json(result))
        _emit(payload)
    else:
        print(f"{rep} under {op}: {result.verdict}")
        print(f"  nullspace dimension {result.nullspace_dim}")
        if result.invariant:
            print(f"  witness residual {result.residual:.3e}")
            print(f"  operator square {result.operator_square:.6g}")
        elif result.indeterminate:
            print(f"  no unitary witness among {WITNESS_CANDIDATES} combinations of the basis")
    return EXIT_INDETERMINATE if result.indeterminate else EXIT_OK


def cmd_table(json_output: bool, rep: str) -> int:
    from .classify import full_table

    reps = ["rep1", "rep2", "rep3", "canonical8"] if rep == "all" else [rep]
    tables = {kind: full_table(kind) for kind in reps}
    any_indeterminate = any(t.any_indeterminate for t in tables.values())
    all_match = all(t.matches_paper for t in tables.values())

    if json_output:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "table",
            "config": {},
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


def cmd_massless(json_output: bool) -> int:
    from .generators import helicity_check
    from .labels import massless_decompose, massless_pair_count

    labels = massless_decompose()
    pair_count = massless_pair_count()
    report = helicity_check()
    if json_output:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "massless",
                "config": {},
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
        for claim, residual in (
            ("helicity operators commute with all generators", report.max_residual),
            ("S.p/E has eigenvalues +-1/2, twice each, on S^2 = 3/4", report.eigenvalue_residual),
        ):
            print(f"  {claim}: {'PASS' if residual == 0.0 else 'FAIL'} (residual {residual:.3e})")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_ptc(json_output: bool, expression: str) -> int:
    from .labels import LabelParseError, parse_labels, ptc_complete

    try:
        labels = parse_labels(expression)
    except LabelParseError as exc:
        print(f"ptclab: label error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = ptc_complete(labels)
    if json_output:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "ptc",
                "config": {},
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
        if getattr(args, "dump_generators", False) and not args.json:
            parser.error("--dump-generators writes JSON only; add --json")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        check_seed(args.seed)
    except ValueError as exc:
        print(f"ptclab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "selftest":
        return cmd_selftest(args.json)
    if args.command == "algebra":
        return cmd_algebra(args.json, args.rep, args.dump_generators)
    if args.command == "classify":
        return cmd_classify(args.json, args.rep, args.op)
    if args.command == "table":
        return cmd_table(args.json, args.rep)
    if args.command == "massless":
        return cmd_massless(args.json)
    if args.command == "ptc":
        return cmd_ptc(args.json, args.labels)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
