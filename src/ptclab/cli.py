"""The `ptclab` command line: argument parsing, usage errors and output.

At import this module loads only argparse, json and `ptclab.vocabulary`,
which holds the names the parser checks.  Each command's handler imports the
layers it runs, so `ptc`, `--help` and every usage error load no numeric
layer, and every other command runs on the plain-Python exact core; no
command loads numpy.  No command reads a sample point: every check and every
classification is decided on the exact Laurent coefficients, and
`algebra --dump-generators` writes those coefficients' rows.  The checks
and the table return plain residuals and results; the handler that prints
one applies its rule: a check passes when every residual is exactly 0.0,
and `cmd_table` owns the claims rule, comparing each verdict with the
published one of the set's name.  Each `cmd_*` returns one payload, (JSON
body, text lines, exit code); `main` dispatches through `_COMMANDS`, adds
schema, command and config to the body and prints the one form asked for,
so both modes share the exit code and the text is a view of the same
result; a write to stdout that fails (a closed pipe, a full device), that of
`--help` included, ends in one error line on stderr and exit 1, and a
write to stderr that fails changes no exit code.  The user-facing
summary, flags, JSON schema and exit codes are in DESCRIPTION, which
`--help` prints.
"""

from __future__ import annotations

import argparse
import json
import os
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


class _Stderr(str):
    """A text-mode line that goes to stderr, not stdout."""


class _UsageError(Exception):
    """Invalid input that the parser cannot see, reported with exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            return _print_stderr(message)
        # argparse drops a failed write; that of --help, flushed here, raises to main
        file.write(message)
        file.flush()


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
# commands


def cmd_selftest():
    from .clifford import cached_basis
    from .generators import TRANSFORM_CHECKS, charge_check, transform_residuals

    def clifford(dim):
        cached_basis(dim)  # raises AssertionError unless every invariant holds exactly
        return {f"clifford_invariants_dim{dim}": 0.0}

    residuals = {}  # per check, None when a failed basis check stopped it; a check passes at 0.0
    for names, check in (
        (("clifford_invariants_dim4",), lambda: clifford(4)),
        (("clifford_invariants_dim8",), lambda: clifford(8)),
        (TRANSFORM_CHECKS, transform_residuals),
        (("charge_commutes",), lambda: {"charge_commutes": charge_check()}),
    ):
        try:
            residuals.update(check())
        except AssertionError:
            residuals.update(dict.fromkeys(names))
    checks = [{"name": name, "pass": r == 0.0, "residual": r} for name, r in residuals.items()]
    lines = [
        f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}"
        + ("" if c["residual"] is None else f"  residual={c['residual']:.3e}")
        for c in checks
    ]
    failed = [c["name"] for c in checks if not c["pass"]]
    if failed:
        lines.append(_Stderr(f"selftest failed at: {failed[0]}"))
    return {"checks": checks, "pass": not failed}, lines, EXIT_FAIL if failed else EXIT_OK


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


def cmd_algebra(rep: str, dump: bool):
    from .generators import build_generators, check_algebra

    g = build_generators(rep)
    closure, adjoint = check_algebra(g)
    ok = all(r == 0.0 for r in (*closure.values(), *adjoint.values()))
    body = {
        "rep": rep,
        "brackets": {f"[{a},{b}]": r for (a, b), r in sorted(closure.items())},
        "max_residual": max(closure.values()),
        "adjoint_residuals": dict(sorted(adjoint.items())),
        "pass": ok,
    }
    lines = [f"exact bracket closure for {rep}"]
    lines += [f"  {bracket}  {r:.3e}" for bracket, r in body["brackets"].items()]
    lines.append(f"max self-adjointness residual {max(adjoint.values()):.3e}")
    lines.append(f"max residual {body['max_residual']:.3e}  ->  {'PASS' if ok else 'FAIL'}")
    if dump:
        body.update(_generators_json(g))
    return body, lines, EXIT_OK if ok else EXIT_FAIL


def _result_json(result) -> dict:
    return {
        "verdict": result.verdict,
        "nullspace_dim": result.nullspace_dim,
        "residual": result.residual,
        "witness": None if result.witness is None else cmat(result.witness),
        "operator_square": None if result.operator_square is None else cnum(result.operator_square),
    }


def cmd_classify(rep: str, op: str):
    from .classify import WITNESS_CANDIDATES, classify, get_op
    from .generators import build_generators

    result = classify(build_generators(rep), get_op(op))
    verdict = result.verdict
    lines = [f"{rep} under {op}: {verdict}", f"  nullspace dimension {result.nullspace_dim}"]
    if verdict == "invariant":
        lines.append(f"  witness residual {result.residual:.3e}")
        lines.append(f"  operator square {result.operator_square:.6g}")
    elif verdict == "indeterminate":
        lines.append(f"  no unitary witness among {WITNESS_CANDIDATES} combinations of the basis")
    body = {"rep": rep, "op": op, **_result_json(result)}
    return body, lines, EXIT_INDETERMINATE if verdict == "indeterminate" else EXIT_OK


def cmd_table(rep: str):
    """Each verdict against the published one of its cell, looked up by the
    set's name: an indeterminate verdict, or a cell with no published
    verdict, has matches_paper null; a set matches when no cell is false."""
    from .classify import full_table, paper_expectation
    from .generators import build_generators

    reps = ["rep1", "rep2", "rep3", "canonical8"] if rep == "all" else [rep]
    body = {"reps": {}, "matches_paper": True}
    lines, indeterminate = [], False
    for kind in reps:
        g = build_generators(kind)
        cells = {}
        lines.append(f"{kind}:")
        for name, result in full_table(g).items():
            verdict, expected = result.verdict, paper_expectation(g.name, name)
            matches = None
            if verdict == "indeterminate":
                indeterminate = True
            elif expected is not None:
                matches = verdict == expected
            cells[name] = {
                **_result_json(result), "paper_expectation": expected, "matches_paper": matches,
            }
            note = ""
            if expected is None:
                note = "  (computed, unstated in source claims)"
            elif matches is False:
                note = f"  MISMATCH, expected {expected}"
            lines.append(f"  {name:<5} {verdict}{note}")
        matches_paper = all(cell["matches_paper"] is not False for cell in cells.values())
        body["reps"][kind] = {"ops": cells, "matches_paper": matches_paper}
        if kind in ("rep1", "rep2", "rep3"):
            lines.append(f"  -> matches published claims: {matches_paper}")
        body["matches_paper"] &= matches_paper
    if indeterminate:
        return body, lines, EXIT_INDETERMINATE
    return body, lines, EXIT_OK if body["matches_paper"] else EXIT_FAIL


def cmd_massless():
    from .generators import helicity_check
    from .labels import massless_decompose, massless_pair_count

    labels = massless_decompose()
    commute, eigenvalue = helicity_check()
    ok = commute == eigenvalue == 0.0
    body = {
        "labels": labels,
        "pair_count": massless_pair_count(),
        "helicity": {"max_residual": commute, "eigenvalue_residual": eigenvalue, "pass": ok},
    }
    lines = [
        "massless decomposition:",
        "  " + " + ".join(labels),
        f"  {len(labels)} one-dimensional pieces, {body['pair_count']} unordered pairs",
    ]
    for claim, residual in (
        ("helicity operators commute with all generators", commute),
        ("S.p/E has eigenvalues +-1/2, twice each, on S^2 = 3/4", eigenvalue),
    ):
        lines.append(f"  {claim}: {'PASS' if residual == 0.0 else 'FAIL'} (residual {residual:.3e})")
    return body, lines, EXIT_OK if ok else EXIT_FAIL


def cmd_ptc(expression: str):
    from .labels import LabelParseError, parse_labels, ptc_complete

    try:
        labels = parse_labels(expression)
    except LabelParseError as exc:
        raise _UsageError(f"label error: {exc}") from None
    body = {"labels": [str(l) for l in labels], "ptc_complete": ptc_complete(labels)}
    lines = [" + ".join(body["labels"]), f"fully P, T, C invariant: {body['ptc_complete']}"]
    return body, lines, EXIT_OK


_COMMANDS = {
    "selftest": lambda args: cmd_selftest(),
    "algebra": lambda args: cmd_algebra(args.rep, args.dump_generators),
    "classify": lambda args: cmd_classify(args.rep, args.op),
    "table": lambda args: cmd_table(args.rep),
    "massless": lambda args: cmd_massless(),
    "ptc": lambda args: cmd_ptc(args.labels),
}


# ---------------------------------------------------------------------------


def _print_stderr(text: str) -> None:
    """text written and flushed to stderr; if that fails, what stderr still
    buffers goes to os.devnull, so neither the failed write nor the flush at
    interpreter exit changes the exit code."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _write_error(exc: OSError) -> int:
    """A closed pipe or a full device: what stdout still buffers goes to
    os.devnull, so the flush at interpreter exit stays quiet, and one error
    line goes to stderr."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    _print_stderr(f"ptclab: error: cannot write output ({exc.strerror or exc})\n")
    return EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "dump_generators", False) and not args.json:
            parser.error("--dump-generators writes JSON only; add --json")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:  # --help that cannot be written
        return _write_error(exc)
    try:
        check_seed(args.seed)
    except ValueError as exc:
        _print_stderr(f"ptclab: error: {exc}\n")
        return EXIT_USAGE
    try:
        body, lines, code = _COMMANDS[args.command](args)
    except _UsageError as exc:
        _print_stderr(f"ptclab: {exc}\n")
        return EXIT_USAGE
    try:
        if args.json:
            payload = {"schema": SCHEMA_VERSION, "command": args.command, "config": {}, **body}
            # streamed as it is encoded: the whole text is never held at once
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            for line in lines:
                if isinstance(line, _Stderr):
                    _print_stderr(line + "\n")
                else:
                    print(line)
        sys.stdout.flush()
    except OSError as exc:
        return _write_error(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
