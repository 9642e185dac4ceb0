"""Checks on the JSON each ptclab CLI command prints.

`failures(command, returncode, stdout, reference)` lists every reason one invocation
fails; an empty list means it passed.  Expected verdicts come from
reference.json beside this file: the published claims for rep1-rep3, and a
reference map for the cells the paper leaves unstated.  The benchmark does
not read the expectations from the package, so a change to the package's own
claims cannot move them.
"""

import copy
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# The CLI's documented default --tol; the benchmark never passes --tol.
TOL = 1e-9
MASSLESS_PAIR_COUNT = 28
TABLE_REPS = {"all": ("rep1", "rep2", "rep3", "canonical8")}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def expected_verdict(reference: dict, rep: str, op: str):
    claims = reference["paper_claims"].get(rep)
    if claims is not None:
        for verdict in ("invariant", "noninvariant"):
            if op in claims[verdict]:
                return verdict
    return reference["unstated"].get(rep, {}).get(op)


def _cell_failures(reference, rep, op, cell) -> list:
    where = f"{rep}/{op}"
    want = expected_verdict(reference, rep, op)
    got = cell.get("verdict")
    out = []
    if want is None:
        out.append(f"{where}: no reference verdict")
    elif got != want:
        out.append(f"{where}: verdict {got!r}, expected {want!r}")
    if got == "invariant":
        residual = cell.get("residual")
        if not isinstance(residual, (int, float)) or not residual < TOL:
            out.append(f"{where}: residual {residual!r} not below {TOL:g}")
    return out


def _option(command, flag):
    return command[command.index(flag) + 1]


def _check_document(command, doc, reference) -> list:
    kind = command[0]
    out = []
    if kind == "table":
        rep_arg = _option(command, "--rep")
        want_reps = TABLE_REPS.get(rep_arg, (rep_arg,))
        reps = doc.get("reps", {})
        if sorted(reps) != sorted(want_reps):
            out.append(f"table reps {sorted(reps)}, expected {sorted(want_reps)}")
        ops = reference["ops"]
        for rep, table in sorted(reps.items()):
            cells = table.get("ops", {})
            if sorted(cells) != sorted(ops):
                out.append(f"{rep}: operators {sorted(cells)}, expected {sorted(ops)}")
            for op, cell in sorted(cells.items()):
                out.extend(_cell_failures(reference, rep, op, cell))
            if table.get("matches_paper") is not True:
                out.append(f"{rep}: matches_paper is not true")
        if doc.get("matches_paper") is not True:
            out.append("matches_paper is not true")
    elif kind == "classify":
        out.extend(
            _cell_failures(reference, _option(command, "--rep"), _option(command, "--op"), doc)
        )
    elif kind in ("selftest", "algebra"):
        if doc.get("pass") is not True:
            out.append(f"{kind}: pass is not true")
    elif kind == "massless":
        if doc.get("pair_count") != MASSLESS_PAIR_COUNT:
            out.append(f"massless: pair_count {doc.get('pair_count')!r}, expected 28")
        if doc.get("helicity", {}).get("pass") is not True:
            out.append("massless: helicity pass is not true")
    elif kind == "ptc":
        if doc.get("ptc_complete") is not True:
            out.append("ptc: ptc_complete is not true")
    else:
        out.append(f"no check for command {kind!r}")
    return out


def failures(command, returncode, stdout: bytes, reference) -> list:
    """Every reason this invocation fails; empty when it passes."""
    out = []
    if returncode != 0:
        out.append(f"exit code {returncode}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return out + ["stdout is not JSON"]
    if not isinstance(doc, dict):
        return out + ["stdout is not a JSON object"]
    return out + _check_document(command, doc, reference)


def _first_invariant_cell(command, doc):
    """The first invariant cell of a table or classify output, or None."""
    if command[0] == "classify" and doc.get("verdict") == "invariant":
        return doc
    for rep in sorted(doc.get("reps", {})):
        for op, cell in sorted(doc["reps"][rep]["ops"].items()):
            if cell.get("verdict") == "invariant":
                return cell
    return None


def doctored_check(command, stdout: bytes, reference) -> dict:
    """Doctor one invariant cell two ways; each must be counted as a failure.

    Returns {"verdict": bool, "residual": bool}, True where the doctored output
    was caught, or None for both when the output has no invariant cell.
    """
    doc = json.loads(stdout)
    if _first_invariant_cell(command, doc) is None:
        return {"verdict": None, "residual": None}
    caught = {}
    for what in ("verdict", "residual"):
        doctored = copy.deepcopy(doc)
        cell = _first_invariant_cell(command, doctored)
        if what == "verdict":
            cell["verdict"] = "noninvariant"
        else:
            cell["residual"] = 10 * TOL
        text = json.dumps(doctored, indent=2, sort_keys=True).encode() + b"\n"
        reasons = failures(command, 0, text, reference)
        caught[what] = any(what in reason for reason in reasons)
    return caught
