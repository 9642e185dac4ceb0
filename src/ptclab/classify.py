"""Discrete-symmetry classification by constant-intertwiner nullspaces, decided
exactly in the Gaussian integers.

A discrete operator is a substitution map R (space flip, time flip, mass
flip, optional complex conjugation) times an unknown constant matrix q.
Demanding the stated (anti)commutation sign with every generator G turns into
the linear condition

    q * (R G R^-1) = sign(G) * G * q

per derivative multi-index, for all (p, m, t).  Every coefficient is a
Laurent polynomial in (p1, p2, p3, m, t, E) with constant matrices for
coefficients (`operators.Coefficient`), so each (generator, multi-index)
block of G, times the even power E^shift that clears its negative powers of
E and with E^2 reduced to p^2 + m^2, is sum_b N_b x^b over distinct
monomials x^b = p^a m^beta t^gamma E^k with k in {0, 1}
(`Coefficient.on_shell`).  1 and E are a basis over the rational functions
in (p, m, t), so the block vanishes identically iff every N_b does.  All
variables are real and E is even, so the same block of R G R^-1 is
sum_b eta_p^(|a|+|alpha|) eta_t^gamma eta_m^beta [conj] N_b x^b
(`expr.flag_signs`) over the same E^shift, and the condition holds for all
(p, m, t) iff one constant equation holds per monomial:

    q * (eta_p^(|a|+|alpha|) eta_t^gamma eta_m^beta [conj] N_b) = sign(G) * N_b * q.

That is 34 equations on dirac8 and 40 on every other set, each a constant
condition q a = b q between Gaussian-integer matrices a and b.  Each N_b is
s n with n a coprime Gaussian-integer matrix and s real.  Each distinct
(n, d) is interned once per process and gives four small-int pair keys, one
per pair (a, b) = ([conj] n, +-n).  A table built once per generator set
holds per equation |s|, its exponent row, |alpha|, its sign class and its
pair keys, one per equation up to a real factor (conj n is n for a real n
and -n for an imaginary one).  An operator picks a = [conj] n and
b = sigma n, sigma = sign(G) * flag sign, and keeps the cell's distinct
equations {pair key: s}, s the largest |s| of those that share a pair: the
one input of the rows and of the witness check, neither of which sees conj
or sigma.  No sample point enters the classification.

The subsidiary conditions make q constant and every N_b is Gaussian dyadic,
so the condition is one linear system over Q(i) in the d^2 entries of q,
entry (i, j) numbered i d + j, decided exactly.  Per pair key, the row
tables of a and -b are built once per process, and from them the row
family of q a - b q: each row primitive and in associate form, and each
distinct row held once per process, as a dict, under an int id, so a cell's
rows are the union of its families' ids.  One fraction-free elimination
over Z[i] of those rows, in Python ints, gives the rank and, from the
echelon rows, a primitive Gaussian-integer nullspace basis, one vector per
free entry of q, that depends on the nullspace alone, not on the row order;
like Bareiss's (Math. Comp. 22 (1968) 565), it never divides, except each
combined row by a Gaussian gcd of its entries.  Rows that share no entry of
q are never combined, so q needs no split into blocks.  Each distinct set of
pair keys is eliminated, and its witness searched, once per process: cells
whose operators impose the same equations (P1 and M on most sets) share
the decision.

Nullity 0 is a noninvariant verdict.  Otherwise the witness is the first
combination W = sum c_k B_k of the basis, c_k in {1, -1, i, -i, 0} taken in
`itertools.product` order, with W W^H = c 1 for some c > 0 and W^2 (linear)
or W conj(W) (antilinear) = lambda c 1, each tested by a sparse product
that stops at the first row off c 1: W / sqrt(c) is then a unitary
(antiunitary, with conjugation) symmetry whose operator square is lambda.
If none of the first WITNESS_CANDIDATES combinations qualifies, the verdict
is indeterminate.  The witness is checked in Z[i] on the cell's distinct
equations, row by row from the pair's row tables: its residual is the
largest |s (W a - b W)|, which is
|W F_b - sign(G) N_b W| with F_b the flagged matrix above and bounds
every coefficient of the condition for all (p, m, t) at once; every product
is exact, so it reads 0.0.  W becomes a complex matrix only in the result,
which holds the nullity, W, its residual and square; the verdict is derived.

The subsidiary position-operator conditions hold identically for constant
matrices (the flagged position operator is exactly eta_x times itself), which
is why q may be taken momentum independent in the first place.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import islice, product
from typing import NamedTuple

from .clifford import dense
from .expr import flag_signs
from .generators import GENERATOR_CLASS, GeneratorSet, build_generators
from .operators import FlagTransform, index_order
from .vocabulary import OP_ORDER

SIGN_CLASSES = ("P0", "Pa", "Jab", "J0a")
# the coefficients of a witness in the nullspace basis, as (re, im), in the
# order the search tries them (0 last, so the first candidates use every
# basis vector), and how many combinations it tries at most
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0))
WITNESS_CANDIDATES = len(UNITS) ** 4
# the four units of Z[i]: a row that holds one is primitive
_GAUSSIAN_UNITS = frozenset(UNITS[:4])


class DiscreteOpSpec(NamedTuple):
    """Flag signature plus the per-generator commute/anticommute table."""

    name: str
    eta_x: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False
    signs: tuple = (1, 1, 1, 1)  # ordered as SIGN_CLASSES


def compose_ops(a: DiscreteOpSpec, b: DiscreteOpSpec, name: str = None) -> DiscreteOpSpec:
    """Composite operator: flags multiply, conjugations XOR, signs multiply."""
    return DiscreteOpSpec(
        name if name is not None else a.name + b.name,
        a.eta_x * b.eta_x,
        a.eta_t * b.eta_t,
        a.eta_m * b.eta_m,
        a.conj ^ b.conj,
        tuple(sa * sb for sa, sb in zip(a.signs, b.signs)),
    )


PRIMITIVE_OPS = {
    "P1": DiscreteOpSpec("P1", eta_x=-1, signs=(1, -1, 1, -1)),
    "P2": DiscreteOpSpec("P2", eta_x=-1, conj=True, signs=(-1, 1, -1, 1)),
    "T1": DiscreteOpSpec("T1", eta_t=-1, signs=(-1, 1, 1, -1)),
    "T2": DiscreteOpSpec("T2", eta_t=-1, conj=True, signs=(1, -1, -1, 1)),
    "M": DiscreteOpSpec("M", eta_m=-1, signs=(1, 1, 1, 1)),
    "Mt": DiscreteOpSpec("Mt", eta_t=-1, eta_m=-1, signs=(-1, 1, 1, -1)),
    "Mx": DiscreteOpSpec("Mx", eta_x=-1, eta_m=-1, signs=(1, -1, 1, -1)),
}

ALL_OPS = dict(PRIMITIVE_OPS)
ALL_OPS["C"] = compose_ops(PRIMITIVE_OPS["T1"], PRIMITIVE_OPS["T2"], "C")
ALL_OPS["P1T2"] = compose_ops(PRIMITIVE_OPS["P1"], PRIMITIVE_OPS["T2"], "P1T2")


def get_op(name: str) -> DiscreteOpSpec:
    try:
        return ALL_OPS[name]
    except KeyError:
        raise ValueError(f"unknown discrete operator {name!r}") from None


def momentum_action(op: DiscreteOpSpec) -> FlagTransform:
    """Momentum-space shadow: a space flip flips p, conjugation flips p again."""
    eta_p = op.eta_x * (-1 if op.conj else 1)
    return FlagTransform(eta_p, op.eta_t, op.eta_m, op.conj)


# ---------------------------------------------------------------------------
# Gaussian integers (re, im) and sparse rows {column: (re, im)}


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exact_div(x, y):
    """x / y for Gaussian integers that y divides."""
    norm = y[0] * y[0] + y[1] * y[1]
    re, im = x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]
    assert re % norm == 0 and im % norm == 0, (x, y)
    return (re // norm, im // norm)


def _gcd(x, y):
    """A greatest common divisor in Z[i], by Euclid with rounded quotients."""
    while y != (0, 0):
        norm = y[0] * y[0] + y[1] * y[1]
        re, im = x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]
        q = ((2 * re + norm) // (2 * norm), (2 * im + norm) // (2 * norm))
        qy = _mul(q, y)
        x, y = y, (x[0] - qy[0], x[1] - qy[1])
    return x


def _associate(row: dict) -> dict:
    """row times the unit that puts its first entry in re > 0, im >= 0."""
    re, im = row[min(row)]
    if re > 0 and im >= 0:
        return row
    unit = (0, -1) if im > 0 else (-1, 0) if re < 0 else (0, 1)  # by the quadrant
    return {c: _mul(unit, v) for c, v in row.items()}


def _primitive(row: dict) -> dict:
    """A nonzero row divided by a Gaussian gcd of its entries."""
    if not _GAUSSIAN_UNITS.isdisjoint(row.values()):
        return row
    content = reduce(_gcd, row.values(), (0, 0))
    return {c: _exact_div(v, content) for c, v in row.items()}


def _combine(x, u: dict, y, v: dict) -> dict:
    """x u - y v for nonzero Gaussian integers x, y and rows u, v, made
    primitive: x u in one pass over u, then y v subtracted in one pass over v."""
    (xr, xi), (yr, yi) = x, y
    out = {c: (xr * ur - xi * ui, xr * ui + xi * ur) for c, (ur, ui) in u.items()}
    for c, (vr, vi) in v.items():
        re, im = out.get(c, (0, 0))
        re, im = re - yr * vr + yi * vi, im - yr * vi - yi * vr
        if re or im:
            out[c] = (re, im)
        else:
            del out[c]
    return _primitive(out) if out else out


def _by_row(items, d: int) -> list:
    """The rows [(j, (re, im))] of a sparse d x d Gaussian-integer matrix
    given as items ((i, j), (re, im))."""
    rows = [[] for _ in range(d)]
    for (i, j), v in items:
        rows[i].append((j, v))
    return rows


def _row_times(row, table, out: dict) -> dict:
    """out plus the row [(k, x)] times the matrix with rows table[k]
    [(j, y)], as {j: (re, im)}, entries that cancel kept as (0, 0)."""
    for k, (xr, xi) in row:
        for j, (yr, yi) in table[k]:
            re, im = out.get(j, (0, 0))
            out[j] = (re + xr * yr - xi * yi, im + xr * yi + xi * yr)
    return out


def _nullspace(rows, n: int) -> list:
    """A primitive Gaussian-integer basis of {v in Q(i)^n : r . v = 0 for
    every row r}, one vector per free column, as sparse rows.

    Fraction-free elimination: each row is reduced, x r - y p, against the
    pivot rows of the pivot columns it holds, and a new pivot row is
    eliminated from the others, so that each pivot row vanishes on every
    other pivot column and a reduction adds only free columns.  A
    pivot is the first column of a reduced row, so the pivot columns are
    the leading columns of the row space, whatever the row order.  The
    vector of free column f is the one nullspace element that vanishes on
    every other free column, made primitive and put in associate form, so
    the basis depends on the nullspace alone."""
    pivots = {}  # pivot column -> pivot row
    for row in rows:
        for c in [c for c in row if c in pivots]:
            p = pivots[c]
            row = _combine(p[c], row, row[c], p)
        if not row:
            continue
        c = min(row)
        for k, p in pivots.items():
            if c in p:
                pivots[k] = _combine(row[c], p, p[c], row)
        pivots[c] = row
        if len(pivots) == n:
            return []
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        used = [(c, p) for c, p in pivots.items() if f in p]
        scale = reduce(_mul, (p[c] for c, p in used), (1, 0))
        vector = {f: scale}
        for c, p in used:
            re, im = _mul(p[f], _exact_div(scale, p[c]))
            vector[c] = (-re, -im)
        basis.append(_associate(_primitive(vector)))
    return basis


# ---------------------------------------------------------------------------
# constraint assembly


def _real_primitive(mat: dict) -> tuple:
    """(n, s) with mat = s n: n the Gaussian-integer matrix whose entries are
    coprime, with its first entry in re > 0, or re = 0 and im > 0, as sorted
    items {(i, j): (re, im)}, and s real; the entries are dyadic, so exact.
    Only a real factor: i N would impose another antilinear constraint than N."""
    parts = {key: (v.real.as_integer_ratio(), v.imag.as_integer_ratio()) for key, v in mat.items()}
    scale = max(den for pair in parts.values() for _, den in pair)
    ints = {key: (a * (scale // b), c * (scale // d)) for key, ((a, b), (c, d)) in parts.items()}
    first = ints[min(ints)]
    content = math.gcd(*(part for v in ints.values() for part in v)) * (1 if first > (0, 0) else -1)
    n = tuple(sorted((key, (re // content, im // content)) for key, (re, im) in ints.items()))
    return n, content / scale


# the pairs (a, b, d) of the coprime d x d matrices n of the equation
# tables, interned once per process: _PAIR_KEYS maps (n, d) to 4 k, the
# first of its four keys 4 k + code into _PAIRS, where code bit 1 takes
# a = conj n instead of n and code bit 0 takes b = -n instead of n
_PAIRS = []
_PAIR_KEYS = {}


@lru_cache(maxsize=None)
def _equation_table(g: GeneratorSet) -> tuple:
    """(exps, equations): the monomial equations of g, from its (generator,
    multi-index) blocks in normal form (`Coefficient.on_shell`) in
    GENERATOR_NAMES order, multi-indices sorted within a generator, monomials
    sorted within a block.  exps holds their exponent rows, ordered as
    expr.LAURENT_VARS; equations holds (|s|, |alpha|, sign class, pairs) for
    the matrix s n (`_real_primitive`), with pairs[conj][sigma] the key of the
    pair ([conj] n, sigma n) up to a real factor: a real n is its own
    conjugate, and an imaginary one, conj n = -n, gives (n, -sigma n)."""
    exps, equations = [], []
    for name, gen in g.items():
        sign_class = SIGN_CLASSES.index(GENERATOR_CLASS[name])
        for alpha in sorted(gen.terms):
            for row, mat in gen.terms[alpha].on_shell()[1].terms.items():
                n, s = _real_primitive(mat)
                key = _PAIR_KEYS.setdefault((n, g.dim), len(_PAIRS))
                if key == len(_PAIRS):
                    bar = tuple((ij, (re, -im)) for ij, (re, im) in n)
                    minus = tuple((ij, (-re, -im)) for ij, (re, im) in n)
                    _PAIRS.extend((a, b, g.dim) for a in (n, bar) for b in (n, minus))
                plain = {1: key, -1: key + 1}
                if not any(im for _, (_, im) in n):  # conj n = n
                    flagged = plain
                elif not any(re for _, (re, _) in n):  # conj n = -n
                    flagged = {1: key + 1, -1: key}
                else:
                    flagged = {1: key + 2, -1: key + 3}
                exps.append(row)
                equations.append((abs(s), index_order(alpha), sign_class, (plain, flagged)))
    return tuple(exps), tuple(equations)


def _cell_equations(g: GeneratorSet, op: DiscreteOpSpec) -> dict:
    """The distinct monomial equations of g under op, {pair key: s}: q a = b q
    with a = [conj] n and b = sigma n, sigma = sign(G) times the flag sign
    eta_p^(|a|+|alpha|) eta_t^gamma eta_m^beta, and s the largest |s| of the
    equations that share the pair."""
    flags = momentum_action(op)
    exps, table = _equation_table(g)
    equations = {}
    for (s, order, sign_class, pairs), flag in zip(table, flag_signs(exps, flags)):
        key = pairs[op.conj][flag * flags.eta_p ** order * op.signs[sign_class]]
        equations[key] = max(s, equations.get(key, 0.0))
    return equations


@lru_cache(maxsize=None)
def _pair_tables(key: int) -> tuple:
    """(a, -b) of the pair key by row (`_by_row`), built once per process per
    key: the tables of its row family and of the witness residual."""
    a, b, d = _PAIRS[key]
    return _by_row(a, d), _by_row((((i, j), (-re, -im)) for (i, j), (re, im) in b), d)


# every distinct constraint row of the row families built so far, held once
# per process, and its id (its index in _ROWS) by its sorted items
_ROWS = []
_ROW_IDS = {}


@lru_cache(maxsize=None)
def _matrix_rows(key: int) -> frozenset:
    """The ids in _ROWS of the rows of q a - b q for the pair (a, b) of key,
    over the d * d entries of q, entry (i, j) numbered i * d + j; each row
    primitive and in associate form, so rows that differ by a factor in Q(i)
    are one row.  Built once per process and pair, so the sets and
    operators that share an equation share its rows."""
    a, minus_b = _pair_tables(key)
    d = len(a)
    ids = set()
    for i in range(d):
        rows = [{} for _ in range(d)]  # row (i, k) for k = 0 .. d - 1
        for j, a_row in enumerate(a):
            for k, v in a_row:
                rows[k][i * d + j] = v
        for l, (re, im) in minus_b[i]:
            for c, row in enumerate(rows, l * d):  # c numbers entry (l, k) of q
                old = row.pop(c, (0, 0))
                if (old[0] + re, old[1] + im) != (0, 0):
                    row[c] = (old[0] + re, old[1] + im)
        for row in filter(None, rows):
            row = _associate(_primitive(row))
            ids.add(_ROW_IDS.setdefault(tuple(sorted(row.items())), len(_ROWS)))
            if len(_ROWS) < len(_ROW_IDS):
                _ROWS.append(row)
    return frozenset(ids)


def _cell_rows(keys) -> list:
    """The distinct rows of the equations with the given pair keys, as sparse
    rows over the d * d entries of q, the dicts of _ROWS themselves, so read
    only; the sparsest first, which spares the elimination about a tenth of
    its row combinations."""
    return sorted((_ROWS[i] for i in set().union(*map(_matrix_rows, keys))), key=len)


@lru_cache(maxsize=None)
def _rank_decision(keys: frozenset, d: int) -> list:
    """The primitive Gaussian-integer nullspace basis of the equations with
    the given pair keys, each vector {(row, column) of q: (re, im)}, one per
    free entry of q in row-major order; eliminated once per process per
    distinct system, so the cells that share one share its basis, read
    only."""
    basis = _nullspace(_cell_rows(keys), d * d)
    return [{divmod(c, d): v for c, v in vector.items()} for vector in basis]


# ---------------------------------------------------------------------------
# witness selection


def _scalar_product(u: dict, v: dict, d: int):
    """s when the product u v of sparse Gaussian-integer d x d matrices
    {(i, j): (re, im)} is s 1, else None; row by row, returning at the first
    row that rules it out."""
    v = _by_row(v.items(), d)
    scale = None
    for i, row in enumerate(_by_row(u.items(), d)):
        out = _row_times(row, v, {})
        entry = out.pop(i, (0, 0))
        scale = entry if scale is None else scale
        if entry != scale or any(x != (0, 0) for x in out.values()):
            return None
    return scale


def _select_witness(basis: list, d: int, conj: bool):
    """(W, lambda) for the first combination W of the basis vectors, with
    coefficients in UNITS in `itertools.product` order, such that
    W W^H = c 1 with c > 0 and W W (W conj(W) when conj) = lambda c 1;
    None if none of the first WITNESS_CANDIDATES qualifies.  W is sparse,
    {(i, j): (re, im)} with its zero entries kept."""
    for coeffs in islice(product(UNITS, repeat=len(basis)), WITNESS_CANDIDATES):
        w = {}
        for c, vector in zip(coeffs, basis):
            for key, v in vector.items():
                x, old = _mul(c, v), w.get(key, (0, 0))
                w[key] = (old[0] + x[0], old[1] + x[1])
        bar = {key: (re, -im) for key, (re, im) in w.items()}
        scale = _scalar_product(w, {(j, i): v for (i, j), v in bar.items()}, d)
        if scale is None or scale == (0, 0):
            continue
        square = _scalar_product(w, bar if conj else w, d)
        if square is not None:
            return w, complex(*square) / scale[0]
    return None


@lru_cache(maxsize=None)
def _witness(keys: frozenset, d: int, conj: bool):
    """`_select_witness` on the basis of the equations with the given pair
    keys: searched once per process per distinct system and conj, and
    shared, read only, by the cells that share them."""
    basis = _rank_decision(keys, d)
    return _select_witness(basis, d, conj) if basis else None


def _witness_residual(w: dict, equations: dict, d: int) -> float:
    """max over a cell's equations {pair key: s} of |s (W a - b W)| for the
    Gaussian-integer W {(i, j): (re, im)}: exact in Z[i] and dyadic s, so
    rounded once, in abs.  Row i of W a - b W is formed in one pass over
    row i of W and row i of b."""
    rows = _by_row(w.items(), d)
    worst = 0.0
    for key, s in equations.items():
        a, minus_b = _pair_tables(key)
        for row, b_row in zip(rows, minus_b):
            for re, im in _row_times(b_row, rows, _row_times(row, a, {})).values():
                worst = max(worst, abs(complex(s * re, s * im)))
    return worst


# ---------------------------------------------------------------------------
# classification


class ClassificationResult(NamedTuple):
    nullspace_dim: int
    witness: tuple | None  # rows of complex, Gaussian integers
    residual: float | None
    operator_square: complex | None

    @property
    def verdict(self) -> str:
        if self.witness is not None:
            return "invariant"
        return "indeterminate" if self.nullspace_dim else "noninvariant"


def classify(g: GeneratorSet, op) -> ClassificationResult:
    """Decide invariance of a generator set under one discrete operator."""
    if isinstance(op, str):
        op = get_op(op)
    equations = _cell_equations(g, op)
    keys = frozenset(equations)
    nullity = len(_rank_decision(keys, g.dim))
    found = _witness(keys, g.dim, op.conj)
    witness = residual = square = None
    if found is not None:
        w, square = found
        witness = dense({key: complex(*v) for key, v in w.items()}, g.dim)
        residual = _witness_residual(w, equations, g.dim)
    return ClassificationResult(nullity, witness, residual, square)


# ---------------------------------------------------------------------------
# the full table against the published claims


PAPER_CLAIMS = {
    "rep1": {
        "invariant": {"C", "Mx", "Mt", "P1T2"},
        "noninvariant": {"P1", "P2", "T2", "M"},
    },
    "rep2": {
        "invariant": {"P2", "T1", "Mx", "P1T2"},
        "noninvariant": {"P1", "T2", "C", "M", "Mt"},
    },
    "rep3": {
        "invariant": {"P1", "T2", "M", "Mx", "P1T2"},
        "noninvariant": {"T1", "C", "P2", "Mt"},
    },
}


def paper_expectation(rep_kind: str, op_name: str):
    """The published verdict of a cell, None where the source states none."""
    claims = PAPER_CLAIMS.get(rep_kind, {})
    return next((verdict for verdict, ops in claims.items() if op_name in ops), None)


class TableRow(NamedTuple):
    result: ClassificationResult
    expectation: str | None  # None means unstated in the source claims

    @property
    def verdict(self) -> str:
        return self.result.verdict

    @property
    def matches(self):
        if self.expectation is None or self.verdict == "indeterminate":
            return None
        return self.verdict == self.expectation


class ClassificationTable(NamedTuple):
    rows: dict  # op name -> TableRow

    @property
    def matches_paper(self) -> bool:
        return all(row.matches for row in self.rows.values() if row.matches is not None)

    @property
    def any_indeterminate(self) -> bool:
        return any(row.verdict == "indeterminate" for row in self.rows.values())

    def verdicts(self) -> dict:
        return {name: row.verdict for name, row in self.rows.items()}


def full_table(rep) -> ClassificationTable:
    """Classify all nine discrete operators against one representation."""
    g = rep if isinstance(rep, GeneratorSet) else build_generators(rep)
    rows = {}
    for name in OP_ORDER:
        rows[name] = TableRow(classify(g, get_op(name)), paper_expectation(g.name, name))
    return ClassificationTable(rows)
