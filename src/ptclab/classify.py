"""Discrete-symmetry classification by constant-intertwiner nullspaces.

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

That is 34 equations on dirac8 and 40 on every other set.  The monomial
system is built once per generator set and shared by all nine operators;
no sample point enters the classification.

The matrices are products of Pauli-type tensors, so every N_b is block
diagonal over a few classes of the d basis indices, and q A = B q splits
into one small system per (row class, column class) submatrix of q, with
s^2 unknowns for classes of size s.  Equations that impose the same
constraint under every operator are merged first: a shared sign class and
shared parities of p (with |alpha|), t and m give them the same flag sign
and sign(G) under any operator, and matrices equal up to a real factor r
(checked exactly) make each one r times the other, so one row block of
weight sqrt(sum r^2) leaves A^H A unchanged.  That leaves 14 merged
equations on every set, built once per generator set.  Each submatrix's
merged system is QR-factored to an s^2 x s^2 factor R, R^H R = A^H A, and the
rank is decided on one SVD per factor: the union of their singular values
is the spectrum of the stacked system A, and each factor's null right
singular vectors, placed at its submatrix's entries of q, give an
orthonormal basis of the nullspace.  The symmetry holds iff the nullspace
contains an invertible element.  Rank decisions use a singular value
threshold with a guard band: anything ambiguous is flagged instead of
silently classified, and so is a nullspace whose invertible element misses
the residual tolerance.

The witness found is checked on the unmerged monomial equations: its
residual is the largest |q F_b - sign(G) N_b q| over them, with F_b the
flagged matrix above, which bounds every coefficient of the condition for
all (p, m, t) at once.

Witnesses are built in closed form.  If q0 is one invertible element of the
nullspace N, then N = C q0, where C is the commutant of the generators'
coefficients, closed under adjoints.  So the unitary polar factor of a
random element of N is again in N, its square w lies in C and commutes with
it, and q = w^(-1/2) q0 is a unitary element of N with q^2 = 1.  The random
element is a Gaussian matrix projected orthogonally onto N, so the witness
depends on N alone, not on the basis the SVD returns for it.  The Gaussians
come from the standard library's `random.Random`, seeded with the string
"seed/rep/op", so the draw is the same on every platform and under every
PYTHONHASHSEED.  The witness reported is q / |q|, so its involution scale is
1/d.

The subsidiary position-operator conditions hold identically for constant
matrices (the flagged position operator is exactly eta_x times itself), which
is why q may be taken momentum independent in the first place.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .clifford import cached_spin
from .expr import LAURENT_VARS, flag_signs
from .generators import GENERATOR_CLASS, GeneratorSet, build_generators
from .operators import FlagTransform, index_order
from .vocabulary import (
    DEFAULT_RANK_TOL,
    DEFAULT_SEED,
    DEFAULT_TOL,
    OP_ORDER,
    RANK_GUARD,
    check_settings,
)

SIGN_CLASSES = ("P0", "Pa", "Jab", "J0a")
# sigma_min / sigma_max above which a nullspace element counts as invertible
INVERTIBLE_TOL = 1e-6


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
# constraint assembly


class _MonomialSystem(NamedTuple):
    """Every (generator, multi-index) block of a generator set in normal form
    (`Coefficient.on_shell`): E^shift[c] times block c is
    sum over its equations e of mats[e] x^exps[e]."""

    mats: np.ndarray  # (equations, d, d)
    exps: np.ndarray  # (equations, 7), ordered as expr.LAURENT_VARS
    block: np.ndarray  # (equations,) the block each equation comes from
    shift: np.ndarray  # (blocks,)
    order: np.ndarray  # (equations,) |alpha| of the block's multi-index
    sign_class: np.ndarray  # (equations,) index into SIGN_CLASSES


@lru_cache(maxsize=None)
def _monomial_system(g: GeneratorSet) -> _MonomialSystem:
    """The blocks of g in GENERATOR_NAMES order, multi-indices sorted within
    a generator, monomials sorted within a block."""
    shifts, exps, mats, labels = [], [], [], []
    for name, gen in g.items():
        sign_class = SIGN_CLASSES.index(GENERATOR_CLASS[name])
        for alpha in sorted(gen.terms):
            shift, form = gen.terms[alpha].on_shell()
            labels += [(len(shifts), index_order(alpha), sign_class)] * len(form.terms)
            shifts.append(shift)
            exps += form.exps
            mats += form.mats
    block, order, sign_class = np.array(labels, dtype=int).reshape(-1, 3).T
    return _MonomialSystem(
        np.array(mats, dtype=complex), np.array(exps, dtype=int), block, np.array(shifts),
        order, sign_class,
    )


class _RankSystem(NamedTuple):
    """The monomial equations of a generator set merged for the rank
    decision, and the index classes they split over."""

    mats: np.ndarray  # (merged equations, d, d) representative times sqrt(sum r^2)
    exps: np.ndarray  # (merged equations, 7) the representative's exponents
    order: np.ndarray  # (merged equations,)
    sign_class: np.ndarray  # (merged equations,)
    classes: np.ndarray  # (classes, size) from _index_classes
    members: np.ndarray  # (classes^2, size^2) entries of q per submatrix, row-major


def _real_multiple(a: np.ndarray, b: np.ndarray) -> bool:
    """Is a = r b for a real r?  Exact: every entry is a Gaussian dyadic, so
    cross-multiplying at b's first nonzero entry rounds nothing."""
    k = np.flatnonzero(b)[0]
    a_k, b_k = a.flat[k], b.flat[k]
    return (a_k * b_k.conjugate()).imag == 0 and np.array_equal(a * b_k, b * a_k)


@lru_cache(maxsize=None)
def _rank_system(g: GeneratorSet) -> _RankSystem:
    """Merge the equations of `_monomial_system(g)` that impose the same
    constraint under every operator: same sign class, same parities of
    |a| + |alpha|, gamma and beta, and matrices equal up to a real factor.
    Equation N = r N0 then gives r times N0's rows of the system, so the
    class adds sum r^2 A0^H A0 to A^H A; one row block of N0 sqrt(sum r^2)
    adds the same.  The representative is the class's first equation."""
    system = _monomial_system(g)
    t, m = LAURENT_VARS.index("t"), LAURENT_VARS.index("m")
    parity = np.column_stack(
        [system.exps[:, :3].sum(axis=1) + system.order, system.exps[:, t], system.exps[:, m]]
    ) % 2
    keys = list(zip(system.sign_class.tolist(), map(tuple, parity.tolist())))
    norms = np.linalg.norm(system.mats, axis=(1, 2))
    weights = {}  # representative -> sum of |N|^2 over its class
    for e, key in enumerate(keys):
        rep = next(
            (r for r in weights if keys[r] == key and _real_multiple(system.mats[e], system.mats[r])),
            e,
        )
        weights[rep] = weights.get(rep, 0.0) + norms[e] ** 2
    reps = np.array(list(weights))
    weight = np.sqrt(list(weights.values())) / norms[reps]
    classes = _index_classes(system.mats.any(axis=0))
    members = classes[:, None, :, None] * g.dim + classes[None, :, None, :]
    return _RankSystem(
        system.mats[reps] * weight[:, None, None], system.exps[reps], system.order[reps],
        system.sign_class[reps], classes, members.reshape(len(classes) ** 2, -1),
    )


def _monomial_pairs(system, op: DiscreteOpSpec) -> np.ndarray:
    """(equations, 2, d, d): per equation of a `_MonomialSystem` or a
    `_RankSystem`, the flagged matrix
    eta_p^(|a|+|alpha|) eta_t^gamma eta_m^beta [conj] N and sign(G) N.

    The coefficient of R G R^-1 at x is [conj] coeff(eta.x) eta_p^|alpha|,
    all variables are real and E is even, so monomial by monomial it is the
    flagged matrix times x^b, over the same E^shift as G's own block: the
    condition q (R G R^-1) = sign(G) G q holds for all (p, m, t) iff
    q a = b q holds for every pair (a, b)."""
    flags = momentum_action(op)
    flag_sign = np.array(flag_signs(system.exps.tolist(), flags)) * flags.eta_p ** system.order
    flagged = system.mats.conj() if flags.conj else system.mats
    sign = np.array(op.signs)[system.sign_class]
    return np.stack(
        [flag_sign[:, None, None] * flagged, sign[:, None, None] * system.mats], axis=1
    )


def _index_classes(support: np.ndarray) -> np.ndarray:
    """The classes (classes, size) of basis indices that no coefficient
    couples, from the d x d nonzero pattern of all of them: the transitive
    closure, read off the d-th power of the symmetrized pattern plus the
    identity.  Classes of unequal size would not stack, and raise."""
    d = len(support)
    reach = np.linalg.matrix_power(support | support.T | np.eye(d, dtype=bool), d)
    # each class once, at its smallest index
    roots = np.flatnonzero(reach.argmax(axis=1) == np.arange(d))
    return np.stack([np.flatnonzero(reach[root]) for root in roots])


def build_constraints(pairs: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The block factors of the system A: q a - b q = 0 for every pair
    (a, b) of pairs (equations, 2, d, d), stacked: (classes^2 * s^2, s^2)
    for classes (classes, s).

    Every pair is block diagonal over `_index_classes`, so q a = b q splits
    into q_xy a_y - b_x q_xy per submatrix q_xy of q (row class x, column
    class y), on the row-major entries of q_xy.  One batched QR factors all
    of them; block x * classes + y is the s^2 x s^2 factor R_xy with
    R_xy^H R_xy = A_xy^H A_xy, so it has the singular values and right
    singular vectors of that submatrix's system.
    """
    m, s = classes.shape
    sub = pairs[:, :, classes[:, :, None], classes[:, None, :]]
    eye = np.eye(s)
    # row (n, i, k) of q_xy a_y - b_x q_xy on entry (j, l) of q_xy
    left = np.einsum("ij,nylk->ynikjl", eye, sub[:, 0])
    right = np.einsum("nxij,kl->xnikjl", sub[:, 1], eye)
    systems = (left[None] - right[:, None]).reshape(m * m, -1, s * s)
    return np.linalg.qr(systems, mode="r").reshape(-1, s * s)


def _rank_decision(g: GeneratorSet, op: DiscreteOpSpec, rank_tol: float):
    """(singular values, nullspace basis) of the merged constraint system of
    g under op: the union of the singular values of every block factor, one
    SVD each, and the right singular vectors below rank_tol * sigma_max, each
    at its block's entries of q, as orthonormal rows (nullity, d^2)."""
    rank = _rank_system(g)
    factors = build_constraints(_monomial_pairs(rank, op), rank.classes)
    n = factors.shape[1]
    _, singular, vh = map(np.array, zip(*(np.linalg.svd(f) for f in factors.reshape(-1, n, n))))
    block, index = np.nonzero(singular < rank_tol * singular.max())
    basis = np.zeros((len(block), g.dim ** 2), dtype=complex)
    basis[np.arange(len(block))[:, None], rank.members[block]] = vh[block, index]
    return singular.ravel(), basis


def _witness_residual(q: np.ndarray, pairs: np.ndarray) -> float:
    """max over the monomial equations (a, b) of pairs of |q a - b q|: the
    largest coefficient of q (R G R^-1) - sign(G) G q, for all (p, m, t)."""
    return float(np.max(np.abs(q @ pairs[:, 0] - pairs[:, 1] @ q), initial=0.0))


# ---------------------------------------------------------------------------
# witness selection


def _normalized(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q)


def _involution_scale(q: np.ndarray, tol: float):
    d = q.shape[0]
    square = q @ q
    lam = complex(np.trace(square) / d)
    if np.max(np.abs(square - lam * np.eye(d))) < tol:
        return lam
    return None


def _inverse_sqrt(w: np.ndarray) -> np.ndarray:
    """w^(-1/2) of a unitary w, by eigendecomposition.

    The square root's branch cut is turned to the middle of the widest gap
    in w's spectrum, so no cluster of nearly equal eigenvalues straddles it.
    """
    values, vectors = np.linalg.eig(w)
    angles = np.sort(np.angle(values))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    widest = np.argmax(gaps)
    turn = np.exp(1j * (angles[widest] + gaps[widest] / 2 - np.pi))
    roots = (values / turn) ** -0.5 / np.sqrt(turn)
    return vectors @ (roots[:, None] * np.linalg.inv(vectors))


def _select_witness(basis, pairs, rng: random.Random, tol):
    """(witness, residual, involution scale) from an orthonormal basis of the
    nullspace N, rows of d^2 entries of q; (None, residual, None) when the
    invertible element found misses tol, and (None, None, None) when no
    invertible element turns up.

    One d x d complex Gaussian is drawn from rng, 2 d^2 standard normals as
    interleaved real and imaginary parts, and projected orthogonally onto N,
    so the element depends on N and not on the basis that spans it.  Its polar
    factor q0 is unitary and still in N, w = q0^2 is a unitary element of the
    commutant that commutes with q0, and q = w^(-1/2) q0 is a unitary element
    of N with q^2 = 1, so it is always invertible.  If q fails validation,
    the projected element is reported without an involution scale, if it is
    invertible (sigma_min / sigma_max above INVERTIBLE_TOL) and its residual
    on the monomial equations pairs is below tol.
    """
    d = pairs.shape[-1]
    flat = np.reshape(basis, (len(basis), d * d))
    draw = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d * d)]).view(complex)
    raw = (flat.T @ (flat.conj() @ draw)).reshape(d, d)
    u, singular, vh = np.linalg.svd(raw)
    q0 = u @ vh
    q = _normalized(_inverse_sqrt(q0 @ q0) @ q0)
    residual = _witness_residual(q, pairs)
    lam = _involution_scale(q, tol)
    if residual < tol and lam is not None:
        return q, residual, lam
    if singular[-1] > INVERTIBLE_TOL * singular[0]:
        raw = _normalized(raw)
        residual = _witness_residual(raw, pairs)
        return (raw if residual < tol else None), residual, None
    return None, None, None


# ---------------------------------------------------------------------------
# classification


class ClassificationResult(NamedTuple):
    rep: str
    op: str
    invariant: bool
    indeterminate: bool
    nullspace_dim: int
    witness: np.ndarray | None
    residual: float | None
    involution_scale: complex | None
    smallest_singular_value: float
    largest_singular_value: float

    @property
    def verdict(self) -> str:
        if self.indeterminate:
            return "indeterminate"
        return "invariant" if self.invariant else "noninvariant"


def classify(
    g: GeneratorSet,
    op,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ClassificationResult:
    """Decide invariance of a generator set under one discrete operator."""
    check_settings(seed=seed, tol=tol, rank_tol=rank_tol)
    if isinstance(op, str):
        op = get_op(op)
    singular, basis = _rank_decision(g, op, rank_tol)
    sigma_max = float(singular.max())
    threshold = rank_tol * sigma_max
    indeterminate = bool(
        np.any((singular > threshold / RANK_GUARD) & (singular < threshold * RANK_GUARD))
    )
    witness = residual = scale = None
    if len(basis) and not indeterminate:
        pairs = _monomial_pairs(_monomial_system(g), op)
        rng = random.Random(f"{seed}/{g.rep.kind}/{op.name}")
        witness, residual, scale = _select_witness(basis, pairs, rng, tol)
        # an invertible element whose residual misses tol decides nothing
        indeterminate = witness is None and residual is not None
    return ClassificationResult(
        g.rep.kind, op.name, witness is not None, indeterminate, len(basis),
        witness, residual, scale, float(singular.min()), sigma_max,
    )


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
    claims = PAPER_CLAIMS.get(rep_kind)
    if claims is None:
        return None
    if op_name in claims["invariant"]:
        return "invariant"
    if op_name in claims["noninvariant"]:
        return "noninvariant"
    return None


class TableRow(NamedTuple):
    result: ClassificationResult
    expectation: str | None  # None means unstated in the source claims

    @property
    def verdict(self) -> str:
        return self.result.verdict

    @property
    def matches(self):
        if self.expectation is None or self.result.indeterminate:
            return None
        return self.verdict == self.expectation


class ClassificationTable(NamedTuple):
    rep: str
    rows: dict  # op name -> TableRow

    @property
    def matches_paper(self) -> bool:
        return all(row.matches for row in self.rows.values() if row.matches is not None)

    @property
    def any_indeterminate(self) -> bool:
        return any(row.result.indeterminate for row in self.rows.values())

    def verdicts(self) -> dict:
        return {name: row.verdict for name, row in self.rows.items()}


def full_table(
    rep,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ClassificationTable:
    """Classify all nine discrete operators against one representation."""
    check_settings(seed=seed, tol=tol, rank_tol=rank_tol)
    g = rep if isinstance(rep, GeneratorSet) else build_generators(rep)
    rows = {}
    for name in OP_ORDER:
        result = classify(g, get_op(name), rank_tol=rank_tol, tol=tol, seed=seed)
        rows[name] = TableRow(result, paper_expectation(g.rep.kind, name))
    return ClassificationTable(g.rep.kind, rows)


# ---------------------------------------------------------------------------
# intertwining relations of the eight-component witnesses


class IntertwiningReport(NamedTuple):
    residuals: dict  # relation label -> float or None when not checkable
    missing: list
    tol: float

    @property
    def ok(self) -> bool:
        return not self.missing and all(r < self.tol for r in self.residuals.values())


def intertwining_check(tol: float = DEFAULT_TOL) -> IntertwiningReport:
    """The parity and mass-flip witnesses of the canonical 8-dim set swap the
    two su(2) actions; the linear time-flip witness centralizes them."""
    g = build_generators("canonical8")
    spin = cached_spin(8)
    witnesses = {}
    missing = []
    for name in ("P1", "M", "T1"):
        result = classify(g, get_op(name), tol=tol)
        if result.witness is None:
            missing.append(f"{name}: no invertible witness ({result.nullspace_dim=})")
        witnesses[name] = result.witness

    residuals = {}
    for name, relation in (("P1", "swap"), ("M", "swap"), ("T1", "commute")):
        w = witnesses[name]
        if w is None:
            continue
        worst = 0.0
        for a in range(3):
            s, t = np.asarray(spin.S[a]), np.asarray(spin.T[a])
            dev = w @ s - (t if relation == "swap" else s) @ w
            worst = max(worst, float(np.max(np.abs(dev))))
        residuals[f"{name}_{relation}"] = worst
    return IntertwiningReport(residuals, missing, tol)
