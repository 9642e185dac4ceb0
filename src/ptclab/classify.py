"""Discrete-symmetry classification by constant-intertwiner nullspaces.

A discrete operator is a substitution map R (space flip, time flip, mass
flip, optional complex conjugation) times an unknown constant matrix q.
Demanding the stated (anti)commutation sign with every generator G turns into
the linear condition

    q * (R G R^-1) = sign(G) * G * q

per derivative multi-index and per sample point.  All variables are real and
the energy E is even, so the coefficient of R G R^-1 at a point x is read off
the coefficient of G at the reflected point eta.x: it is
[conj] coeff(eta.x) * eta_p^|alpha|.  The scalars of each generator's
coefficients are therefore evaluated once per reflection signature
(eta_p, eta_t, eta_m), shared by every operator classified on the same
sample set.

Stacking all conditions gives one homogeneous system A on the d^2 entries
of q.  It is never formed.  Every coefficient is a sum of K constant
matrices times scalars, so a block's pairs over the n samples are an n x 2K
scalar matrix times constant pairs; A^H A depends only on their Gram
matrix, and the QR factor of the scalar matrix compresses the samples to at
most 2K rows, then to the numerical rank of that Gram matrix.  The
coefficient matrices are products of Pauli-type tensors, so every
coefficient is block diagonal over a few classes of the d basis indices,
and q A = B q splits into one small system per (row class, column class)
submatrix of q.  The rank decision is an SVD of a d^2 x d^2 factor R
assembled from one QR factor per submatrix: R^H R = A^H A, so R has the
singular values and right singular vectors of A.  The symmetry
holds iff the nullspace contains an invertible element.  Rank decisions use
a singular value threshold with a guard band: anything ambiguous is flagged
instead of silently classified, and so is a nullspace whose invertible
element misses the residual tolerance.

Witnesses are built in closed form.  If q0 is one invertible element of the
nullspace N, then N = C q0, where C is the commutant of the generators'
coefficients, closed under adjoints.  So the unitary polar factor of a
random element of N is again in N, its square w lies in C and commutes with
it, and q = w^(-1/2) q0 is a unitary element of N with q^2 = 1.  The random
element is a Gaussian matrix projected orthogonally onto N, so the witness
depends on N alone, not on the basis the SVD returns for it.  The witness
reported is q / |q|, so its involution scale is 1/d.

The subsidiary position-operator conditions hold identically for constant
matrices (the flagged position operator is exactly eta_x times itself), which
is why q may be taken momentum independent in the first place.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

from .clifford import cached_spin
from .generators import GENERATOR_CLASS, GeneratorSet, build_generators
from .operators import FlagTransform, eval_scalars, index_order
from .sampling import env_arrays, sample_points
from .vocabulary import (
    DEFAULT_RANK_TOL,
    DEFAULT_SEED,
    DEFAULT_TOL,
    OP_ORDER,
    RANK_GUARD,
    check_settings,
)

SIGN_CLASSES = ("P0", "Pa", "Jab", "J0a")
DET_TOL = 1e-6
# weight a block's compressed samples may drop, relative to the block's norm:
# a few rounding errors of its coefficients, far below any rank threshold
COMPRESSION_TOL = 1e-14


class DiscreteOpSpec(NamedTuple):
    """Flag signature plus the per-generator commute/anticommute table."""

    name: str
    eta_x: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False
    signs: tuple = (1, 1, 1, 1)  # ordered as SIGN_CLASSES

    def generator_sign(self, generator_name: str) -> int:
        return self.signs[SIGN_CLASSES.index(GENERATOR_CLASS[generator_name])]


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

IDENTITY_REFLECTION = (1, 1, 1)


class _SampleSet(list):
    """Sample points that keep each generator set's coefficient scalars at
    their reflected copies, so every operator classified on them shares one
    evaluation per reflection signature (eta_p, eta_t, eta_m)."""

    def __init__(self, points):
        super().__init__(points)
        if not self:
            raise ValueError("classification needs at least one sample point")
        self.env = env_arrays(self)
        self._scalars = {}  # (generator set, signature) -> name -> alpha -> (n, K)

    @classmethod
    def of(cls, points) -> "_SampleSet":
        return points if isinstance(points, cls) else cls(points)

    def reflected(self, g: GeneratorSet, eta: tuple) -> dict:
        key = (g, eta)
        if key not in self._scalars:
            eta_p, eta_t, eta_m = eta
            env = dict(
                self.env,
                p1=eta_p * self.env["p1"],
                p2=eta_p * self.env["p2"],
                p3=eta_p * self.env["p3"],
                t=eta_t * self.env["t"],
                m=eta_m * self.env["m"],
            )
            self._scalars[key] = {name: eval_scalars(gen, env) for name, gen in g.items()}
        return self._scalars[key]


class _ConstraintBlocks(NamedTuple):
    """The pairs (flagged coeff, sign * coeff) of every (generator,
    multi-index) block at every sample s, as sum_j scalars[:, s, j] * mats[:, j]."""

    scalars: np.ndarray  # (blocks, n, J)
    mats: np.ndarray  # (blocks, J, 2, d, d)


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


def _constraint_blocks(g: GeneratorSet, op: DiscreteOpSpec, samples: _SampleSet) -> _ConstraintBlocks:
    """Every (generator, multi-index) block in scalar form: the coefficient's
    K scalars at the reflected points and its matrices for the flagged side,
    its scalars at the points and sign times its matrices for the plain side,
    zero-padded to the widest block.  The flagged scalars are read off the
    reflected-point evaluations."""
    flags = momentum_action(op)
    plain = samples.reflected(g, IDENTITY_REFLECTION)
    flipped = samples.reflected(g, (flags.eta_p, flags.eta_t, flags.eta_m))
    keys = [(name, alpha) for name in g.ops for alpha in sorted(plain[name])]
    width = max(plain[name][alpha].shape[1] for name, alpha in keys)
    scalars = np.zeros((len(keys), len(samples), 2 * width), dtype=complex)
    mats = np.zeros((len(keys), 2 * width, 2, g.dim, g.dim), dtype=complex)
    for c, (name, alpha) in enumerate(keys):
        terms = g[name].terms[alpha].mats
        end = len(terms)
        odd = flags.eta_p == -1 and index_order(alpha) % 2 == 1
        scalars[c, :, :end] = -flipped[name][alpha] if odd else flipped[name][alpha]
        scalars[c, :, width : width + end] = plain[name][alpha]
        mats[c, :end, 0] = terms
        mats[c, width : width + end, 1] = op.generator_sign(name) * terms
    if flags.conj:
        scalars[:, :, :width] = scalars[:, :, :width].conj()
        mats[:, :width, 0] = mats[:, :width, 0].conj()
    return _ConstraintBlocks(scalars, mats)


def _compressed_samples(blocks: np.ndarray) -> np.ndarray:
    """Rows z = (vec A, sign vec B) whose Gram matrix is, up to a dropped
    weight below COMPRESSION_TOL, that of every block's samples.

    Each block's samples are rotated onto the eigenvectors of x x^H, one
    batched eigh over all blocks, which gathers their weight in as many rows
    as the block has numerical rank (1 for a block that is the same at every
    sample: the sample times sqrt(n), none for an all-zero block); the
    lightest rows, of total norm below COMPRESSION_TOL |x|, are dropped.
    """
    x = blocks.reshape(blocks.shape[0], blocks.shape[1], -1)
    _, u = np.linalg.eigh(x @ x.conj().transpose(0, 2, 1))
    z = u.conj().transpose(0, 2, 1) @ x
    weight = np.cumsum(np.sum(np.abs(z) ** 2, axis=2), axis=1)
    cut = (COMPRESSION_TOL * np.linalg.norm(x, axis=(1, 2))) ** 2
    return z[weight > cut[:, None]]


def build_constraints(blocks: _ConstraintBlocks) -> np.ndarray:
    """A d^2 x d^2 factor R, R^H R = A^H A, of the stacked system A on the
    row-major entries of q, from the blocks of `_constraint_blocks`.

    A^H A depends only on the Gram matrix of the pairs (A, sign B), and each
    block's pairs are its n x J scalar matrix C times constant pairs V, so the
    QR factor of C and then `_compressed_samples` cut them to the block's
    numerical rank; the dropped weight moves no singular value of A by more
    than sqrt(2) * COMPRESSION_TOL times the norm of all the pairs.  Every
    coefficient is block diagonal over `_index_classes`, so q A = B q splits
    into q_xy a_y - b_x q_xy per submatrix q_xy of q (row class x, column
    class y).  One batched QR factors all of them; R holds each factor on
    its submatrix's columns, in as many of those rows as the factor has.
    """
    scalars, mats = blocks
    count, width, _, d, _ = mats.shape
    classes = _index_classes(mats.any(axis=(0, 1, 2)))
    m, s = classes.shape
    r = np.linalg.qr(scalars, mode="r")
    z = _compressed_samples((r @ mats.reshape(count, width, -1)).reshape(count, -1, 2, d, d))
    pairs = z.reshape(-1, 2, d, d)[:, :, classes[:, :, None], classes[:, None, :]]
    eye = np.eye(s)
    # row (n, i, k) of q_xy a_y - b_x q_xy on entry (j, l) of q_xy
    left = np.einsum("ij,nylk->ynikjl", eye, pairs[:, 0])
    right = np.einsum("nxij,kl->xnikjl", pairs[:, 1], eye)
    systems = (left[None] - right[:, None]).reshape(m * m, -1, s * s)
    factor = np.linalg.qr(systems, mode="r")
    members = (classes[:, None, :, None] * d + classes[None, :, None, :]).reshape(m * m, s * s)
    out = np.zeros((d * d, d * d), dtype=complex)
    out[members[:, : factor.shape[1], None], members[:, None, :]] = factor
    return out


def _witness_residual(q: np.ndarray, blocks: _ConstraintBlocks) -> float:
    """max over blocks and samples of |q A - sign B q|, summed term by term:
    q A - sign B q = sum_j scalars_j (q V_j0 - V_j1 q)."""
    scalars, mats = blocks
    terms = q @ mats[:, :, 0] - mats[:, :, 1] @ q
    return float(np.max(np.abs(scalars @ terms.reshape(*terms.shape[:2], -1))))


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


def _select_witness(basis, blocks, rng, tol):
    """(witness, residual, involution scale) from an orthonormal basis of the
    nullspace N; (None, residual, None) when the invertible element found
    misses tol, and (None, None, None) when no invertible element turns up.

    One d x d complex Gaussian is drawn and projected orthogonally onto N, so
    the element depends on N and not on the basis that spans it.  Its polar
    factor q0 is unitary and still in N, w = q0^2 is a unitary element of the
    commutant that commutes with q0, and q = w^(-1/2) q0 is a unitary element
    of N with q^2 = 1.  If q fails validation, the projected element is
    reported without an involution scale, if its residual is below tol.
    """
    d = basis[0].shape[0]
    flat = np.reshape(basis, (len(basis), d * d))
    draw = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    raw = (flat.T @ (flat.conj() @ draw)).reshape(d, d)
    u, _, vh = np.linalg.svd(raw)
    q0 = u @ vh
    q = _normalized(_inverse_sqrt(q0 @ q0) @ q0)
    if abs(np.linalg.det(q)) > DET_TOL:
        residual = _witness_residual(q, blocks)
        lam = _involution_scale(q, tol)
        if residual < tol and lam is not None:
            return q, residual, lam
    raw = _normalized(raw)
    if abs(np.linalg.det(raw)) > DET_TOL:
        residual = _witness_residual(raw, blocks)
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
    points=None,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ClassificationResult:
    """Decide invariance of a generator set under one discrete operator."""
    check_settings(seed=seed, tol=tol, rank_tol=rank_tol)
    if isinstance(op, str):
        op = get_op(op)
    if points is None:
        points = sample_points(seed=seed)
    samples = _SampleSet.of(points)
    d = g.dim
    blocks = _constraint_blocks(g, op, samples)
    _, singular, vh = np.linalg.svd(build_constraints(blocks), full_matrices=False)

    sigma_max = float(singular[0])
    threshold = rank_tol * sigma_max
    indeterminate = bool(
        np.any((singular > threshold / RANK_GUARD) & (singular < threshold * RANK_GUARD))
    )
    basis = [vh[i].reshape(d, d) for i, s in enumerate(singular) if s < threshold]
    witness = residual = scale = None
    if basis and not indeterminate:
        rng = np.random.default_rng(
            [seed, zlib.crc32(g.rep.kind.encode()), zlib.crc32(op.name.encode())]
        )
        witness, residual, scale = _select_witness(basis, blocks, rng, tol)
        # an invertible element whose residual misses tol decides nothing
        indeterminate = witness is None and residual is not None
    return ClassificationResult(
        g.rep.kind, op.name, witness is not None, indeterminate, len(basis),
        witness, residual, scale, float(singular[-1]), sigma_max,
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
    points=None,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ClassificationTable:
    """Classify all nine discrete operators against one representation."""
    check_settings(seed=seed, tol=tol, rank_tol=rank_tol)
    g = rep if isinstance(rep, GeneratorSet) else build_generators(rep)
    if points is None:
        points = sample_points(seed=seed)
    samples = _SampleSet.of(points)
    rows = {}
    for name in OP_ORDER:
        result = classify(g, get_op(name), samples, rank_tol, tol, seed)
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


def intertwining_check(points=None, tol: float = DEFAULT_TOL) -> IntertwiningReport:
    """The parity and mass-flip witnesses of the canonical 8-dim set swap the
    two su(2) actions; the linear time-flip witness centralizes them."""
    g = build_generators("canonical8")
    if points is None:
        points = sample_points()
    samples = _SampleSet.of(points)
    spin = cached_spin(8)
    witnesses = {}
    missing = []
    for name in ("P1", "M", "T1"):
        result = classify(g, get_op(name), samples, tol=tol)
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
            if relation == "swap":
                dev = w @ spin.S[a] - spin.T[a] @ w
            else:
                dev = w @ spin.S[a] - spin.S[a] @ w
            worst = max(worst, float(np.max(np.abs(dev))))
        residuals[f"{name}_{relation}"] = worst
    return IntertwiningReport(residuals, missing, tol)
