"""Discrete-symmetry classification by constant-intertwiner nullspaces.

A discrete operator is a substitution map R (space flip, time flip, mass
flip, optional complex conjugation) times an unknown constant matrix q.
Demanding the stated (anti)commutation sign with every generator G turns into
the linear condition

    q * (R G R^-1) = sign(G) * G * q

per derivative multi-index and per sample point.  All variables are real and
the energy E is even, so the coefficient of R G R^-1 at a point x is read off
the coefficient of G at the reflected point eta.x: it is
[conj] coeff(eta.x) * eta_p^|alpha|.  Each generator is therefore evaluated
once per reflection signature (eta_p, eta_t, eta_m), shared by every
operator classified on the same sample set.

Stacking all conditions gives one homogeneous system A on the d^2 entries
of q.  It is never formed.  Its rows are linear in the coefficient pairs, so
A^H A depends only on their Gram matrix over the samples, and each
multi-index's samples compress to as many rows as that Gram matrix has
numerical rank.  The rank decision is an SVD of the d^2 x d^2 QR factor R of
the rows of the compressed samples: R^H R = A^H A, so R has the singular
values and right singular vectors of A.  The symmetry holds iff
the nullspace contains an invertible element.  Rank decisions use a singular
value threshold with a guard band: anything ambiguous is flagged instead of
silently classified.

The subsidiary position-operator conditions hold identically for constant
matrices (the flagged position operator is exactly eta_x times itself), which
is why q may be taken momentum independent in the first place.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .clifford import cached_spin
from .generators import GENERATOR_CLASS, GeneratorSet, RepId, build_generators
from .operators import FlagTransform, eval_operator, index_order
from .sampling import (
    DEFAULT_RANK_TOL,
    DEFAULT_SEED,
    DEFAULT_TOL,
    check_settings,
    env_arrays,
    sample_points,
)

SIGN_CLASSES = ("P0", "Pa", "Jab", "J0a")
RANK_GUARD = 10.0
DET_TOL = 1e-6
RANDOM_CANDIDATES = 64
# weight a block's compressed samples may drop, relative to the block's norm:
# a few rounding errors of its coefficients, far below any rank threshold
COMPRESSION_TOL = 1e-14


@dataclass(frozen=True)
class DiscreteOpSpec:
    """Flag signature plus the per-generator commute/anticommute table."""

    name: str
    eta_x: int = 1
    eta_t: int = 1
    eta_m: int = 1
    conj: bool = False
    signs: tuple = (1, 1, 1, 1)  # ordered as SIGN_CLASSES

    def sign(self, generator_class: str) -> int:
        return self.signs[SIGN_CLASSES.index(generator_class)]

    def generator_sign(self, generator_name: str) -> int:
        return self.sign(GENERATOR_CLASS[generator_name])


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

OP_ORDER = ("P1", "P2", "T1", "T2", "C", "M", "Mt", "Mx", "P1T2")


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
    """Sample points that keep each generator set's coefficients at their
    reflected copies, so every operator classified on them shares one
    evaluation per reflection signature (eta_p, eta_t, eta_m)."""

    def __init__(self, points):
        super().__init__(points)
        if not self:
            raise ValueError("classification needs at least one sample point")
        self.env = env_arrays(self)
        self._coeffs = {}  # (generator set, signature) -> name -> alpha -> (n, d, d)

    @classmethod
    def of(cls, points) -> "_SampleSet":
        return points if isinstance(points, cls) else cls(points)

    def reflected(self, g: GeneratorSet, eta: tuple) -> dict:
        key = (g, eta)
        if key not in self._coeffs:
            eta_p, eta_t, eta_m = eta
            env = dict(
                self.env,
                p1=eta_p * self.env["p1"],
                p2=eta_p * self.env["p2"],
                p3=eta_p * self.env["p3"],
                t=eta_t * self.env["t"],
                m=eta_m * self.env["m"],
            )
            self._coeffs[key] = {
                name: eval_operator(gen, env, derivatives=False).coeffs
                for name, gen in g.items()
            }
        return self._coeffs[key]


def _constraint_blocks(g: GeneratorSet, op: DiscreteOpSpec, samples: _SampleSet) -> list:
    """Per (generator, multi-index): (flagged coeffs, coeffs, sign) over samples,
    the flagged ones read off the reflected-point evaluations."""
    flags = momentum_action(op)
    plain = samples.reflected(g, IDENTITY_REFLECTION)
    flipped = samples.reflected(g, (flags.eta_p, flags.eta_t, flags.eta_m))
    blocks = []
    for name in g.ops:
        sign = op.generator_sign(name)
        for alpha, b in sorted(plain[name].items()):
            a = flipped[name][alpha]
            if flags.conj:
                a = a.conj()
            if flags.eta_p == -1 and index_order(alpha) % 2 == 1:
                a = -a
            blocks.append((a, b, sign))
    return blocks


def _compressed_samples(blocks) -> np.ndarray:
    """Rows z = (vec A, sign vec B) whose Gram matrix is, up to a dropped
    weight below COMPRESSION_TOL, that of every block's samples.

    Each block's samples are rotated onto the eigenvectors of x x^H, which
    gathers their weight in as many rows as the block has numerical rank
    (1 for a block that is the same at every sample: the sample times
    sqrt(n)); the lightest rows, of total norm below COMPRESSION_TOL |x|, are
    dropped.  All-zero samples are dropped first.
    """
    out = []
    for a, b, sign in blocks:
        x = np.concatenate([a.reshape(len(a), -1), sign * b.reshape(len(b), -1)], axis=1)
        x = x[x.any(axis=1)]
        if len(x) > 1:
            _, u = np.linalg.eigh(x @ x.conj().T)
            z = u.conj().T @ x
            weight = np.cumsum(np.sum(np.abs(z) ** 2, axis=1))
            x = z[weight > (COMPRESSION_TOL * np.linalg.norm(x)) ** 2]
        out.append(x)
    return np.concatenate(out)


def build_constraints(g: GeneratorSet, op: DiscreteOpSpec, points, *, _blocks=None) -> np.ndarray:
    """Triangular factor R (d^2 x d^2) of the stacked linear system A on the
    d^2 entries of q (row-major vectorization), with R^H R = A^H A.

    R has the singular values and right singular vectors of A.  A's rows at
    one sample are linear in that sample's (A, sign B), so A^H A depends only
    on the Gram matrix of those pairs, and the compressed samples stand in
    for all of them.  The weight they drop moves no singular value of A by
    more than sqrt(2) * COMPRESSION_TOL times the norm of all the pairs.
    """
    blocks = _blocks
    if blocks is None:
        blocks = _constraint_blocks(g, op, _SampleSet.of(points))
    d = g.dim
    z = _compressed_samples(blocks)
    a = z[:, : d * d].reshape(-1, d, d)
    b = z[:, d * d :].reshape(-1, d, d)
    # vec(q A) = (I kron A^T) vec(q); vec(B q) = (B kron I) vec(q)
    eye = np.eye(d)
    rows = np.einsum("ij,nlk->nikjl", eye, a) - np.einsum("nij,kl->nikjl", b, eye)
    rows = rows.reshape(-1, d * d)
    r = np.linalg.qr(rows[rows.any(axis=1)], mode="r")
    if r.shape[0] < d * d:
        r = np.concatenate([r, np.zeros((d * d - r.shape[0], d * d))])
    return r


def _witness_residual(q: np.ndarray, blocks) -> float:
    worst = 0.0
    for a, b, sign in blocks:
        lhs = np.einsum("ab,nbc->nac", q, a)
        rhs = sign * np.einsum("nab,bc->nac", b, q)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


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


def _traceless_vec(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    return (mat - np.trace(mat) / d * np.eye(d)).ravel()


def _scalar_square_roots(qi: np.ndarray, qj: np.ndarray) -> list:
    """Candidate w so that (qi + w qj)^2 is a multiple of the identity."""
    v0 = _traceless_vec(qi @ qi)
    v1 = _traceless_vec(qi @ qj + qj @ qi)
    v2 = _traceless_vec(qj @ qj)
    weights = np.abs(v0) + np.abs(v1) + np.abs(v2)
    roots = []
    for idx in np.argsort(weights)[::-1][:6]:
        c2, c1, c0 = v2[idx], v1[idx], v0[idx]
        if abs(c2) < 1e-13 and abs(c1) < 1e-13:
            continue
        if abs(c2) < 1e-13:
            roots.append(-c0 / c1)
        else:
            roots.extend(np.roots([c2, c1, c0]))
    # deterministic order regardless of which coordinate produced a root
    roots.sort(key=lambda w: (round(abs(w), 9), round(np.angle(w), 9)))
    return roots


def _inverse_sqrt_scale(q: np.ndarray):
    """For a linear operator, rescale q by f(q^2)^(-1/2) inside the commutant."""
    square = q @ q
    values, vectors = np.linalg.eig(square)
    if np.min(np.abs(values)) < 1e-12:
        return None
    try:
        inv_vectors = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        return None
    z = vectors @ np.diag(values ** -0.5) @ inv_vectors
    return z @ q


def _polish_scalar_square(basis, rng, attempts: int = 8):
    """Least-squares search of the nullspace for an element squaring to a scalar.

    Used for nullspaces of dimension > 2 where the pairwise quadratic solve
    cannot reach every direction; every result is validated by the caller.
    """
    from scipy.optimize import least_squares

    k = len(basis)
    d = basis[0].shape[0]
    eye = np.eye(d)

    def residual(x):
        coeff = x[:k] + 1j * x[k:]
        q = sum(c * b for c, b in zip(coeff, basis))
        square = q @ q
        lam = np.trace(square) / d
        dev = (square - lam * eye).ravel()
        return np.concatenate([dev.real, dev.imag, [np.linalg.norm(q) - 1.0]])

    for _ in range(attempts):
        x0 = rng.standard_normal(2 * k)
        try:
            sol = least_squares(residual, x0, method="lm", max_nfev=400)
        except Exception:
            continue
        coeff = sol.x[:k] + 1j * sol.x[k:]
        yield sum(c * b for c, b in zip(coeff, basis))


def _select_witness(basis, blocks, op, rng, tol, det_tol):
    """Pick an invertible nullspace element, preferring one squaring to a scalar."""

    def candidates():
        ordered = sorted(basis, key=lambda q: -abs(np.linalg.det(q)))
        yield from ordered
        k = len(basis)
        for _ in range(RANDOM_CANDIDATES):
            coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            yield sum(c * q for c, q in zip(coeff, basis))

    best_invertible = None
    for raw in candidates():
        q = _normalized(raw)
        if abs(np.linalg.det(q)) <= det_tol:
            continue
        if best_invertible is None:
            best_invertible = q
        lam = _involution_scale(q, tol)
        if lam is not None:
            return q, lam

    if best_invertible is None:
        return None, None

    def _accept(candidate):
        if candidate is None:
            return None
        q = _normalized(candidate)
        if abs(np.linalg.det(q)) <= det_tol:
            return None
        if _witness_residual(q, blocks) >= tol:
            return None
        lam = _involution_scale(q, tol)
        return (q, lam) if lam is not None else None

    if not op.conj:
        accepted = _accept(_inverse_sqrt_scale(best_invertible))
        if accepted:
            return accepted

    for i, j in combinations(range(len(basis)), 2):
        for w in _scalar_square_roots(basis[i], basis[j]):
            accepted = _accept(basis[i] + w * basis[j])
            if accepted:
                return accepted

    if len(basis) > 2:
        for candidate in _polish_scalar_square(basis, rng):
            accepted = _accept(candidate)
            if accepted:
                return accepted

    return best_invertible, None


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassificationResult:
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


def _stable_token(text: str) -> int:
    return zlib.crc32(text.encode())


def classify(
    g: GeneratorSet,
    op,
    points=None,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    det_tol: float = DET_TOL,
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
    factor = build_constraints(g, op, samples, _blocks=blocks)
    _, singular, vh = np.linalg.svd(factor, full_matrices=False)

    sigma_max = float(singular[0])
    threshold = rank_tol * sigma_max
    indeterminate = bool(
        np.any((singular > threshold / RANK_GUARD) & (singular < threshold * RANK_GUARD))
    )
    basis = [vh[i].reshape(d, d) for i, s in enumerate(singular) if s < threshold]
    nullspace_dim = len(basis)
    smallest = float(singular[-1])

    if indeterminate:
        return ClassificationResult(
            g.rep.kind, op.name, False, True, nullspace_dim, None, None, None,
            smallest, sigma_max,
        )
    if nullspace_dim == 0:
        return ClassificationResult(
            g.rep.kind, op.name, False, False, 0, None, None, None,
            smallest, sigma_max,
        )

    rng = np.random.default_rng(
        [seed, _stable_token(g.rep.kind), _stable_token(op.name)]
    )
    witness, scale = _select_witness(basis, blocks, op, rng, tol, det_tol)
    if witness is None:
        return ClassificationResult(
            g.rep.kind, op.name, False, False, nullspace_dim, None, None, None,
            smallest, sigma_max,
        )
    residual = _witness_residual(witness, blocks)
    return ClassificationResult(
        g.rep.kind, op.name, True, False, nullspace_dim, witness, residual, scale,
        smallest, sigma_max,
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


@dataclass
class TableRow:
    result: ClassificationResult
    expectation: str | None  # None means unstated in the source claims

    @property
    def verdict(self) -> str:
        if self.result.indeterminate:
            return "indeterminate"
        return "invariant" if self.result.invariant else "noninvariant"

    @property
    def matches(self):
        if self.expectation is None or self.result.indeterminate:
            return None
        return self.verdict == self.expectation


@dataclass
class ClassificationTable:
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


@dataclass
class IntertwiningReport:
    residuals: dict  # relation label -> float or None when not checkable
    missing: list
    tol: float

    @property
    def ok(self) -> bool:
        return not self.missing and all(r < self.tol for r in self.residuals.values())


def intertwining_check(
    g: GeneratorSet = None,
    points=None,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> IntertwiningReport:
    """The parity and mass-flip witnesses swap the two su(2) actions; the
    linear time-flip witness centralizes them."""
    if g is None:
        g = build_generators(RepId("canonical8"))
    if g.rep.kind != "canonical8":
        raise ValueError("intertwining relations concern the canonical 8-dim set")
    if points is None:
        points = sample_points(seed=seed)
    samples = _SampleSet.of(points)
    spin = cached_spin(8)
    witnesses = {}
    missing = []
    for name in ("P1", "M", "T1"):
        result = classify(g, get_op(name), samples, seed=seed, tol=tol)
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
