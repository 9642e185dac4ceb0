"""Sample points and symbolic operator algebra that the tests hold the package to.

The package builds every generator in closed form and decides identities
between generators exactly (`operators.commutator` and the mass-shell normal
form, the monomial constraint system); it never draws or evaluates a point.
This module is the independent, sampled reference for those results: seeded
sample points in (p, m, t), the evaluation of expressions and operator
coefficients at them, operator sums and scalings, the position operator, the
full Leibniz-rule composition (coefficients multiplied sum by sum, for any
order), symbolic commutators, formal adjoints, the substitution-flag
conjugation R g R^-1, per-multi-index comparison of operators at sample
points, the two unitary transforms at sample points (the package holds only
their numerators) and the energy at a sample point.  It also holds the
monomial equations as complex pairs, built here from `Coefficient.on_shell`
with each flag sign taken variable by variable, and the complex-float
witness residual over them, the reference for the classifier's exact
residual in Z[i]; the float reference for the classifier's exact rank: one
SVD of the dense system of every monomial equation over all d^2 entries of
q, with a relative rank threshold; the dense reference for its witness
search, which forms every product in full; the quartet-by-quartet reference
for the label completeness rule; and the label syntax read with Fraction
spins, the reference for the package's parser of integer spins 2s.  Last, the
exact checks of the canonical eight-component set that no command runs: the
Lagrange-Sylvester spectral projector, its Casimir spectra, its four
invariant subspaces and the intertwining relations of its witnesses.

Cancellations (for example the second-order pieces of a commutator of two
first-order operators) are detected numerically: after every composition the
coefficient matrices are probed at a fixed set of generic points and terms
that vanish there are dropped.  The derivative order of any surviving term is
capped at two, which is all the generator algebra ever needs.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice, product
from typing import NamedTuple

import numpy as np

from ptclab.classify import SIGN_CLASSES, classify, get_op
from ptclab.clifford import (
    cached_basis,
    cached_spin,
    combine,
    dense,
    eye,
    mat_add,
    mat_mul,
    mat_scale,
    matmul,
    sparse,
    trace,
)
from ptclab.expr import LAURENT_VARS, ONE, Expr
from ptclab.generators import (
    GENERATOR_CLASS,
    _canonical_numerator,
    _connector_numerator,
    _shell_residual,
    build_generators,
)
from ptclab.labels import CANONICAL8_CONTENT
from ptclab.operators import (
    Coefficient,
    FlagTransform,
    MomentumOperator,
    commutator,
    index_add,
    index_order,
)
from ptclab.vocabulary import DEFAULT_SEED

MAX_ORDER = 2
PRUNE_TOL = 1e-10
I_UNIT = 1j * ONE

# ---------------------------------------------------------------------------
# sample points and evaluation

SAMPLE_COUNT = 20
MOMENTUM_RANGE = 2.0
MIN_COMPONENT = 1e-3


class Point(NamedTuple):
    p1: float
    p2: float
    p3: float
    m: float
    t: float


def sample_points(
    count: int = SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
    masses: tuple = (1.0, 1.7),
    times: tuple = (0.0, 0.6),
) -> list:
    """Draw `count` reproducible sample points.

    Momentum components are uniform in [-2, 2]; components with
    |p_a| < MIN_COMPONENT are rejected and redrawn, so rational coefficients
    in p, m, E stay away from their singular set.  Masses and times cycle
    through small fixed menus.  Pass masses=(0.0,) for massless sampling;
    the momentum guard keeps |p| bounded away from zero there as well.
    """
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = rng.uniform(-MOMENTUM_RANGE, MOMENTUM_RANGE, size=3)
        if np.any(np.abs(p) < MIN_COMPONENT):
            continue
        i = len(points)
        m = masses[i % len(masses)]
        t = times[(i // len(masses)) % len(times)]
        points.append(Point(float(p[0]), float(p[1]), float(p[2]), float(m), float(t)))
    return points


def env_arrays(points) -> dict:
    """Stack points into a vectorized evaluation environment: p1, p2, p3, m,
    t and the energy E."""
    arr = {
        name: np.array([getattr(pt, name) for pt in points], dtype=float)
        for name in ("p1", "p2", "p3", "m", "t")
    }
    arr["E"] = np.sqrt(arr["p1"] ** 2 + arr["p2"] ** 2 + arr["p3"] ** 2 + arr["m"] ** 2)
    return arr


def monomials(exps, env) -> np.ndarray:
    """The monomials with exponent rows exps (B, 6), ordered as LAURENT_VARS,
    over a batch of samples: shape env-shape + (B,)."""
    values = np.stack([np.asarray(env[name], dtype=float) for name in LAURENT_VARS], axis=-1)
    return np.prod(values[..., None, :] ** np.asarray(exps), axis=-1)


def arrays(x):
    """(exps, coeffs): the exponent rows (K, 6) and the coefficients, (K,)
    or (K, d, d), of an expression or coefficient as numpy arrays."""
    shape = (x.dim, x.dim) if isinstance(x, Coefficient) else ()
    exps = np.asarray(x.exps, dtype=int).reshape(-1, len(LAURENT_VARS))
    return exps, np.asarray(x.coeffs, dtype=complex).reshape((-1,) + shape)


def from_arrays(like, exps, coeffs):
    """An expression of like's class, and size, from numpy rows."""
    if isinstance(like, Coefficient):
        return Coefficient.from_rows(exps, coeffs, like.dim)
    return Expr(exps, coeffs)


def evaluate(x, env) -> np.ndarray:
    """The value of an expression or coefficient over env, a mapping of
    numbers or arrays holding every name in LAURENT_VARS: shape env-shape +
    coefficient shape."""
    exps, coeffs = arrays(x)
    values = monomials(exps, env)
    flat = coeffs.reshape(len(exps), math.prod(coeffs.shape[1:]))
    return (values @ flat).reshape(values.shape[:-1] + coeffs.shape[1:])


def eval_operator(g: MomentumOperator, env) -> dict:
    """g's coefficients over env, {multi-index: values (n, d, d)}."""
    return {alpha: evaluate(c, env) for alpha, c in g.terms.items()}

# Generic probe points used to decide whether a coefficient matrix vanishes
# identically.  Times are nonzero so t-dependent terms cannot hide.
_PRUNE_ENV = env_arrays(
    sample_points(count=5, seed=0x0ACE, masses=(1.0, 1.7), times=(0.3, 0.7))
)


def canonical_transform_at(env) -> np.ndarray:
    """The unitary U / sqrt(2) that diagonalizes H8 over env, (n, 8, 8), for
    the package's numerator U = 1 + Gamma0 H8 / E."""
    return evaluate(_canonical_numerator(), env) / np.sqrt(2)


def connector_at(env) -> np.ndarray:
    """The unitary connector N / sqrt(2E(E + m)) over env, (n, 4, 4), for the
    package's numerator N = m + E + gamma4 gamma_a p_a."""
    norm = np.sqrt(2 * env["E"] * (env["E"] + env["m"]))
    return evaluate(_connector_numerator(), env) / norm[:, None, None]


def energy(point) -> float:
    """E = sqrt(p1^2 + p2^2 + p3^2 + m^2) at one sample point."""
    return math.sqrt(point.p1 ** 2 + point.p2 ** 2 + point.p3 ** 2 + point.m ** 2)


class OperatorOrderError(ValueError):
    """Raised when a composition leaves a genuine term of order > 2."""


def _subindices(alpha):
    return product(range(alpha[0] + 1), range(alpha[1] + 1), range(alpha[2] + 1))


def _multi_binom(alpha, gamma) -> int:
    return (
        math.comb(alpha[0], gamma[0])
        * math.comb(alpha[1], gamma[1])
        * math.comb(alpha[2], gamma[2])
    )


# ---------------------------------------------------------------------------
# operator arithmetic


def zero(dim: int) -> MomentumOperator:
    return MomentumOperator(dim, {})


def identity(dim: int) -> MomentumOperator:
    return MomentumOperator.scalar(1, dim)


def position(a: int, dim: int) -> MomentumOperator:
    """x_a in momentum space: i d/dp_a with identity matrix coefficient."""
    alpha = tuple(1 if k == a - 1 else 0 for k in range(3))
    return MomentumOperator(dim, {alpha: Coefficient.scalar(I_UNIT, dim)})


def order(op: MomentumOperator) -> int:
    return max((index_order(a) for a in op.terms), default=0)


def plus(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    terms = dict(a.terms)
    for alpha, c in b.terms.items():
        terms[alpha] = terms[alpha] + c if alpha in terms else c
    return MomentumOperator(a.dim, terms)


def scaled(op: MomentumOperator, factor) -> MomentumOperator:
    return MomentumOperator(op.dim, {a: c.scale(factor) for a, c in op.terms.items()})


def minus(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    return plus(a, scaled(b, -1))


def coefficient_product(a: Coefficient, b: Coefficient) -> Coefficient:
    """(sum_k A_k x^a_k)(sum_l B_l x^b_l) = sum_kl (A_k B_l) x^(a_k + b_l): the
    outer sum of the exponent rows, with equal monomials merged."""
    (a_exps, a_mats), (b_exps, b_mats) = arrays(a), arrays(b)
    exps = (a_exps[:, None] + b_exps[None]).reshape(-1, a_exps.shape[1])
    mats = np.einsum("kij,ljm->klim", a_mats, b_mats).reshape(-1, a.dim, a.dim)
    return Coefficient.from_rows(exps, mats, a.dim)


# ---------------------------------------------------------------------------
# substitution and conjugation of expressions


def mapped(expr, f: FlagTransform):
    """Substitute p -> eta_p p, t -> eta_t t, m -> eta_m m and, if f.conj,
    conjugate.  All variables are real and E is even under every flip, so
    monomial x^e gains prod_v sign(v)^e_v: computed here variable by
    variable, not by the package's `flag_signs`."""
    exps, coeffs = arrays(expr)
    per_var = {"p1": f.eta_p, "p2": f.eta_p, "p3": f.eta_p, "m": f.eta_m, "t": f.eta_t}
    base = np.array([per_var.get(name, 1) for name in LAURENT_VARS])
    coeffs = coeffs.conj() if f.conj else coeffs
    signs = np.prod(base ** np.abs(exps), axis=1)
    return from_arrays(expr, exps, signs.reshape((-1,) + (1,) * (coeffs.ndim - 1)) * coeffs)


def conjugated(expr):
    """Complex conjugate of an expression in real variables."""
    return mapped(expr, FlagTransform(conj=True))


def dagger(c: Coefficient) -> Coefficient:
    """Hermitian adjoint of a coefficient in real variables."""
    exps, mats = arrays(c)
    return Coefficient.from_rows(exps, mats.conj().transpose(0, 2, 1), c.dim)


# ---------------------------------------------------------------------------
# composition, brackets, flags


def _prune(raw: dict) -> dict:
    kept = {}
    for alpha, c in raw.items():
        if np.max(np.abs(evaluate(c, _PRUNE_ENV))) >= PRUNE_TOL:
            kept[alpha] = c
    return kept


def _check_order(raw: dict):
    for alpha in raw:
        if index_order(alpha) > MAX_ORDER:
            raise OperatorOrderError(
                f"term of derivative order {index_order(alpha)} survives; "
                f"orders above {MAX_ORDER} are not supported"
            )


def _compose_raw(a: MomentumOperator, b: MomentumOperator) -> dict:
    out: dict = {}
    diff_cache: dict = {}
    for alpha, ac in a.terms.items():
        for beta, bc in b.terms.items():
            for gamma in _subindices(alpha):
                delta = (alpha[0] - gamma[0], alpha[1] - gamma[1], alpha[2] - gamma[2])
                key = (id(bc), delta)
                dc = diff_cache.get(key)
                if dc is None:
                    dc = bc
                    for k, reps in enumerate(delta):
                        for _ in range(reps):
                            dc = dc.diff(f"p{k + 1}")
                    diff_cache[key] = dc
                coeff = _multi_binom(alpha, gamma)
                contrib = coefficient_product(ac, dc)
                if coeff != 1:
                    contrib = contrib.scale(coeff)
                target = index_add(gamma, beta)
                out[target] = out[target] + contrib if target in out else contrib
    return out


def compose(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    """Operator product with the full product rule."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    raw = _prune(_compose_raw(a, b))
    _check_order(raw)
    return MomentumOperator(a.dim, raw)


def bracket(a: MomentumOperator, b: MomentumOperator) -> MomentumOperator:
    """AB - BA; cancellation of the top-order pieces is detected numerically.

    The package's exact `operators.commutator` is held to this general
    Leibniz-rule form.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    raw = _compose_raw(a, b)
    for alpha, c in _compose_raw(b, a).items():
        c = c.scale(-1)
        raw[alpha] = raw[alpha] + c if alpha in raw else c
    raw = _prune(raw)
    _check_order(raw)
    return MomentumOperator(a.dim, raw)


def apply_flags(g: MomentumOperator, f: FlagTransform) -> MomentumOperator:
    """Conjugate by the substitution map R: returns R g R^-1.

    Coefficients get their variables sign-flipped (`mapped`), each
    derivative picks up a factor eta_p, and for antilinear R the matrices
    are conjugated.
    """
    terms = {}
    for alpha, c in g.terms.items():
        new = mapped(c, f)
        if f.eta_p == -1 and index_order(alpha) % 2 == 1:
            new = new.scale(-1)
        terms[alpha] = new
    return MomentumOperator(g.dim, terms)


def adjoint(g: MomentumOperator) -> MomentumOperator:
    """Formal adjoint: (M d^alpha)^dagger = (-1)^|alpha| d^alpha M^dagger."""
    raw: dict = {}
    for alpha, c in g.terms.items():
        dop = MomentumOperator(g.dim, {alpha: Coefficient.scalar(1, g.dim)})
        contrib = _compose_raw(dop, MomentumOperator.from_matrix(dagger(c)))
        sign = -1 if index_order(alpha) % 2 else 1
        for idx, m in contrib.items():
            m = m.scale(sign) if sign == -1 else m
            raw[idx] = raw[idx] + m if idx in raw else m
    raw = _prune(raw)
    _check_order(raw)
    return MomentumOperator(g.dim, raw)


def equal_at(a: MomentumOperator, b: MomentumOperator, points, tol: float = 1e-9):
    """Compare coefficient matrices per multi-index at every sample point.

    Returns (equal, max_residual).
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    env = env_arrays(points)
    residual = 0.0
    for alpha in set(a.terms) | set(b.terms):
        va, vb = (evaluate(op.terms[alpha], env) if alpha in op.terms else 0 for op in (a, b))
        residual = max(residual, float(np.max(np.abs(va - vb))))
    return residual < tol, residual


# ---------------------------------------------------------------------------
# the monomial equations as complex pairs, and the float reference for the
# classifier's rank

RANK_TOL = 1e-8


class MonomialBlock(NamedTuple):
    """One (generator, multi-index) block of a generator set in normal form:
    E^shift times the block is sum over terms {exps: matrix} of matrix x^exps,
    the exponents ordered as LAURENT_VARS."""

    name: str
    alpha: tuple
    shift: int
    terms: dict


def monomial_blocks(g) -> list:
    """The blocks of g in its generator order, multi-indices sorted within a
    generator, each put in normal form by `Coefficient.on_shell`."""
    blocks = []
    for name, gen in g.items():
        for alpha in sorted(gen.terms):
            shift, form = gen.terms[alpha].on_shell()
            blocks.append(MonomialBlock(name, alpha, shift, form.terms))
    return blocks


def monomial_pairs(g, op) -> list:
    """Per monomial equation of g, block by block as `monomial_blocks`, the
    sparse complex pair (a, b) of the flagged matrix
    eta_p^(|a|+|alpha|) eta_t^gamma eta_m^beta [conj] N and sign(G) N, under
    the discrete operator op.

    The coefficient of R G R^-1 at x is [conj] coeff(eta.x) eta_p^|alpha|,
    all variables are real and E is even, so monomial by monomial it is the
    flagged matrix times x^b, over the same E^shift as G's own block: the
    condition q (R G R^-1) = sign(G) G q holds for all (p, m, t) iff
    q a = b q holds for every pair (a, b).  The flag sign is taken here,
    variable by variable: a space flip flips p and conjugation flips it
    again."""
    eta_p = op.eta_x * (-1 if op.conj else 1)
    per_var = {"p1": eta_p, "p2": eta_p, "p3": eta_p, "m": op.eta_m, "t": op.eta_t}
    pairs = []
    for block in monomial_blocks(g):
        sign = op.signs[SIGN_CLASSES.index(GENERATOR_CLASS[block.name])]
        for exps, mat in block.terms.items():
            flag = eta_p ** sum(block.alpha)
            for name, k in zip(LAURENT_VARS, exps):
                flag *= per_var.get(name, 1) ** abs(k)
            flagged = {key: v.conjugate() for key, v in mat.items()} if op.conj else mat
            pairs.append((mat_scale(flagged, flag), mat_scale(mat, sign)))
    return pairs


def complex_witness_residual(q, pairs) -> float:
    """max over the monomial equations (a, b) of pairs of |q a - b q|, in
    complex floats, each distinct pair taken once: the reference for the
    classifier's exact residual."""
    q = sparse(q)
    distinct = {(frozenset(a.items()), frozenset(b.items())): (a, b) for a, b in pairs}
    deviations = (
        mat_add(mat_mul(q, a), mat_scale(mat_mul(b, q), -1)) for a, b in distinct.values()
    )
    return max((abs(v) for dev in deviations for v in dev.values()), default=0.0)


def dense_pairs(pairs, dim: int) -> np.ndarray:
    """(equations, 2, d, d): the classifier's sparse (a, b) pairs as arrays."""
    out = np.array([[dense(a, dim), dense(b, dim)] for a, b in pairs], dtype=complex)
    return out.reshape(-1, 2, dim, dim)


def stacked_system(pairs: np.ndarray) -> np.ndarray:
    """The dense system q a - b q = 0 over every pair (a, b) of pairs
    (equations, 2, d, d), on the row-major entries of q: row (n, i, k) is
    entry (i, k) of equation n."""
    d = pairs.shape[-1]
    left = np.einsum("ij,nlk->nikjl", np.eye(d), pairs[:, 0])
    right = np.einsum("nij,kl->nikjl", pairs[:, 1], np.eye(d))
    return (left - right).reshape(-1, d * d)


def float_nullity(pairs: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """The nullity of the stacked system, decided on one SVD: the d^2
    unknowns less the singular values above rank_tol times the largest."""
    singular = np.linalg.svd(stacked_system(pairs), compute_uv=False)
    return pairs.shape[-1] ** 2 - int(np.sum(singular >= rank_tol * singular.max(initial=0.0)))


# ---------------------------------------------------------------------------
# the dense reference for the classifier's witness search


def gaussian_dot(u, v) -> tuple:
    """sum_k u_k v_k for Gaussian-integer vectors u, v of (re, im)."""
    return (
        sum(a * c - b * d for (a, b), (c, d) in zip(u, v)),
        sum(a * d + b * c for (a, b), (c, d) in zip(u, v)),
    )


def scalar_multiple(rows):
    """s when the dense Gaussian-integer matrix `rows` is s 1, else None."""
    s = rows[0][0]
    wanted = ((v, s if i == j else (0, 0)) for i, row in enumerate(rows) for j, v in enumerate(row))
    return s if all(v == want for v, want in wanted) else None


def dense_scalar_product(u, v):
    """s when the product of the dense Gaussian-integer matrices u v is s 1,
    else None, from the full product."""
    columns = list(zip(*v))
    return scalar_multiple([[gaussian_dot(row, column) for column in columns] for row in u])


def dense_select_witness(basis: list, d: int, conj: bool, units, candidates: int):
    """The witness search on dense matrices: (W, lambda) for the first
    combination W of the basis vectors {(i, j): (re, im)}, with coefficients
    in units in `itertools.product` order, such that W W^H = c 1 with c > 0
    and W W (W conj(W) when conj) = lambda c 1; None if none of the first
    `candidates` qualifies.  W is a tuple of rows of complex."""
    for coeffs in islice(product(units, repeat=len(basis)), candidates):
        w = [[(0, 0)] * d for _ in range(d)]
        for (cr, ci), vector in zip(coeffs, basis):
            for (i, j), (re, im) in vector.items():
                w[i][j] = (w[i][j][0] + cr * re - ci * im, w[i][j][1] + cr * im + ci * re)
        bar = [[(re, -im) for re, im in row] for row in w]
        scale = dense_scalar_product(w, list(zip(*bar)))
        if scale is None or scale == (0, 0):
            continue
        square = dense_scalar_product(w, bar if conj else w)
        if square is not None:
            witness = tuple(tuple(complex(*v) for v in row) for row in w)
            return witness, complex(*square) / scale[0]
    return None


# ---------------------------------------------------------------------------
# the quartet-by-quartet reference for the label completeness rule


def quartet_ptc_complete(labels) -> bool:
    """True iff the multiset splits into the required partner groups, decided
    group by group: for s != tau a full quadruple {both energy signs} x
    {(s, tau), (tau, s)} with equal counts, for s == tau the pair of energy
    signs with equal counts."""
    counts = Counter((lab.energy_sign, lab.two_s, lab.two_tau) for lab in labels)
    done = set()
    for (_, s, tau) in list(counts):
        key = (min(s, tau), max(s, tau))
        if key in done:
            continue
        done.add(key)
        if s == tau:
            if counts[(1, s, s)] != counts[(-1, s, s)]:
                return False
        else:
            quartet = [
                counts[(sign, a, b)]
                for sign in (1, -1)
                for (a, b) in ((s, tau), (tau, s))
            ]
            if len(set(quartet)) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# the Fraction reference for the label syntax


class ReferenceParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _reference_half_integer(value) -> Fraction:
    frac = Fraction(value)
    if frac < 0 or frac.denominator not in (1, 2):
        raise ValueError(f"{value!r} is not a non-negative half-integer")
    return frac


def _reference_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def reference_parse_labels(text: str) -> list:
    """The labels of a sum "D+(1/2,0)+D-(0,1/2)" as the strings "D+(1/2,0)",
    each spin read as a Fraction and checked to be a non-negative
    half-integer; ReferenceParseError with the message and position the
    package's parser must give."""
    labels = []
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def expect(j, char):
        j = skip_ws(j)
        if j >= n or text[j] != char:
            raise ReferenceParseError(f"expected {char!r}", j)
        return j + 1

    def read_fraction(j):
        j = skip_ws(j)
        start = j
        while j < n and (text[j].isdigit() or text[j] == "/"):
            j += 1
        token = text[start:j]
        if not token:
            raise ReferenceParseError("expected a half-integer", start)
        try:
            value = _reference_half_integer(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise ReferenceParseError(f"malformed half-integer {token!r}", start) from None
        return value, j

    while True:
        i = skip_ws(i)
        if i >= n or text[i] != "D":
            raise ReferenceParseError("expected 'D'", i)
        i += 1
        i = skip_ws(i)
        if i >= n or text[i] not in "+-":
            raise ReferenceParseError("expected '+' or '-' after 'D'", i)
        sign = text[i]
        i += 1
        i = expect(i, "(")
        s, i = read_fraction(i)
        i = expect(i, ",")
        tau, i = read_fraction(i)
        i = expect(i, ")")
        labels.append(f"D{sign}({_reference_text(s)},{_reference_text(tau)})")
        i = skip_ws(i)
        if i >= n:
            return labels
        if text[i] != "+":
            raise ReferenceParseError("expected '+' between labels", i)
        i += 1


# ---------------------------------------------------------------------------
# exact checks of the canonical eight-component set that no command runs


def _lagrange_sylvester(mat, eigenvalue: float, spectrum) -> tuple:
    """(N, c) = (prod (M - mu), prod (eigenvalue - mu)) over the values
    mu != eigenvalue of `spectrum`, N sparse, so that N / c projects onto the
    eigenvalue's eigenspace (Lagrange-Sylvester; Higham, Functions of
    Matrices, SIAM 2008, sec. 1.2).  The entries are small dyadic rationals,
    so every float product is exact.  ValueError unless the product over the
    whole spectrum, (M - eigenvalue) N, is exactly zero and N N == c N."""
    m, one = sparse(mat), sparse(eye(len(mat)))
    others = [mu for mu in spectrum if mu != eigenvalue]
    numerator = reduce(mat_mul, (mat_add(m, mat_scale(one, -mu)) for mu in others), one)
    scale = math.prod(eigenvalue - mu for mu in others)
    if mat_mul(mat_add(m, mat_scale(one, -eigenvalue)), numerator):
        raise ValueError(f"the matrix has an eigenvalue outside {spectrum}")
    if mat_mul(numerator, numerator) != mat_scale(numerator, scale):
        raise ValueError(f"N N != c N for the eigenvalue {eigenvalue}")
    return numerator, scale


def spectral_projector(mat, eigenvalue: float, spectrum) -> tuple:
    """N / c for a matrix whose eigenvalues lie in `spectrum`: the projector
    onto the eigenspace of `eigenvalue`, orthogonal if the matrix is
    hermitian.  ValueError if the eigenspace is empty or N / c is not exact."""
    numerator, scale = _lagrange_sylvester(mat, eigenvalue, spectrum)
    if not numerator:
        raise ValueError(f"{eigenvalue} is not an eigenvalue")
    proj = {key: n / scale for key, n in numerator.items()}
    exact = Fraction(scale)
    for n, q in set(zip(numerator.values(), proj.values())):
        if (Fraction(q.real) * exact, Fraction(q.imag) * exact) != (n.real, n.imag):
            raise ValueError(f"N / {scale} is not exact for the eigenvalue {eigenvalue}")
    return dense(proj, len(mat))


def casimir_spectrum(gens) -> dict:
    """How often S^2 and T^2 of the spin generators gens take each value
    s(s+1) with 2s + 1 <= d, as the exact integer trace(N) / c of the
    Lagrange-Sylvester numerator N; AssertionError if an
    eigenvalue is not one."""
    values = [k * (k + 2) / 4 for k in range(gens.dim)]  # s = k / 2
    out = {}
    for name, mat in (("s_squared", gens.s_squared), ("t_squared", gens.t_squared)):
        out[name] = {}
        for value in values:
            try:
                numerator, scale = _lagrange_sylvester(mat, value, values)
            except ValueError as exc:
                raise AssertionError(f"{name}: {exc}") from None
            diagonal = sum(numerator.get((i, i), 0) for i in range(gens.dim))
            count = diagonal.real / scale
            # fmod is exact, so it is 0 iff trace(N) / c is an integer
            if diagonal.imag or math.fmod(diagonal.real, scale):
                raise AssertionError(f"{name}: {value} has multiplicity {count}")
            if count:
                out[name][value] = int(count)
    return out


class SubspaceReport(NamedTuple):
    blocks: list  # (projector, IrrepLabel)
    complete: bool


def subspace_decomposition() -> SubspaceReport:
    """Rank-2 projectors labelled by energy sign and by which Casimir is excited.

    Each projector is the product of a spectral projector of Gamma0 (spectrum
    +-1) with one of S^2 or T^2 (spectrum 0, 3/4), and must commute exactly
    with all ten canonical generators: a projector whose trace is not its
    label's dimension, or one that fails to commute, raises AssertionError.
    """
    g = build_generators("canonical8")
    basis = cached_basis(8)
    spin = cached_spin(8)

    blocks = []
    for label in CANONICAL8_CONTENT:
        sign_proj = spectral_projector(basis.gamma0, label.energy_sign, (1, -1))
        casimir = spin.s_squared if label.two_s else spin.t_squared
        proj = matmul(sign_proj, spectral_projector(casimir, 0.75, (0, 0.75)))
        if trace(proj) != label.dimension:
            raise AssertionError(
                f"projector for {label} has trace {trace(proj)}, expected {label.dimension}"
            )
        blocks.append((proj, label))

    projectors = [MomentumOperator.from_matrix(Coefficient.constant(proj)) for proj, _ in blocks]
    worst = max(
        _shell_residual(commutator(proj, op).terms.values())
        for op in g.ops.values()
        for proj in projectors
    )
    if worst != 0.0:
        raise AssertionError(
            f"a subspace projector fails to commute with the generators "
            f"(residual {worst})"
        )
    complete = combine(*((1, proj) for proj, _ in blocks)) == eye(8)
    return SubspaceReport(blocks, complete)


class IntertwiningReport(NamedTuple):
    residuals: dict  # relation label -> float
    missing: list

    @property
    def ok(self) -> bool:
        return not self.missing and all(r == 0.0 for r in self.residuals.values())


def intertwining_check() -> IntertwiningReport:
    """The parity and mass-flip witnesses of the canonical 8-dim set swap the
    two su(2) actions; the linear time-flip witness centralizes them.  Every
    product is exact, so each relation holds iff its residual is 0.0."""
    g = build_generators("canonical8")
    spin = cached_spin(8)
    residuals = {}
    missing = []
    for name, relation in (("P1", "swap"), ("M", "swap"), ("T1", "commute")):
        result = classify(g, get_op(name))
        if result.witness is None:
            missing.append(f"{name}: no witness ({result.nullspace_dim=})")
            continue
        w = sparse(result.witness)
        worst = 0.0
        for a in range(3):
            s, t = sparse(spin.S[a]), sparse(spin.T[a])
            dev = mat_add(mat_mul(w, s), mat_scale(mat_mul(t if relation == "swap" else s, w), -1))
            worst = max([worst] + [abs(v) for v in dev.values()])
        residuals[f"{name}_{relation}"] = worst
    return IntertwiningReport(residuals, missing)
