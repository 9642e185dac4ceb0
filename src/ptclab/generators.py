"""The five generator sets, the diagonalizing transforms, and algebra checks.

Five realizations of the ten translation/rotation/boost generators are built:
the eight-component Dirac-type set, its canonical (diagonal-Hamiltonian)
form, and the three inequivalent four-component sets.  The canonical form is
constructed directly; the Dirac-type rotations and boosts are obtained by
conjugating the canonical ones with the inverse of the diagonalizing unitary,
which is how the two pictures are related in the first place.

Structure constants are never copied in by hand: they are fitted once, by
least squares over samples, from the spinless orbital realization (identity
matrices, P0 = E) and then imposed on every spinor set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import EPSILON, cached_basis, cached_spin, spectral_projector
from .expr import E as ENERGY, MASS, TIME, Var, add, div, mul, sqrt
from .labels import CANONICAL8_CONTENT, HALF
from .operators import (
    MomentumOperator,
    adjoint,
    bracket_eval,
    compose,
    const_matrix,
    eval_operator,
    identity_matrix,
    mat_add,
    mat_map,
    mat_mul,
    mat_scale,
    max_coeff_residual,
)
from .sampling import DEFAULT_TOL, env_arrays, sample_points

REP_KINDS = ("dirac8", "canonical8", "rep1", "rep2", "rep3")
# the spinless orbital realization that fixes the structure constants; not one
# of the wave equations classified
SCALAR_KIND = "scalar"
GENERATOR_NAMES = ("P0", "P1", "P2", "P3", "J12", "J13", "J23", "J01", "J02", "J03")
GENERATOR_CLASS = {
    "P0": "P0",
    "P1": "Pa",
    "P2": "Pa",
    "P3": "Pa",
    "J12": "Jab",
    "J13": "Jab",
    "J23": "Jab",
    "J01": "J0a",
    "J02": "J0a",
    "J03": "J0a",
}


@dataclass(frozen=True)
class RepId:
    kind: str
    energy_sign: int = 1

    def __post_init__(self):
        if self.kind not in REP_KINDS + (SCALAR_KIND,):
            raise ValueError(f"unknown representation {self.kind!r}")
        if self.energy_sign not in (1, -1):
            raise ValueError("energy sign must be +1 or -1")
        if self.kind not in ("rep1", "rep2", "rep3") and self.energy_sign != 1:
            raise ValueError(f"{self.kind} does not carry an energy-sign flag")

    @property
    def dim(self) -> int:
        if self.kind == SCALAR_KIND:
            return 1
        return 8 if self.kind in ("dirac8", "canonical8") else 4


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    rep: RepId
    ops: dict  # name -> MomentumOperator, keys in GENERATOR_NAMES order

    @property
    def dim(self) -> int:
        return self.rep.dim

    def __getitem__(self, name: str) -> MomentumOperator:
        return self.ops[name]

    def items(self):
        return self.ops.items()


def _spin_term_matrix(entry, a: int, mass_part) -> np.ndarray:
    """(sum_b S_ab p_b + mass_part) / E as an Expr matrix."""
    acc = None
    for b in range(1, 4):
        if b == a:
            continue
        term = mat_scale(const_matrix(entry(a, b)), Var(f"p{b}"))
        acc = term if acc is None else mat_add(acc, term)
    acc = mat_add(acc, mass_part)
    return mat_map(acc, lambda e: div(e, ENERGY))


def _boost_orbital(a: int, ham: MomentumOperator) -> MomentumOperator:
    dim = ham.dim
    xa = MomentumOperator.position(a, dim)
    tpa = MomentumOperator.scalar(mul(TIME, Var(f"p{a}")), dim)
    sym = (compose(xa, ham) + compose(ham, xa)).scale(0.5)
    return tpa - sym


def _rotations(dim: int, spin_entry) -> dict:
    out = {}
    for (a, b) in ((1, 2), (1, 3), (2, 3)):
        xa, xb = MomentumOperator.position(a, dim), MomentumOperator.position(b, dim)
        pa, pb = MomentumOperator.momentum(a, dim), MomentumOperator.momentum(b, dim)
        orbital = compose(xa, pb) - compose(xb, pa)
        out[f"J{a}{b}"] = orbital + MomentumOperator.from_matrix(
            const_matrix(spin_entry(a, b))
        )
    return out


def dirac_hamiltonian8() -> MomentumOperator:
    """Gamma0 Gamma_k p_k with the fourth momentum component playing the mass."""
    basis = cached_basis(8)
    acc = None
    for k in range(1, 5):
        coeff = basis.gamma0 @ basis.gamma(k)
        factor = Var(f"p{k}") if k < 4 else MASS
        term = mat_scale(const_matrix(coeff), factor)
        acc = term if acc is None else mat_add(acc, term)
    return MomentumOperator.from_matrix(acc)


@lru_cache(maxsize=None)
def canonical_transform() -> MomentumOperator:
    """The unitary (1 + Gamma0 H8 / E) / sqrt(2) that diagonalizes H8."""
    basis = cached_basis(8)
    acc = None
    for k in range(1, 5):
        factor = Var(f"p{k}") if k < 4 else MASS
        term = mat_scale(const_matrix(basis.gamma(k)), factor)
        acc = term if acc is None else mat_add(acc, term)
    over_e = mat_map(acc, lambda e: div(e, ENERGY))
    mat = mat_scale(mat_add(identity_matrix(8), over_e), 2 ** -0.5)
    return MomentumOperator.from_matrix(mat)


@lru_cache(maxsize=None)
def fs_transform() -> MomentumOperator:
    """The unitary connector (m + E + gamma4 gamma_a p_a) / sqrt(2E(E+m))."""
    basis = cached_basis(4)
    num = mat_scale(identity_matrix(4), add(MASS, ENERGY))
    for a in range(1, 4):
        coeff = basis.gamma(4) @ basis.gamma(a)
        num = mat_add(num, mat_scale(const_matrix(coeff), Var(f"p{a}")))
    denom = sqrt(mul(2, mul(ENERGY, add(ENERGY, MASS))))
    return MomentumOperator.from_matrix(mat_map(num, lambda e: div(e, denom)))


@lru_cache(maxsize=None)
def _build_cached(kind: str, energy_sign: int) -> GeneratorSet:
    rep = RepId(kind, energy_sign)
    dim = rep.dim
    ops: dict = {}

    if kind == "dirac8":
        canonical = build_generators(RepId("canonical8"))
        u = canonical_transform()
        u_dag = adjoint(u)
        ops["P0"] = dirac_hamiltonian8()
        for a in range(1, 4):
            ops[f"P{a}"] = MomentumOperator.momentum(a, dim)
        for name in ("J12", "J13", "J23", "J01", "J02", "J03"):
            ops[name] = compose(u_dag, compose(canonical[name], u))
        return GeneratorSet(rep, ops)

    spin = cached_spin(dim)
    gamma0 = cached_basis(dim).gamma0

    if kind in ("canonical8", "rep1", "rep2"):
        ham = MomentumOperator.from_matrix(
            mat_scale(const_matrix(energy_sign * gamma0), ENERGY)
        )
    else:  # rep3: positive multiple of the identity
        ham = MomentumOperator.scalar(mul(energy_sign, ENERGY), dim)

    ops["P0"] = ham
    for a in range(1, 4):
        ops[f"P{a}"] = MomentumOperator.momentum(a, dim)
    ops.update(_rotations(dim, spin.entry))

    for a in range(1, 4):
        if kind == "rep2":
            rot = 0.5 * sum(
                EPSILON[a - 1, b - 1, c - 1] * spin.entry(b, c)
                for b in range(1, 4)
                for c in range(1, 4)
            )
            mass_part = mat_scale(const_matrix(rot), MASS)
        else:
            mass_part = mat_scale(const_matrix(spin.entry(a, 4)), MASS)
        spin_mat = _spin_term_matrix(spin.entry, a, mass_part)
        if kind != "rep3":
            spin_mat = mat_mul(const_matrix(gamma0), spin_mat)
        if energy_sign == -1:
            # the boost spin prefactor is the sign-carrying H/E, so the
            # negative-energy sets scale it too (otherwise they do not close)
            spin_mat = mat_scale(spin_mat, -1)
        ops[f"J0{a}"] = _boost_orbital(a, ham) - MomentumOperator.from_matrix(spin_mat)

    ordered = {name: ops[name] for name in GENERATOR_NAMES}
    return GeneratorSet(rep, ordered)


def build_generators(rep) -> GeneratorSet:
    if isinstance(rep, str):
        rep = RepId(rep)
    return _build_cached(rep.kind, rep.energy_sign)


# ---------------------------------------------------------------------------
# structure constants from the spinless orbital realization


@lru_cache(maxsize=None)
def scalar_generator_set() -> GeneratorSet:
    """The one-dimensional orbital realization used to fix all sign conventions."""
    rep = RepId(SCALAR_KIND)
    dim = rep.dim
    ham = MomentumOperator.scalar(ENERGY, dim)
    ops = {"P0": ham}
    for a in range(1, 4):
        ops[f"P{a}"] = MomentumOperator.momentum(a, dim)
    ops.update(_rotations(dim, lambda a, b: np.zeros((1, 1))))
    for a in range(1, 4):
        ops[f"J0{a}"] = _boost_orbital(a, ham)
    ordered = {name: ops[name] for name in GENERATOR_NAMES}
    return GeneratorSet(rep, ordered)


def _snap_gaussian(value: complex, tol: float = 1e-6) -> complex:
    snapped = complex(round(value.real), round(value.imag))
    if abs(value - snapped) > tol:
        raise AssertionError(f"structure constant {value} is not a Gaussian integer")
    return snapped


@lru_cache(maxsize=None)
def structure_constants() -> dict:
    """Fit [G_i, G_j] = sum_k c_k G_k on the scalar orbital set.

    Returns a dict keyed by (i, j) with i < j over GENERATOR_NAMES indices,
    holding the snapped coefficient vector of length ten.
    """
    env = env_arrays(sample_points(count=24, seed=0x51AB))
    names = list(GENERATOR_NAMES)
    evaluated = [eval_operator(op, env) for op in scalar_generator_set().ops.values()]
    generators = [ev.coeffs for ev in evaluated]
    brackets = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            brackets[(i, j)] = bracket_eval(evaluated[i], evaluated[j])
    alphas = sorted({a for coeffs in generators + list(brackets.values()) for a in coeffs})
    zero = np.zeros(len(env["E"]))

    def stacked(coeffs):
        return np.concatenate([coeffs[a].ravel() if a in coeffs else zero for a in alphas])

    basis_matrix = np.stack([stacked(coeffs) for coeffs in generators], axis=1)
    constants = {}
    for (i, j), br in brackets.items():
        rhs = stacked(br)
        coeffs, *_ = np.linalg.lstsq(basis_matrix, rhs, rcond=None)
        residual = float(np.max(np.abs(basis_matrix @ coeffs - rhs)))
        if residual > 1e-9:
            raise AssertionError(
                f"scalar bracket [{names[i]},{names[j]}] does not close "
                f"(fit residual {residual})"
            )
        constants[(i, j)] = tuple(_snap_gaussian(c) for c in coeffs)
    return constants


@dataclass
class AlgebraReport:
    rep: str
    residuals: dict  # (name_i, name_j) -> float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol

    def failures(self) -> list:
        return [pair for pair, r in self.residuals.items() if r >= self.tol]


def check_algebra(g: GeneratorSet, points=None, tol: float = DEFAULT_TOL) -> AlgebraReport:
    """Verify every independent bracket against the fitted structure constants."""
    if points is None:
        points = sample_points()
    env = env_arrays(points)
    evaluated = {name: eval_operator(op, env) for name, op in g.items()}
    constants = structure_constants()
    names = list(GENERATOR_NAMES)
    residuals = {}
    for (i, j), coeffs in constants.items():
        br = bracket_eval(evaluated[names[i]], evaluated[names[j]])
        target: dict = {}
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            for alpha, mat in evaluated[names[k]].coeffs.items():
                target[alpha] = target.get(alpha, 0) + c * mat
        residuals[(names[i], names[j])] = max_coeff_residual(br, target)
    return AlgebraReport(g.rep.kind, residuals, tol)


# ---------------------------------------------------------------------------
# canonical subspaces and the charge remark


@dataclass
class SubspaceReport:
    blocks: list  # (projector, IrrepLabel)
    commutation_residual: float
    complete: bool


def subspace_decomposition(points=None, tol: float = DEFAULT_TOL) -> SubspaceReport:
    """Rank-2 projectors labelled by energy sign and by which Casimir is excited.

    Each projector is the product of a spectral projector of Gamma0 with one
    of S^2 or T^2, and must commute with all ten canonical generators.
    """
    g = build_generators("canonical8")
    if points is None:
        points = sample_points()
    basis = cached_basis(8)
    spin = cached_spin(8)

    blocks = []
    for label in CANONICAL8_CONTENT:
        sign_proj = spectral_projector(basis.gamma0, float(label.energy_sign))
        casimir = spin.s_squared if label.s == HALF else spin.t_squared
        proj = sign_proj @ spectral_projector(casimir, 0.75)
        rank = round(float(np.real(np.trace(proj))))
        if rank != label.dimension:
            raise AssertionError(
                f"projector for {label} has rank {rank}, expected {label.dimension}"
            )
        blocks.append((proj, label))

    env = env_arrays(points)
    worst = 0.0
    for name, op in g.items():
        ev = eval_operator(op, env, derivatives=False)
        for proj, label in blocks:
            for mat in ev.coeffs.values():
                comm = proj @ mat - mat @ proj
                worst = max(worst, float(np.max(np.abs(comm))))
    if worst >= tol:
        raise AssertionError(
            f"a subspace projector fails to commute with the generators "
            f"(residual {worst})"
        )
    total = sum(proj for proj, _ in blocks)
    complete = bool(np.max(np.abs(total - np.eye(8))) < 1e-12)
    return SubspaceReport(blocks, worst, complete)


@dataclass
class ChargeReport:
    ok: bool
    max_residual: float
    per_generator: dict


def charge_check(points=None, tol: float = 1e-10) -> ChargeReport:
    """Does gamma0 commute with all ten generators of the positive-Hamiltonian
    set rep3?"""
    g = build_generators("rep3")
    if points is None:
        points = sample_points()
    q = cached_basis(4).gamma0
    env = env_arrays(points)
    per = {}
    for name, op in g.items():
        ev = eval_operator(op, env, derivatives=False)
        worst = 0.0
        for mat in ev.coeffs.values():
            worst = max(worst, float(np.max(np.abs(q @ mat - mat @ q))))
        per[name] = worst
    max_residual = max(per.values())
    return ChargeReport(max_residual < tol, max_residual, per)
