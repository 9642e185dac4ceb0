"""The five generator sets, the transforms' numerators, and algebra checks.

Five realizations of the ten translation/rotation/boost generators are built:
the 8-component Dirac-type set, its canonical (diagonal-Hamiltonian)
form, and the three inequivalent 4-component sets.  Every set, and the
spinless orbital set below, comes out of one assembly from its Hamiltonian H,
its spin matrices S_ab and an optional boost-spin term B_a:

    P0 = H,  P_a = p_a,  J_ab = x_a p_b - x_b p_a + S_ab,
    J_0a = t p_a - {x_a, H}/2 - B_a,

written out in closed form, since every term has order <= 1 in d/dp (see
`_assemble`).  Each coefficient is a `Coefficient`, constant matrices times
scalars (H8 = sum_k (Gamma0 Gamma_k) p_k, B_a = sum_b (Gamma0 S_ab) p_b / E
+ ...), built by sums, scalar scalings and constant left factors.

A `GeneratorSet` is a name, the dimension d of its d x d coefficients and
the ten operators, nothing else.  `build_generators(kind)` names each
built-in set by its kind, the assembly reads d off H, and a set built any
other way carries the name and d it is given.

The Dirac-type set takes H8 = Gamma0 Gamma_k p_k and no B_a: its spin part
sits inside the anticommutator.  The canonical and 4-component sets take
a diagonal H and B_a = (S_ab p_b + mass part) / E.  That the Dirac-type set is
the canonical one conjugated by the diagonalizing unitary is a checked
property, not the construction.

Every check here is exact.  The coefficients are Laurent polynomials in
(p, m, t, E) with constant matrices, so an identity between generators holds
for all momenta, masses and times iff the mass-shell normal form
(`Expr.on_shell`) of its coefficients has no rows; brackets are formed with
`operators.commutator`, and no sample point is used.  So no check takes a
tolerance, and none decides a pass: each returns its residuals as plain
floats, the largest |coefficient| of a normal form, and a check passes only
when every residual is exactly 0.0.  Structure constants are never copied in
by hand: they are read off the 45 brackets of the spinless orbital
realization (identity matrices, P0 = E) and then imposed on every spinor set.

The checks and what they return:

- `check_algebra(g)`: (closure, adjoint), the residual of each of the 45
  brackets {(name_i, name_j): float} and of each generator's formal
  self-adjointness {name: float};
- `charge_check()`: one float, for gamma0 commuting with every generator
  of rep3;
- `helicity_check()`: (commute, eigenvalue), for the helicity operators
  S.p/E and T.p/E commuting with every canonical 8-component generator at
  m = 0, and for S.p/E having eigenvalues +-1/2 on the S^2 = 3/4 subspace;
- `transform_residuals()`: {check name: float} in TRANSFORM_CHECKS order,
  for the canonical transform and the connector being unitary and the
  canonical one diagonalizing H8 (Foldy & Wouthuysen, Phys. Rev. 78 (1950)
  29), checked on their numerators U and N alone: their normalisations
  2^-1/2 and 1/sqrt(2E(E + m)) are not Gaussian-dyadic Laurent polynomials,
  so neither transform is built.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .clifford import cached_basis, cached_spin, combine, eye, matmul, trace
from .expr import E as ENERGY, LAURENT_VARS, MASS, MOMENTA, MOMENTUM_VARS, TIME, Expr
from .operators import ZERO_INDEX, Coefficient, MomentumOperator, commutator
from .vocabulary import REP_KINDS

_MASS_AXIS = LAURENT_VARS.index("m")
# p1, p2, p3 and the mass as the fourth momentum component
_MOMENTA4 = MOMENTA + (MASS,)
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


class GeneratorSet:
    """The ten generators of one wave equation: its name, the dimension d of
    its d x d coefficients and its operators; equal and hashed by identity,
    so a set keys the classifier's cache of equation tables."""

    __slots__ = ("name", "dim", "ops")

    def __init__(self, name: str, dim: int, ops: dict):
        self.name = name
        self.dim = dim
        self.ops = ops  # name -> MomentumOperator, keys in GENERATOR_NAMES order

    def __getitem__(self, name: str) -> MomentumOperator:
        return self.ops[name]

    def items(self):
        return self.ops.items()


def _assemble(name: str, ham: MomentumOperator, spin_entry, boost_spin=None) -> GeneratorSet:
    """P0 = ham, P_a = p_a, J_ab = x_a p_b - x_b p_a + S_ab and
    J_0a = t p_a - {x_a, ham}/2 - boost_spin[a-1] (no spin term when None).

    Written out in closed form: x_a = i d/dp_a and ham is a matrix H without
    derivatives, so x_a p_b - x_b p_a = i p_b d_a - i p_a d_b and
    {x_a, H}/2 = i H d_a + (i/2) dH/dp_a (Foldy, Phys. Rev. 102 (1956) 568):

        J_ab = {d_a: i p_b, d_b: -i p_a, 1: S_ab},
        J_0a = {1: t p_a - (i/2) dH/dp_a - boost_spin[a-1], d_a: -i H}.
    """
    dim = ham.dim
    h = ham.terms[ZERO_INDEX]
    unit = {a: tuple(int(k == a - 1) for k in range(3)) for a in range(1, 4)}
    ops = {"P0": ham}
    for a in range(1, 4):
        ops[f"P{a}"] = MomentumOperator.momentum(a, dim)
    for (a, b) in ((1, 2), (1, 3), (2, 3)):
        ops[f"J{a}{b}"] = MomentumOperator(dim, {
            unit[a]: Coefficient.scalar(1j * MOMENTA[b - 1], dim),
            unit[b]: Coefficient.scalar(-1j * MOMENTA[a - 1], dim),
            ZERO_INDEX: Coefficient.constant(spin_entry(a, b)),
        })
    for a in range(1, 4):
        constant = Coefficient.scalar(TIME * MOMENTA[a - 1], dim) + h.diff(f"p{a}").scale(-0.5j)
        if boost_spin is not None:
            constant = constant + boost_spin[a - 1].scale(-1)
        ops[f"J0{a}"] = MomentumOperator(dim, {ZERO_INDEX: constant, unit[a]: h.scale(-1j)})
    return GeneratorSet(name, dim, ops)


def dirac_hamiltonian8() -> MomentumOperator:
    """Gamma0 Gamma_k p_k with the fourth momentum component playing the mass."""
    basis = cached_basis(8)
    coeffs = [matmul(basis.gamma0, basis.gamma(k)) for k in range(1, 5)]
    return MomentumOperator.from_matrix(Coefficient(coeffs, _MOMENTA4))


def _canonical_numerator() -> Coefficient:
    """U = 1 + Gamma0 H8 / E = 1 + Gamma_k p_k / E, sqrt(2) times the unitary
    canonical transform that diagonalizes H8."""
    basis = cached_basis(8)
    over_e = Coefficient([basis.gamma(k) for k in range(1, 5)], _MOMENTA4).scale(1 / ENERGY)
    return Coefficient.scalar(1, 8) + over_e


def _connector_numerator() -> Coefficient:
    """N = m + E + gamma4 gamma_a p_a, sqrt(2E(E + m)) times the unitary
    connector."""
    basis = cached_basis(4)
    return Coefficient(
        [eye(4)] + [matmul(basis.gamma(4), basis.gamma(a)) for a in range(1, 4)],
        [MASS + ENERGY, *MOMENTA],
    )


@lru_cache(maxsize=None)
def _build_cached(kind: str, energy_sign: int) -> GeneratorSet:
    dim = 8 if kind in ("dirac8", "canonical8") else 4
    spin = cached_spin(dim)
    if kind == "dirac8":
        # the spin part of the boost sits inside the anticommutator {x_a, H8}
        return _assemble(kind, dirac_hamiltonian8(), spin.entry)
    gamma0 = cached_basis(dim).gamma0
    if kind == "rep3":  # positive multiple of the identity
        ham = MomentumOperator.scalar(energy_sign * ENERGY, dim)
    else:
        ham = MomentumOperator.from_matrix(Coefficient([gamma0], [energy_sign * ENERGY]))
    # boost spin (sum_b S_ab p_b + mass part) / E, times Gamma0 except on rep3
    boost_spin = []
    for a in range(1, 4):
        mass_part = (
            combine((1, spin.S[a - 1]), (1, spin.T[a - 1])) if kind == "rep2" else spin.entry(a, 4)
        )
        others = [b for b in range(1, 4) if b != a]
        mat = Coefficient(
            [spin.entry(a, b) for b in others] + [mass_part],
            [MOMENTA[b - 1] for b in others] + [MASS],
        ).scale(1 / ENERGY)
        if kind != "rep3":
            mat = mat.lmul(gamma0)
        if energy_sign == -1:
            # the boost spin prefactor is the sign-carrying H/E, so the
            # negative-energy sets scale it too (otherwise they do not close)
            mat = mat.scale(-1)
        boost_spin.append(mat)
    return _assemble(kind, ham, spin.entry, boost_spin)


def build_generators(kind: str, energy_sign: int = 1) -> GeneratorSet:
    """The set named kind, one of REP_KINDS; rep1-rep3 also at energy sign
    -1.  Checked before the cache, where True would find the set of sign 1."""
    if kind not in REP_KINDS:
        raise ValueError(f"unknown representation {kind!r}")
    if isinstance(energy_sign, bool) or energy_sign not in (1, -1):
        raise ValueError("energy sign must be +1 or -1")
    if kind not in ("rep1", "rep2", "rep3") and energy_sign != 1:
        raise ValueError(f"{kind} does not carry an energy-sign flag")
    return _build_cached(kind, energy_sign)


# ---------------------------------------------------------------------------
# exact residuals on the mass-shell normal form


def _shell_residual(coeffs, massless: bool = False) -> float:
    """The largest |coefficient| of the mass-shell normal forms of the given
    coefficients, 0.0 iff every one of them vanishes on the mass shell.
    With massless, only the rows without a power of m count: they are the
    coefficient at m = 0, where 1 and E = |p| are still a basis because
    p1^2 + p2^2 + p3^2 is not a square."""
    worst = 0.0
    for c in coeffs:
        for row, value in c.on_shell()[1].terms.items():
            if not (massless and row[_MASS_AXIS]):
                entries = value.values() if isinstance(value, dict) else [value]
                worst = max(worst, *map(abs, entries))
    return worst


def _brackets(ops: list) -> dict:
    """[G_i, G_j] for every pair i < j of the ten generators, in GENERATOR_NAMES order."""
    return {
        (i, j): commutator(ops[i], ops[j])
        for i in range(len(ops))
        for j in range(i + 1, len(ops))
    }


def _closure_residuals(ops: list, brackets: dict, constants: dict) -> dict:
    """Per pair (name_i, name_j), the residual of [G_i, G_j] - sum_k c_k G_k."""
    residuals = {}
    for (i, j), coeffs in constants.items():
        gap = dict(brackets[(i, j)].terms)
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            for alpha, coeff in ops[k].terms.items():
                gap[alpha] = gap[alpha] - coeff * c if alpha in gap else coeff * -c
        residuals[(GENERATOR_NAMES[i], GENERATOR_NAMES[j])] = _shell_residual(gap.values())
    return residuals


# ---------------------------------------------------------------------------
# structure constants from the spinless orbital realization


@lru_cache(maxsize=None)
def scalar_generator_set() -> GeneratorSet:
    """The one-dimensional orbital realization used to fix all sign
    conventions; not one of the wave equations classified."""
    return _assemble("scalar", MomentumOperator.scalar(ENERGY, 1), lambda a, b: ((0j,),))


def _scalar_rows(op: MomentumOperator) -> dict:
    """{(multi-index, exponent row): coefficient} of a one-dimensional operator."""
    return {
        (alpha, row): mat[0, 0] for alpha, c in op.terms.items() for row, mat in c.terms.items()
    }


@lru_cache(maxsize=None)
def structure_constants() -> dict:
    """[G_i, G_j] = sum_k c_k G_k on the scalar orbital set, exactly.

    Every scalar generator has a private monomial, one that no other
    generator has (E for P0, p_a for P_a, p_b at d_a for J_ab, t p_a for
    J_0a).  c_k is the bracket's coefficient at G_k's private monomial
    divided by G_k's own coefficient there, and the set's exact closure
    under these constants certifies them.  Returns a dict keyed by (i, j)
    with i < j over GENERATOR_NAMES indices, holding the coefficient vector
    of length ten.
    """
    ops = [scalar_generator_set()[name] for name in GENERATOR_NAMES]
    rows = [_scalar_rows(op) for op in ops]
    owners = Counter(key for generator in rows for key in generator)
    private = []
    for name, generator in zip(GENERATOR_NAMES, rows):
        key = next((key for key in generator if owners[key] == 1), None)
        if key is None:
            raise AssertionError(f"scalar generator {name} has no private monomial")
        private.append((key, generator[key]))
    brackets = _brackets(ops)
    constants = {}
    for pair, bracket in brackets.items():
        found = _scalar_rows(bracket)
        constants[pair] = tuple(found.get(key, 0j) / own for key, own in private)
    for (a, b), residual in _closure_residuals(ops, brackets, constants).items():
        if residual != 0.0:
            raise AssertionError(
                f"scalar bracket [{a},{b}] does not close (residual {residual})"
            )
    return constants


def _adjoint_residual(op: MomentumOperator) -> float:
    """Distance of G = C_0 + sum_a C_a d_a from its formal adjoint
    C_0^H - sum_a (d_a C_a)^H - sum_a C_a^H d_a: G is self-adjoint iff
    C_a + C_a^H and C_0 - C_0^H + sum_a (d_a C_a)^H vanish."""
    c0 = op.terms[ZERO_INDEX]
    gap = c0 - c0.dagger()
    conditions = []
    for alpha, c in op.terms.items():
        if alpha != ZERO_INDEX:
            conditions.append(c + c.dagger())
            gap = gap + c.diff(MOMENTUM_VARS[alpha.index(1)]).dagger()
    return _shell_residual(conditions + [gap])


def check_algebra(g: GeneratorSet) -> tuple:
    """(closure, adjoint): the residual of every independent bracket against
    the structure constants, {(name_i, name_j): float}, and the distance of
    every generator from its formal adjoint, {name: float}.  Each is the
    largest |coefficient| of a mass-shell normal form, 0.0 iff its identity
    holds for all (p, m, t)."""
    ops = [g[name] for name in GENERATOR_NAMES]
    closure = _closure_residuals(ops, _brackets(ops), structure_constants())
    return closure, {name: _adjoint_residual(op) for name, op in g.items()}


# ---------------------------------------------------------------------------
# the charge remark


def charge_check() -> float:
    """The residual of gamma0 commuting with all ten generators of the
    positive-Hamiltonian set rep3, 0.0 iff it commutes exactly."""
    q = MomentumOperator.from_matrix(Coefficient.constant(cached_basis(4).gamma0))
    return max(
        _shell_residual(commutator(q, op).terms.values())
        for op in build_generators("rep3").ops.values()
    )


# ---------------------------------------------------------------------------
# the diagonalizing transforms


TRANSFORM_CHECKS = ("canonical_transform_unitary", "hamiltonian_diagonalization", "connector_unitary")


def transform_residuals() -> dict:
    """The `_shell_residual`s of the identities that make both transforms
    unitary and the canonical one diagonalize H8, each 0.0 iff it holds for
    all (p, m), checked on their numerators, which are Laurent polynomials:

        U U^H = 2,  U H8 U^H = 2 Gamma0 E   for U = 1 + Gamma0 H8 / E,
        N^H N = 2E(E + m)                   for N = m + E + gamma4 gamma_a p_a.

    Keyed by the selftest check each one backs, in TRANSFORM_CHECKS order.
    """
    u = _canonical_numerator()
    h8 = dirac_hamiltonian8().terms[ZERO_INDEX]
    n = _connector_numerator()
    identities = (
        u @ u.dagger() - Coefficient.scalar(2, 8),
        u @ h8 @ u.dagger() - Coefficient([cached_basis(8).gamma0], [2 * ENERGY]),
        n.dagger() @ n - Coefficient.scalar(2 * ENERGY * (ENERGY + MASS), 4),
    )
    return {name: _shell_residual([c]) for name, c in zip(TRANSFORM_CHECKS, identities)}


# ---------------------------------------------------------------------------
# helicity check on the canonical 8-component generators


def helicity_operator(which: str = "s") -> MomentumOperator:
    """S_a p_a / E (or T_a p_a / E) on the 8-dimensional space."""
    spin = cached_spin(8)
    triple = spin.S if which == "s" else spin.T
    return MomentumOperator.from_matrix(Coefficient(triple, MOMENTA).scale(1 / ENERGY))


def helicity_check() -> tuple:
    """(commute, eigenvalue): the residuals of both helicity operators
    commuting with all ten canonical 8-component generators at m = 0, and of
    h = S.p/E having eigenvalues +-1/2, twice each, on the S^2 = 3/4
    subspace; each 0.0 iff its claim holds.

    The generators keep their mass dependence: each commutator counts only
    the rows of its normal form without a power of m, which are the
    commutator at m = 0 (E = |p|).  The eigenvalue claim is decided on
    Q = S^2 itself, whose entries are dyadic, so nothing is divided:
    Q Q = 3/4 Q puts its spectrum in {0, 3/4}, so P = 4Q/3 projects onto the
    subspace, and tr Q = 3 makes that subspace 4-dimensional.  Q commutes
    with every S_a and so with h, so at m = 0 the eigenvalues there are
    +-1/2 iff Q h h = Q/4, and they come twice each iff tr(Q h) = 0.
    """
    hs, ht = helicity_operator("s"), helicity_operator("t")
    commute = max(
        _shell_residual(commutator(h, op).terms.values(), massless=True)
        for op in build_generators("canonical8").ops.values()
        for h in (hs, ht)
    )
    h = hs.terms[ZERO_INDEX]
    q = Coefficient.constant(cached_spin(8).s_squared)
    qh = q @ h
    tr_q, tr_qh = (Expr(c.exps, [trace(mat) for mat in c.mats]) for c in (q, qh))
    identities = [q @ q - q.scale(0.75), tr_q - 3, qh @ h - q.scale(0.25), tr_qh]
    return commute, _shell_residual(identities, massless=True)
