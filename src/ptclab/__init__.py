"""ptclab: Clifford bases, Poincare generator sets, and mechanical
classification of the discrete space/time/mass reflection symmetries of free
relativistic wave equations."""

from .clifford import (
    CliffordBasis,
    SpinGenerators,
    build_basis,
    casimir_spectrum,
    commutant_scan,
    spectral_projector,
    spin_tensor,
)
from .classify import (
    ClassificationResult,
    ClassificationTable,
    DiscreteOpSpec,
    build_constraints,
    compose_ops,
    full_table,
    get_op,
    intertwining_check,
    momentum_action,
)
from .expr import E, Expr, Var
from .generators import (
    GeneratorSet,
    RepId,
    build_generators,
    canonical_transform,
    charge_check,
    check_algebra,
    dirac_hamiltonian8,
    fs_transform,
    structure_constants,
    subspace_decomposition,
)
from .labels import (
    IrrepLabel,
    MasslessLabel,
    helicity_check,
    massless_decompose,
    massless_pair_count,
    parse_labels,
    ptc_complete,
    spin_content,
)
from .operators import (
    FlagTransform,
    MomentumOperator,
    adjoint,
    apply_flags,
    bracket,
    compose,
    equal_at,
)
from .sampling import Point, sample_points

__version__ = "0.1.0"

__all__ = [
    "CliffordBasis",
    "ClassificationResult",
    "ClassificationTable",
    "DiscreteOpSpec",
    "E",
    "Expr",
    "FlagTransform",
    "GeneratorSet",
    "IrrepLabel",
    "MasslessLabel",
    "MomentumOperator",
    "Point",
    "RepId",
    "SpinGenerators",
    "Var",
    "adjoint",
    "apply_flags",
    "bracket",
    "build_basis",
    "build_constraints",
    "build_generators",
    "canonical_transform",
    "casimir_spectrum",
    "charge_check",
    "check_algebra",
    "commutant_scan",
    "compose",
    "compose_ops",
    "dirac_hamiltonian8",
    "equal_at",
    "fs_transform",
    "full_table",
    "get_op",
    "helicity_check",
    "intertwining_check",
    "massless_decompose",
    "massless_pair_count",
    "momentum_action",
    "parse_labels",
    "ptc_complete",
    "spectral_projector",
    "spin_content",
    "spin_tensor",
    "structure_constants",
    "subspace_decomposition",
    "sample_points",
]
