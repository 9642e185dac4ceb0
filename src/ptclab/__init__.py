"""ptclab: Clifford bases, Poincare generator sets, and mechanical
classification of the discrete space/time/mass reflection symmetries of free
relativistic wave equations.

The API lives in the submodules: ptclab.classify, ptclab.generators,
ptclab.operators, ptclab.clifford, ptclab.labels, ptclab.expr,
ptclab.vocabulary, and the command line in ptclab.cli.  Every check is
decided exactly on Laurent polynomials in (p, m, t), in plain Python; no
module draws or evaluates a sample point.  Only classify and table load
numpy, for the only float decisions: the rank, an SVD against --rank-tol
with a guard band, and the witness, a float matrix accepted when its
residual is below --tol."""

__version__ = "0.1.0"
