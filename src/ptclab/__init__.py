"""ptclab: Clifford bases, Poincare generator sets, and mechanical
classification of the discrete space/time/mass reflection symmetries of free
relativistic wave equations.

The API lives in the submodules: ptclab.classify, ptclab.generators,
ptclab.operators, ptclab.clifford, ptclab.labels, ptclab.expr,
ptclab.vocabulary, and the command line in ptclab.cli.  Every check and
every classification is decided exactly on Laurent polynomials in (p, m, t),
in plain Python with no runtime dependency: the rank by fraction-free
elimination over the Gaussian integers, the witness as a Gaussian-integer
combination of the exact nullspace basis.  No module takes a tolerance,
draws a random number or evaluates a sample point."""

__version__ = "0.1.0"
