"""ptclab: Clifford bases, Poincare generator sets, and mechanical
classification of the discrete space/time/mass reflection symmetries of free
relativistic wave equations.

The API lives in the submodules: ptclab.classify, ptclab.generators,
ptclab.operators, ptclab.clifford, ptclab.labels, ptclab.expr,
ptclab.sampling, ptclab.vocabulary, and the command line in ptclab.cli."""

__version__ = "0.1.0"
