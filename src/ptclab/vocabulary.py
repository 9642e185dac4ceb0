"""The names and settings the command line validates, without numpy.

Representation kinds, discrete-operator names, the default run settings and
their range checks live here so that `ptclab.cli` can parse and check a
command line, and answer `ptc`, `--help` and usage errors, without loading
the numeric layers.  `generators` and `classify` import them from here; the
seed and both tolerances are settings of `classify` and `table` alone.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral

REP_KINDS = ("dirac8", "canonical8", "rep1", "rep2", "rep3")
OP_ORDER = ("P1", "P2", "T1", "T2", "C", "M", "Mt", "Mx", "P1T2")

DEFAULT_SEED = 0x5EED
DEFAULT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8
# a singular value within this factor of the rank threshold is indeterminate
RANK_GUARD = 10.0
# below this the guard band's lower edge sinks under rounding noise, and a
# nullspace's singular values would pass silently as nonzero
MIN_RANK_TOL = RANK_GUARD * sys.float_info.epsilon


def check_settings(seed=None, tol=None, rank_tol=None):
    """Raise ValueError for a setting outside its range; None skips a check.

    The seed is a non-negative integer, written into the string that seeds
    the witness draw (`random.Random("seed/rep/op")`), tol is finite and
    positive, and rank_tol is a fraction of the largest singular value in
    [MIN_RANK_TOL, 1).
    """
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, Integral):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if rank_tol is not None and not MIN_RANK_TOL <= rank_tol < 1:
        raise ValueError(
            f"rank_tol must be in [{MIN_RANK_TOL!r}, 1), got {rank_tol!r}"
        )
